// Consistent hot backup, restore, and component salvage.
//
// CreateBackup (a Store method; the engine lives here) flushes every open
// dataset, pins one snapshot per dataset, and copies, without ever
// blocking writers:
//
//   <backup_dir>/
//     BACKUP.MANIFEST                  checksummed catalog, written LAST
//     <dataset>/
//       <dataset>_<id>.cmp             immutable components (stable names)
//       <dataset>.<gen>.MANIFEST       dataset manifest at the pin instant
//
// The flush puts every write acknowledged before the call into a
// component, so components and the manifest that lists them are the
// whole backup; no log is copied. Component files are write-once, so
// their backup names are stable and incremental backups reuse any copy
// whose checksum still matches the prior catalog. Dataset manifests DO
// change between backups, so each backup generation writes them under
// fresh (`.<gen>.`) names and prunes the superseded generation only
// after the new catalog is durable — at every instant the directory
// holds one complete, verifiable backup.
//
// Restore copies every cataloged file (verified against its checksum)
// into a fresh store root, dataset manifests last; the result recovers
// through the ordinary Store::Open path with no log to replay.
//
// Salvage is the last resort when there is no backup: it walks a damaged
// component file leaf by leaf in salvage mode (no quarantine
// bookkeeping) and emits every record whose leaf still verifies.

#ifndef LSMCOL_STORE_BACKUP_H_
#define LSMCOL_STORE_BACKUP_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/common/status.h"
#include "src/json/value.h"
#include "src/storage/filesystem.h"

namespace lsmcol {

/// Restore the backup at `backup_dir` into `target_dir` (created if
/// missing; must not already contain files — restoring over a live or
/// partially-restored store is refused with AlreadyExists). Every file is
/// verified against the catalog during the copy.
Status RestoreStoreFromBackup(const std::string& backup_dir,
                              const std::string& target_dir,
                              FileSystem* fs = nullptr);

/// What SalvageComponentFile could and could not read.
struct SalvageResult {
  uint64_t leaves_total = 0;
  uint64_t leaves_readable = 0;
  uint64_t leaves_damaged = 0;
  uint64_t records = 0;  ///< records emitted (anti-matter excluded)
};

/// Walk the component file at `path` in salvage mode and call `emit` for
/// every record in every leaf that still passes verification (damaged
/// leaves are skipped, their records lost). `emit` returning non-OK
/// aborts the walk with that status. Works on any layout; `page_size`
/// must match the file's.
Status SalvageComponentFile(
    const std::string& path, size_t page_size,
    const std::function<Status(int64_t key, const Value& record)>& emit,
    SalvageResult* result, FileSystem* fs = nullptr);

}  // namespace lsmcol

#endif  // LSMCOL_STORE_BACKUP_H_
