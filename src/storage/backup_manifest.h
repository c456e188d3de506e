// BackupManifest: the checksummed catalog of one backup directory.
//
// A backup is a directory holding, per dataset, a subdirectory of copied
// component files and the dataset MANIFEST taken at the pin instant —
// plus this top-level BACKUP.MANIFEST naming every file with its size
// and whole-file checksum. The catalog is written atomically LAST (after
// every data file is synced), so a crash while the backup was being
// taken leaves either a complete, verifiable backup or one with no
// catalog — never a catalog pointing at missing or torn files. Restore
// and repair refuse any file whose size or checksum disagrees with the
// catalog.
//
// This lives in the storage layer (not src/store) so Dataset's repair
// path can read catalogs without a store->lsm dependency cycle; the
// backup *engine* (snapshot pinning, copying) lives in src/store/backup.

#ifndef LSMCOL_STORAGE_BACKUP_MANIFEST_H_
#define LSMCOL_STORAGE_BACKUP_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/storage/filesystem.h"

namespace lsmcol {

/// What one cataloged file is. Stored as a raw byte on disk. Kind 2, a
/// WAL segment copy, is retired: ReadBackupManifest rejects it.
enum class BackupFileKind : uint8_t {
  kComponent = 1,        ///< immutable component file (id = component id)
  kDatasetManifest = 3,  ///< the dataset MANIFEST at the pin instant
};

/// One file in the backup, with enough identity for incremental reuse
/// (component id + checksum) and for repair to find a replacement.
struct BackupFileEntry {
  BackupFileKind kind = BackupFileKind::kComponent;
  std::string dataset;   ///< owning dataset name
  std::string rel_path;  ///< path relative to the backup root
  uint64_t size = 0;     ///< exact file size in bytes
  uint32_t checksum = 0; ///< FNV-1a32 of the whole file content
  uint64_t id = 0;       ///< component id; 0 for manifests
};

struct BackupManifest {
  /// Bumped on every CreateBackup into the same directory (incremental
  /// backups rewrite the catalog over the reused files).
  uint64_t sequence = 0;
  std::vector<BackupFileEntry> files;
};

/// Canonical catalog path: `<backup_dir>/BACKUP.MANIFEST`.
std::string BackupManifestPath(const std::string& backup_dir);

/// Serialize + write atomically (temp, fsync, rename, dir fsync).
Status WriteBackupManifest(const std::string& backup_dir,
                           const BackupManifest& manifest,
                           FileSystem* fs = nullptr);

/// Read and verify (magic, version, checksum) a backup catalog. A catalog
/// that lists a WAL segment copy (kind 2) is NotSupported.
Result<BackupManifest> ReadBackupManifest(const std::string& backup_dir,
                                          FileSystem* fs = nullptr);

/// Whole-file FNV-1a32 + size of `path`, streamed through `fs`.
Status HashFile(const std::string& path, uint64_t* size, uint32_t* checksum,
                FileSystem* fs = nullptr);

/// Copy `src` to `dst` through `fs`, fsyncing the copy, and verify the
/// copied bytes hash to `want_checksum` / `want_size` (pass the values
/// from the catalog — or from a fresh HashFile of the source — so a bit
/// flip during the copy is caught before anyone trusts the new file).
/// On mismatch the destination is removed and ChecksumMismatch returned.
Status CopyFileVerified(const std::string& src, const std::string& dst,
                        uint64_t want_size, uint32_t want_checksum,
                        FileSystem* fs = nullptr);

}  // namespace lsmcol

#endif  // LSMCOL_STORAGE_BACKUP_MANIFEST_H_
