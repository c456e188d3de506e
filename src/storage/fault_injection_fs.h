// FaultInjectionFs: a FileSystem wrapper that injects the failures real
// storage produces, deterministically.
//
// Four fault families, combinable per path-substring and per operation:
//
//  * transient/permanent errors — FaultRule{op, error_code, fail_after,
//    max_failures}: the Nth..(N+K)th matching call fails with the given
//    errno (EIO, ENOSPC, ...) before touching the base filesystem;
//
//  * byte quotas — SetByteQuota(n): cumulative written bytes beyond n
//    fail with ENOSPC (all-or-nothing per write; the base file is not
//    touched), simulating a volume filling up mid-flush/merge;
//
//  * bit flips — FaultRule{flip_bit = true}: the matching write goes
//    through with a single bit inverted, simulating silent media
//    corruption the page checksums must catch; with op = kRead the
//    write path stays clean and the *returned* bytes are corrupted
//    instead (latent media decay: good data rots at rest and is only
//    discovered when re-read, e.g. by the scrubber);
//
//  * simulated crashes — with SetTrackUnsynced(true) every file mutation
//    is tracked against the content at its last successful Sync();
//    DropUnsyncedWrites() rewinds every file to that durable image
//    (files never synced since creation are removed), and
//    CopySyncedSnapshot() materializes the post-crash disk state in a
//    second directory so a live dataset keeps running while the crash
//    image is reopened and verified beside it.
//
// Used by tests/fault_test.cc, tests/torture_test.cc, and the rewritten
// error-path tests in tests/wal_test.cc / tests/storage_test.cc (which
// previously forced EISDIR by planting directories at target paths).
//
// Thread-safe; the internal mutex ranks kFaultFs so injection checks may
// run during I/O issued under any subsystem lock.

#ifndef LSMCOL_STORAGE_FAULT_INJECTION_FS_H_
#define LSMCOL_STORAGE_FAULT_INJECTION_FS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/storage/filesystem.h"

namespace lsmcol {

/// Operation classes a FaultRule can target.
enum class FaultOp : uint8_t {
  kCreate,
  kOpen,
  kRead,
  kWrite,  ///< WriteAt, Append, and (for quota purposes) all data writes
  kSync,
  kRename,
  kRemove,
  kTruncate,
  kList,
  kSyncDir,
  kCreateDirs,
};

/// One injection rule. A call matches when its operation equals `op` and
/// its path contains `path_substring` (empty matches every path; Rename
/// matches on either side). The first `fail_after` matching calls pass
/// through, then up to `max_failures` calls fail (or flip a bit), then
/// the rule goes inert.
struct FaultRule {
  std::string path_substring;
  FaultOp op = FaultOp::kWrite;
  /// errno reported by the injected Status (kIOError), e.g. EIO, ENOSPC.
  int error_code = 0;  // 0 -> EIO
  int fail_after = 0;
  int max_failures = -1;  ///< -1 = unlimited
  /// Instead of failing, let the operation proceed with one bit
  /// inverted. Meaningful for kWrite (corrupt the bytes as stored) and
  /// kRead (store clean bytes, corrupt what the reader sees — latent
  /// media decay).
  bool flip_bit = false;
};

class FaultInjectionFs final : public FileSystem {
 public:
  /// Wraps `base` (nullptr -> DefaultFileSystem()). The wrapper does not
  /// own `base`.
  explicit FaultInjectionFs(FileSystem* base = nullptr);
  ~FaultInjectionFs() override;

  // ---- fault programming ------------------------------------------------

  void AddRule(const FaultRule& rule) LSMCOL_EXCLUDES(mu_);
  void ClearRules() LSMCOL_EXCLUDES(mu_);

  /// Writes beyond `bytes` more cumulative bytes fail with ENOSPC.
  void SetByteQuota(uint64_t bytes) LSMCOL_EXCLUDES(mu_);
  void ClearByteQuota() LSMCOL_EXCLUDES(mu_);

  /// Start (true) or stop (false) tracking unsynced writes for the crash
  /// simulation. Tracking starts empty: files already on disk count as
  /// fully synced until first mutated through this wrapper.
  void SetTrackUnsynced(bool on) LSMCOL_EXCLUDES(mu_);

  /// Simulated crash: rewind every tracked file to its last-synced
  /// content; files never synced since creation are removed. The live
  /// FsFile handles remain open (as after a real crash the *next* process
  /// sees the rewound state; tests reopen the dataset afterwards).
  Status DropUnsyncedWrites() LSMCOL_EXCLUDES(mu_);

  /// Write the crash image of `src_dir` into `dst_dir` (created if
  /// missing): every regular file's last-synced content; files never
  /// synced are omitted. The live directory is not disturbed, so a
  /// running dataset can keep writing while the snapshot is verified.
  Status CopySyncedSnapshot(const std::string& src_dir,
                            const std::string& dst_dir) LSMCOL_EXCLUDES(mu_);

  // ---- observability ----------------------------------------------------

  uint64_t injected_errors() const LSMCOL_EXCLUDES(mu_);
  uint64_t flipped_bits() const LSMCOL_EXCLUDES(mu_);
  uint64_t bytes_written() const LSMCOL_EXCLUDES(mu_);

  // ---- FileSystem -------------------------------------------------------

  Result<std::unique_ptr<FsFile>> Create(const std::string& path) override;
  Result<std::unique_ptr<FsFile>> Open(const std::string& path,
                                       bool writable) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  bool Exists(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  Status CreateDirs(const std::string& dir) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;

 private:
  friend class FaultFsFile;

  /// Durable-content tracking for one path (crash simulation).
  struct FileState {
    /// Content at the last successful Sync(); meaningless until
    /// synced_exists.
    std::string synced_image;
    /// False while the file has never been synced since creation: a
    /// crash removes it entirely.
    bool synced_exists = false;
  };

  struct RuleState {
    FaultRule rule;
    int hits = 0;      ///< matching calls seen
    int failures = 0;  ///< injections performed
  };

  /// Injection decision for one call. OK -> proceed against base.
  Status CheckFault(FaultOp op, const std::string& path)
      LSMCOL_EXCLUDES(mu_);
  /// kWrite flavor: also applies the byte quota and, for flip_bit rules,
  /// corrupts `*data` in place (returns OK in that case).
  Status CheckWrite(const std::string& path, std::string* data)
      LSMCOL_EXCLUDES(mu_);
  /// kRead flip flavor, applied *after* the base read succeeded: flips
  /// one bit of the `size` bytes read into `data` per matching kRead flip
  /// rule. Error-injecting kRead rules are handled by CheckFault before
  /// the read.
  void CheckReadFlip(const std::string& path, char* data, size_t size)
      LSMCOL_EXCLUDES(mu_);

  Status InjectLocked(RuleState* rs, FaultOp op, const std::string& path)
      LSMCOL_REQUIRES(mu_);

  // Crash-simulation bookkeeping, called by FaultFsFile / namespace ops.
  void NoteCreated(const std::string& path) LSMCOL_EXCLUDES(mu_);
  void NoteOpenedWritable(const std::string& path) LSMCOL_EXCLUDES(mu_);
  Status NoteSynced(const std::string& path) LSMCOL_EXCLUDES(mu_);

  /// Read a file's full current content via the base filesystem.
  Status ReadWhole(const std::string& path, std::string* out);

  FileSystem* const base_;

  mutable Mutex mu_{MutexRank::kFaultFs};
  std::vector<RuleState> rules_ LSMCOL_GUARDED_BY(mu_);
  bool quota_enabled_ LSMCOL_GUARDED_BY(mu_) = false;
  uint64_t quota_remaining_ LSMCOL_GUARDED_BY(mu_) = 0;
  bool track_unsynced_ LSMCOL_GUARDED_BY(mu_) = false;
  std::map<std::string, FileState> tracked_ LSMCOL_GUARDED_BY(mu_);
  uint64_t injected_errors_ LSMCOL_GUARDED_BY(mu_) = 0;
  uint64_t flipped_bits_ LSMCOL_GUARDED_BY(mu_) = 0;
  uint64_t bytes_written_ LSMCOL_GUARDED_BY(mu_) = 0;
};

}  // namespace lsmcol

#endif  // LSMCOL_STORAGE_FAULT_INJECTION_FS_H_
