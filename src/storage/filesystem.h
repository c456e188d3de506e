// FileSystem: the seam every byte of lsmcol I/O flows through.
//
// All storage-layer code (PageFile pages, WAL segments, manifest
// atomic-rewrite, directory fsync/rename/sweep) performs its I/O against
// this interface instead of raw POSIX calls. Production uses the process-
// wide PosixFileSystem singleton (DefaultFileSystem()); tests wrap it in
// a FaultInjectionFs (fault_injection_fs.h) to inject transient errors,
// ENOSPC quotas, bit flips, and simulated crashes that drop unsynced
// writes — the same binary exercises every error path the real kernel
// can produce, deterministically.
//
// The interface is deliberately small: positional reads/writes plus the
// handful of namespace operations the crash-safe install protocol needs
// (rename, directory fsync, sweep listing). Files are byte-oriented —
// page framing, checksums, and record framing live in the layers above.

#ifndef LSMCOL_STORAGE_FILESYSTEM_H_
#define LSMCOL_STORAGE_FILESYSTEM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/status.h"

namespace lsmcol {

/// Capped-exponential-backoff policy for retrying transient I/O errors
/// (see docs/ARCHITECTURE.md "Error handling & fault tolerance").
/// Transient means StatusCode::kIOError — the environment may recover
/// (EIO blips, ENOSPC freed by a merge). Corruption-class errors are
/// never retried. Attempt n (0-based) sleeps
/// min(initial_backoff_micros << n, max_backoff_micros) before retrying.
struct IoRetryOptions {
  /// Retries after the first failure; 0 disables retrying.
  int max_retries = 4;
  uint64_t initial_backoff_micros = 1000;
  uint64_t max_backoff_micros = 256 * 1000;
};

/// \brief One open file. Move-free, closes on destruction; not
/// thread-safe (every lsmcol file has a single owner at a time).
class FsFile {
 public:
  virtual ~FsFile() = default;
  FsFile(const FsFile&) = delete;
  FsFile& operator=(const FsFile&) = delete;

  /// Read up to `n` bytes at `offset` straight into `dst` (which holds at
  /// least `n` bytes); `*got` is the count read, short only at
  /// end-of-file.
  virtual Status ReadInto(uint64_t offset, size_t n, char* dst,
                          size_t* got) = 0;

  /// ReadInto a Buffer, resized to the bytes actually read.
  Status ReadAt(uint64_t offset, size_t n, Buffer* out) {
    out->clear();
    size_t got = 0;
    Status st = ReadInto(offset, n, out->AppendUninitialized(n), &got);
    out->resize(got);
    return st;
  }

  /// Write all of `data` at `offset`, extending the file as needed.
  virtual Status WriteAt(uint64_t offset, Slice data) = 0;

  /// Append all of `data` at the current end of file. On failure,
  /// `*appended` (may be null) reports how many bytes landed before the
  /// error so a retry can resume exactly where the write stopped.
  virtual Status Append(Slice data, size_t* appended = nullptr) = 0;

  /// fsync(2). A failed sync leaves the unsynced data in unknown state —
  /// callers must treat it as lost (fail closed), never retry it.
  virtual Status Sync() = 0;

  virtual Status Truncate(uint64_t size) = 0;

  virtual Result<uint64_t> Size() = 0;

  const std::string& path() const { return path_; }

 protected:
  explicit FsFile(std::string path) : path_(std::move(path)) {}

  std::string path_;
};

/// \brief Filesystem namespace + file factory. Thread-safe: background
/// flush/merge/WAL threads and foreground opens call in concurrently.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Create (truncating any existing file) for read/write.
  virtual Result<std::unique_ptr<FsFile>> Create(const std::string& path) = 0;

  /// Open an existing file; `writable` selects O_RDWR over O_RDONLY.
  virtual Result<std::unique_ptr<FsFile>> Open(const std::string& path,
                                               bool writable) = 0;

  /// rename(2): atomically replace `to` with `from`. Durability of the
  /// new dirent needs a subsequent SyncDir of the parent.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  /// unlink(2); removing a non-existent file is an error here (use
  /// RemoveFileIfExists in file.h for the tolerant flavor).
  virtual Status RemoveFile(const std::string& path) = 0;

  virtual bool Exists(const std::string& path) = 0;

  /// fsync a directory. Filesystems that reject directory fsync outright
  /// report success (with a one-time warning) — see the POSIX impl.
  virtual Status SyncDir(const std::string& dir) = 0;

  /// Create `dir` and missing ancestors (no dirent fsync — callers that
  /// need durability use CreateDirDurable in file.h).
  virtual Status CreateDirs(const std::string& dir) = 0;

  /// Names (not paths) of the regular files in `dir`, unordered.
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir) = 0;
};

/// The process-wide POSIX filesystem.
FileSystem* DefaultFileSystem();

/// `fs` if non-null, else DefaultFileSystem() — the convention every
/// fs-parameterized API in the storage layer follows.
inline FileSystem* ResolveFs(FileSystem* fs) {
  return fs != nullptr ? fs : DefaultFileSystem();
}

/// Directory containing `path`: "." when there is no slash, "/" for
/// root-level paths.
std::string ParentDir(const std::string& path);

}  // namespace lsmcol

#endif  // LSMCOL_STORAGE_FILESYSTEM_H_
