// PageFile: fixed-size-page file I/O over the FileSystem abstraction.
// One PageFile backs one LSM on-disk component. All reads normally go
// through the BufferCache so that I/O is counted and cached.
//
// Page trailer (docs/FORMAT.md#page-trailer): every physical page carries
// an 8-byte trailer — the fixed32 PageChecksum of the zero-padded payload
// (a 4-lane 64-bit word hash seeded with the page number), then a fixed32
// trailer magic. The trailer is *added* to the page: a physical page is
// page_size() + kPageTrailerBytes bytes, so page_size() keeps meaning
// "payload bytes per page" and none of the chunking arithmetic above this
// layer changes. ReadPage and ReadPages verify the trailer of every page
// they read from the file and return Status::ChecksumMismatch naming the
// file and page; seeding the checksum with the page number also catches
// misdirected reads and writes.

#ifndef LSMCOL_STORAGE_FILE_H_
#define LSMCOL_STORAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/buffer.h"
#include "src/common/status.h"
#include "src/storage/filesystem.h"

namespace lsmcol {

/// Default on-disk page size (the paper's evaluation setting, §6).
inline constexpr size_t kDefaultPageSize = 128 * 1024;

/// Bytes of per-page trailer: fixed32 PageChecksum + fixed32 trailer magic.
inline constexpr size_t kPageTrailerBytes = 8;

/// A file of fixed-size pages. Move-only; closes on destruction.
class PageFile {
 public:
  ~PageFile();
  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Create (truncate) a file for writing. `page_size` is the payload
  /// bytes per page; each physical page carries kPageTrailerBytes of
  /// verification trailer on top.
  static Result<std::unique_ptr<PageFile>> Create(const std::string& path,
                                                  size_t page_size,
                                                  FileSystem* fs = nullptr);
  /// Open an existing file for reading.
  static Result<std::unique_ptr<PageFile>> Open(const std::string& path,
                                                size_t page_size,
                                                FileSystem* fs = nullptr);

  /// Write one page. `payload` must be <= page_size; it is zero-padded
  /// and trailed with its checksum. Pages may be written in any order
  /// but the file grows as needed.
  Status WritePage(uint64_t page_no, Slice payload);

  /// Read one full page payload into out (resized to page_size). The
  /// trailer is verified first: a mismatch returns Status::ChecksumMismatch
  /// naming this file and page.
  Status ReadPage(uint64_t page_no, Buffer* out) const;

  /// Read pages [first_page, first_page + count) with one read straight
  /// into `dst`, which must hold count * physical_page_size() bytes.
  /// Every page's trailer is verified in place (a mismatch returns
  /// Status::ChecksumMismatch naming this file and the first bad page),
  /// then the payloads are compacted: on success dst[0, count *
  /// page_size()) holds them back to back, and the bytes after are
  /// unspecified. On a mismatch the bad page is left as read, at
  /// dst + i * physical_page_size().
  Status ReadPages(uint64_t first_page, uint64_t count, char* dst) const;

  Status Sync();

  /// Payload bytes per page (what callers chunk by).
  size_t page_size() const { return page_size_; }
  /// Bytes per page on disk (payload + trailer).
  size_t physical_page_size() const { return page_size_ + kPageTrailerBytes; }
  uint64_t page_count() const { return page_count_; }
  const std::string& path() const { return path_; }

  /// Identifier unique within the process (buffer-cache key component).
  uint64_t file_id() const { return file_id_; }

  /// Total bytes on disk.
  uint64_t size_bytes() const { return page_count_ * physical_page_size(); }

 private:
  PageFile(std::string path, std::unique_ptr<FsFile> file, size_t page_size,
           uint64_t page_count);

  std::string path_;
  std::unique_ptr<FsFile> file_;
  size_t page_size_;
  uint64_t page_count_;
  uint64_t file_id_;
};

/// Thread-safe strerror: the message for `err` (usually errno) without
/// the shared static buffer strerror(3) hands out.
std::string ErrnoMessage(int err);

/// The page-trailer checksum of `payload` stored as page `page_no`:
/// XXH64 over the payload seeded with the page number (four independent
/// 64-bit lanes over little-endian 8-byte words), folded to 32 bits as
/// low ^ high. docs/FORMAT.md#page-trailer spells it out.
uint32_t PageChecksum(Slice payload, uint64_t page_no);

/// FNV-1a 32-bit over `data`, optionally continuing a running hash. The
/// checksum of the small records: WAL headers and frames, manifests and
/// the backup manifest. Pages use PageChecksum.
uint32_t Fnv1a32(Slice data, uint32_t seed = 2166136261u);

/// Delete a file (ignores non-existence).
Status RemoveFileIfExists(const std::string& path, FileSystem* fs = nullptr);

/// True when `path` names an existing file or directory.
bool FileExists(const std::string& path, FileSystem* fs = nullptr);

/// Atomically replace `to` with `from` (rename(2)), then fsync the
/// containing directory so the rename itself is durable. This is the
/// installation step of crash-safe component and manifest writes: readers
/// only ever observe the old or the new file, never a partial one.
Status RenameFile(const std::string& from, const std::string& to,
                  FileSystem* fs = nullptr);

/// Write a small durable file (a dataset manifest, a backup catalog)
/// atomically: a fixed32 `magic`, a `version` byte, `body`, then a
/// fixed32 Fnv1a32 over all of them, written to a temp file that is
/// fsynced and renamed over `path` (RenameFile). A failed write removes
/// the temp file.
Status WriteFramedFile(const std::string& path, uint32_t magic,
                       uint8_t version, Slice body, FileSystem* fs = nullptr);

/// Read a file WriteFramedFile wrote and return its body. Corruption,
/// naming `what` and `path`, when the file is too short, the checksum
/// does not match, or the magic or version differ: only `version` is
/// readable.
Result<std::string> ReadFramedFile(const std::string& path, uint32_t magic,
                                   uint8_t version, const std::string& what,
                                   FileSystem* fs = nullptr);

/// fsync a directory (durability of renames/creates within it).
Status SyncDir(const std::string& dir, FileSystem* fs = nullptr);

/// Create `dir` (and parents) if missing and fsync its parent so the new
/// dirent survives a crash. No-op when `dir` already exists.
Status CreateDirDurable(const std::string& dir, FileSystem* fs = nullptr);

}  // namespace lsmcol

#endif  // LSMCOL_STORAGE_FILE_H_
