#include "src/storage/file.h"

#include <errno.h>
#include <stdio.h>
#include <string.h>

#include <atomic>
#include <vector>

namespace lsmcol {
namespace {

std::atomic<uint64_t> g_next_file_id{1};

// "PGCK" little-endian: marks a page as carrying a trailer at all, so a
// page of a trailer-free file misread here reports as a format mismatch
// rather than random corruption.
constexpr uint32_t kPageTrailerMagic = 0x4B434750u;

void PutFixed32(char* dst, uint32_t v) {
  dst[0] = static_cast<char>(v & 0xff);
  dst[1] = static_cast<char>((v >> 8) & 0xff);
  dst[2] = static_cast<char>((v >> 16) & 0xff);
  dst[3] = static_cast<char>((v >> 24) & 0xff);
}

uint32_t GetFixed32(const char* src) {
  return static_cast<uint32_t>(static_cast<uint8_t>(src[0])) |
         (static_cast<uint32_t>(static_cast<uint8_t>(src[1])) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(src[2])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(src[3])) << 24);
}

/// Checksum of one page: FNV-1a over the zero-padded payload, continued
/// over the little-endian page number (covers misdirected I/O).
uint32_t PageChecksum(const char* payload, size_t n, uint64_t page_no) {
  uint32_t h = Fnv1a32(Slice(payload, n));
  char num[8];
  for (int i = 0; i < 8; ++i) {
    num[i] = static_cast<char>((page_no >> (8 * i)) & 0xff);
  }
  return Fnv1a32(Slice(num, sizeof(num)), h);
}

}  // namespace

std::string ErrnoMessage(int err) {
  char buf[256];
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  // GNU strerror_r may return a static string instead of filling buf.
  return std::string(strerror_r(err, buf, sizeof(buf)));
#else
  if (strerror_r(err, buf, sizeof(buf)) != 0) {
    std::snprintf(buf, sizeof(buf), "errno %d", err);
  }
  return std::string(buf);
#endif
}

uint32_t Fnv1a32(Slice data, uint32_t seed) {
  uint32_t h = seed;
  for (size_t i = 0; i < data.size(); ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 16777619u;
  }
  return h;
}

PageFile::PageFile(std::string path, std::unique_ptr<FsFile> file,
                   size_t page_size, uint64_t page_count)
    : path_(std::move(path)),
      file_(std::move(file)),
      page_size_(page_size),
      page_count_(page_count),
      file_id_(g_next_file_id.fetch_add(1)) {}

PageFile::~PageFile() = default;

Result<std::unique_ptr<PageFile>> PageFile::Create(const std::string& path,
                                                   size_t page_size,
                                                   FileSystem* fs) {
  LSMCOL_ASSIGN_OR_RETURN(auto file, ResolveFs(fs)->Create(path));
  return std::unique_ptr<PageFile>(
      new PageFile(path, std::move(file), page_size, 0));
}

Result<std::unique_ptr<PageFile>> PageFile::Open(const std::string& path,
                                                 size_t page_size,
                                                 FileSystem* fs) {
  LSMCOL_ASSIGN_OR_RETURN(auto file,
                          ResolveFs(fs)->Open(path, /*writable=*/false));
  LSMCOL_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  const size_t physical = page_size + kPageTrailerBytes;
  if (size % physical != 0) {
    return Status::Corruption("file size not a multiple of page size: " +
                              path);
  }
  uint64_t pages = size / physical;
  return std::unique_ptr<PageFile>(
      new PageFile(path, std::move(file), page_size, pages));
}

Status PageFile::WritePage(uint64_t page_no, Slice payload) {
  if (payload.size() > page_size_) {
    return Status::InvalidArgument("page payload exceeds page size");
  }
  const size_t physical = physical_page_size();
  std::vector<char> buf(physical, 0);
  ::memcpy(buf.data(), payload.data(), payload.size());
  PutFixed32(buf.data() + page_size_,
             PageChecksum(buf.data(), page_size_, page_no));
  PutFixed32(buf.data() + page_size_ + 4, kPageTrailerMagic);
  LSMCOL_RETURN_NOT_OK(
      file_->WriteAt(page_no * physical, Slice(buf.data(), physical)));
  if (page_no >= page_count_) page_count_ = page_no + 1;
  return Status::OK();
}

Status PageFile::ReadPage(uint64_t page_no, Buffer* out) const {
  if (page_no >= page_count_) {
    return Status::OutOfRange("page " + std::to_string(page_no) +
                              " out of range in " + path_);
  }
  const size_t physical = physical_page_size();
  LSMCOL_RETURN_NOT_OK(file_->ReadAt(page_no * physical, physical, out));
  if (out->size() != physical) {
    return Status::IOError("short page read in " + path_ + " page " +
                           std::to_string(page_no));
  }
  const char* trailer = out->data() + page_size_;
  const uint32_t want = GetFixed32(trailer);
  const uint32_t magic = GetFixed32(trailer + 4);
  if (magic != kPageTrailerMagic ||
      PageChecksum(out->data(), page_size_, page_no) != want) {
    return Status::ChecksumMismatch("page checksum mismatch in " + path_ +
                                    " page " + std::to_string(page_no));
  }
  out->resize(page_size_);
  return Status::OK();
}

Status PageFile::Sync() { return file_->Sync(); }

Status RemoveFileIfExists(const std::string& path, FileSystem* fs) {
  fs = ResolveFs(fs);
  if (!fs->Exists(path)) return Status::OK();
  Status st = fs->RemoveFile(path);
  // Lost the race with another remover: the file is gone either way.
  if (!st.ok() && !fs->Exists(path)) return Status::OK();
  return st;
}

bool FileExists(const std::string& path, FileSystem* fs) {
  return ResolveFs(fs)->Exists(path);
}

Status SyncDir(const std::string& dir, FileSystem* fs) {
  return ResolveFs(fs)->SyncDir(dir);
}

Status RenameFile(const std::string& from, const std::string& to,
                  FileSystem* fs) {
  fs = ResolveFs(fs);
  LSMCOL_RETURN_NOT_OK(fs->Rename(from, to));
  return fs->SyncDir(ParentDir(to));
}

Status CreateDirDurable(const std::string& dir, FileSystem* fs) {
  fs = ResolveFs(fs);
  // Existing path: CreateDirs is a no-op for a directory and errors when
  // the path names a file, preserving the "exists but is not a
  // directory" diagnostic.
  if (fs->Exists(dir)) return fs->CreateDirs(dir);
  // Record every missing ancestor: each created level's dirent must be
  // fsynced in its parent, or a crash can drop the whole subtree.
  std::vector<std::string> created;
  for (std::string cur = dir; !fs->Exists(cur);) {
    created.push_back(cur);
    std::string parent = ParentDir(cur);
    if (parent == cur || parent == "." || parent == "/") break;
    cur = std::move(parent);
  }
  LSMCOL_RETURN_NOT_OK(fs->CreateDirs(dir));
  for (auto it = created.rbegin(); it != created.rend(); ++it) {
    LSMCOL_RETURN_NOT_OK(SyncDir(ParentDir(*it), fs));
  }
  return Status::OK();
}

}  // namespace lsmcol
