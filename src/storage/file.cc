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

// XXH64's primes (the xxHash 64-bit specification).
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t Round(uint64_t acc, uint64_t word) {
  return Rotl(acc + word * kPrime2, 31) * kPrime1;
}

inline uint64_t MergeRound(uint64_t h, uint64_t lane) {
  return (h ^ Round(0, lane)) * kPrime1 + kPrime4;
}

/// XXH64 of [p, p + n) with `seed`.
uint64_t Xxh64(const char* p, size_t n, uint64_t seed) {
  const char* const end = p + n;
  uint64_t h;
  if (n >= 32) {
    // Four independent lanes, one 8-byte word each per 32-byte stripe:
    // the multiplies of different lanes overlap.
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = Round(v1, DecodeFixed64(p));
      v2 = Round(v2, DecodeFixed64(p + 8));
      v3 = Round(v3, DecodeFixed64(p + 16));
      v4 = Round(v4, DecodeFixed64(p + 24));
    }
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kPrime5;
  }
  h += static_cast<uint64_t>(n);
  for (; end - p >= 8; p += 8) {
    h = Rotl(h ^ Round(0, DecodeFixed64(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h = Rotl(h ^ (static_cast<uint64_t>(DecodeFixed32(p)) * kPrime1), 23) *
            kPrime2 +
        kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = Rotl(h ^ (static_cast<uint8_t>(*p) * kPrime5), 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
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

uint32_t PageChecksum(Slice payload, uint64_t page_no) {
  const uint64_t h = Xxh64(payload.data(), payload.size(), page_no);
  return static_cast<uint32_t>(h ^ (h >> 32));
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
  Buffer buf;
  char* page = buf.AppendUninitialized(physical);
  // An empty payload may have a null data(), which memcpy must not see.
  if (!payload.empty()) ::memcpy(page, payload.data(), payload.size());
  ::memset(page + payload.size(), 0, page_size_ - payload.size());
  EncodeFixed32(page + page_size_,
                PageChecksum(Slice(page, page_size_), page_no));
  EncodeFixed32(page + page_size_ + 4, kPageTrailerMagic);
  LSMCOL_RETURN_NOT_OK(file_->WriteAt(page_no * physical, buf.slice()));
  if (page_no >= page_count_) page_count_ = page_no + 1;
  return Status::OK();
}

Status PageFile::ReadPage(uint64_t page_no, Buffer* out) const {
  out->clear();
  Status st = ReadPages(page_no, 1, out->AppendUninitialized(
                                        physical_page_size()));
  out->resize(st.ok() ? page_size_ : 0);
  return st;
}

Status PageFile::ReadPages(uint64_t first_page, uint64_t count,
                           char* dst) const {
  if (count == 0) return Status::OK();
  if (first_page >= page_count_ || count > page_count_ - first_page) {
    return Status::OutOfRange("pages " + std::to_string(first_page) + "+" +
                              std::to_string(count) + " out of range in " +
                              path_);
  }
  const size_t physical = physical_page_size();
  const size_t n = count * physical;
  size_t got = 0;
  LSMCOL_RETURN_NOT_OK(file_->ReadInto(first_page * physical, n, dst, &got));
  if (got != n) {
    return Status::IOError("short page read in " + path_ + " page " +
                           std::to_string(first_page + got / physical));
  }
  for (uint64_t i = 0; i < count; ++i) {
    const char* page = dst + i * physical;
    const char* trailer = page + page_size_;
    if (DecodeFixed32(trailer + 4) != kPageTrailerMagic ||
        PageChecksum(Slice(page, page_size_), first_page + i) !=
            DecodeFixed32(trailer)) {
      return Status::ChecksumMismatch("page checksum mismatch in " + path_ +
                                      " page " +
                                      std::to_string(first_page + i));
    }
    // The first payload is already in place; later ones close the gaps
    // the trailers before them leave.
    if (i > 0) ::memmove(dst + i * page_size_, page, page_size_);
  }
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

Status WriteFramedFile(const std::string& path, uint32_t magic,
                       uint8_t version, Slice body, FileSystem* fs) {
  fs = ResolveFs(fs);
  Buffer out;
  out.AppendFixed32(magic);
  out.AppendByte(version);
  out.Append(body);
  out.AppendFixed32(Fnv1a32(out.slice()));
  const std::string tmp = path + ".tmp";
  // On any failure the temp file must not linger: the stale-file sweep
  // would eventually collect it, but only at the next open — until then
  // it wastes space and, worse, a later successful write would reuse the
  // name of a file in unknown state.
  Status st;
  {
    auto file = fs->Create(tmp);
    if (!file.ok()) return file.status();
    st = (*file)->WriteAt(0, out.slice());
    if (st.ok()) st = (*file)->Sync();
  }
  if (st.ok()) st = RenameFile(tmp, path, fs);
  if (!st.ok()) (void)RemoveFileIfExists(tmp, fs);
  return st;
}

Result<std::string> ReadFramedFile(const std::string& path, uint32_t magic,
                                   uint8_t version, const std::string& what,
                                   FileSystem* fs) {
  LSMCOL_ASSIGN_OR_RETURN(auto file,
                          ResolveFs(fs)->Open(path, /*writable=*/false));
  std::string raw;
  Buffer chunk;
  while (true) {
    LSMCOL_RETURN_NOT_OK(file->ReadAt(raw.size(), 64 * 1024, &chunk));
    if (chunk.size() == 0) break;
    raw.append(chunk.data(), chunk.size());
  }
  constexpr size_t kHeader = 4 + 1;
  if (raw.size() < kHeader + 4) {
    return Status::Corruption(what + " too short: " + path);
  }
  const size_t end = raw.size() - 4;
  if (Fnv1a32(Slice(raw.data(), end)) != DecodeFixed32(raw.data() + end)) {
    return Status::Corruption(what + " checksum mismatch: " + path);
  }
  if (DecodeFixed32(raw.data()) != magic) {
    return Status::Corruption("bad " + what + " magic: " + path);
  }
  const uint8_t stored = static_cast<uint8_t>(raw[4]);
  if (stored != version) {
    return Status::Corruption("unsupported " + what + " version " +
                              std::to_string(stored) + ": " + path);
  }
  return raw.substr(kHeader, end - kHeader);
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
