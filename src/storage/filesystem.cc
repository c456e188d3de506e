#include "src/storage/filesystem.h"

#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>

#include "src/storage/file.h"

namespace lsmcol {
namespace {

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::IOError(op + " failed for " + path + ": " +
                         ErrnoMessage(errno));
}

/// fd-backed file. Size is tracked in memory so Append never needs a
/// racy lseek; lsmcol files are single-owner, so the cached size cannot
/// go stale underneath us.
class PosixFsFile final : public FsFile {
 public:
  PosixFsFile(std::string path, int fd, uint64_t size)
      : FsFile(std::move(path)), fd_(fd), size_(size) {}

  ~PosixFsFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status ReadInto(uint64_t offset, size_t n, char* dst,
                  size_t* got) override {
    *got = 0;
    while (*got < n) {
      ssize_t r = ::pread(fd_, dst + *got, n - *got,
                          static_cast<off_t>(offset + *got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pread", path_);
      }
      if (r == 0) break;  // end of file
      *got += static_cast<size_t>(r);
    }
    return Status::OK();
  }

  Status WriteAt(uint64_t offset, Slice data) override {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::pwrite(fd_, data.data() + off, data.size() - off,
                           static_cast<off_t>(offset + off));
      if (n < 0) {
        if (errno == EINTR) continue;
        size_ = std::max<uint64_t>(size_, offset + off);
        return ErrnoStatus("pwrite", path_);
      }
      off += static_cast<size_t>(n);
    }
    size_ = std::max<uint64_t>(size_, offset + data.size());
    return Status::OK();
  }

  Status Append(Slice data, size_t* appended) override {
    const uint64_t start = size_;
    Status st = WriteAt(start, data);
    if (appended != nullptr) {
      *appended = static_cast<size_t>(size_ - start);
    }
    return st;
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return ErrnoStatus("ftruncate", path_);
    }
    size_ = size;
    return Status::OK();
  }

  Result<uint64_t> Size() override { return size_; }

 private:
  int fd_;
  uint64_t size_;
};

class PosixFileSystem final : public FileSystem {
 public:
  Result<std::unique_ptr<FsFile>> Create(const std::string& path) override {
    int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
    if (fd < 0) return ErrnoStatus("open(create)", path);
    return std::unique_ptr<FsFile>(new PosixFsFile(path, fd, 0));
  }

  Result<std::unique_ptr<FsFile>> Open(const std::string& path,
                                       bool writable) override {
    int fd = ::open(path.c_str(), writable ? O_RDWR : O_RDONLY);
    if (fd < 0) return ErrnoStatus("open", path);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      Status err = ErrnoStatus("fstat", path);
      ::close(fd);
      return err;
    }
    return std::unique_ptr<FsFile>(
        new PosixFsFile(path, fd, static_cast<uint64_t>(st.st_size)));
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename", from + " -> " + to);
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return ErrnoStatus("unlink", path);
    return Status::OK();
  }

  bool Exists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Status SyncDir(const std::string& dir) override {
    int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0) return ErrnoStatus("open(dir)", dir);
    Status st;
    if (::fsync(fd) != 0) {
      if (errno == EINVAL || errno == EACCES || errno == ENOTSUP) {
        // Some filesystems (and O_RDONLY directory handles on a few)
        // reject directory fsync outright rather than failing to persist
        // anything. Treat "not supported here" as success — failing would
        // make every rename/create path error out spuriously on such
        // filesystems — but warn once so reduced durability is not silent.
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true)) {
          std::fprintf(stderr,
                       "lsmcol: warning: fsync(%s) rejected (%s); directory "
                       "durability not guaranteed on this filesystem\n",
                       dir.c_str(), ErrnoMessage(errno).c_str());
        }
      } else {
        st = ErrnoStatus("fsync(dir)", dir);
      }
    }
    ::close(fd);
    return st;
  }

  Status CreateDirs(const std::string& dir) override {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::IOError("cannot create directory " + dir + ": " +
                             ec.message());
    }
    return Status::OK();
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec) {
      return Status::IOError("cannot list " + dir + ": " + ec.message());
    }
    std::vector<std::string> names;
    for (const auto& entry : it) {
      if (!entry.is_regular_file(ec)) continue;
      names.push_back(entry.path().filename().string());
    }
    return names;
  }
};

}  // namespace

FileSystem* DefaultFileSystem() {
  static PosixFileSystem* fs = new PosixFileSystem();
  return fs;
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace lsmcol
