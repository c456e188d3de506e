#include "src/storage/fault_injection_fs.h"

#include <errno.h>

#include <utility>

#include "src/storage/file.h"

namespace lsmcol {
namespace {

constexpr size_t kReadChunk = 64 * 1024;

}  // namespace

/// File wrapper: routes every operation through the parent's injection
/// checks, then the base file. Holds the base FsFile.
class FaultFsFile final : public FsFile {
 public:
  FaultFsFile(FaultInjectionFs* parent, std::unique_ptr<FsFile> base)
      : FsFile(base->path()), parent_(parent), base_(std::move(base)) {}

  Status ReadInto(uint64_t offset, size_t n, char* dst,
                  size_t* got) override {
    *got = 0;
    LSMCOL_RETURN_NOT_OK(parent_->CheckFault(FaultOp::kRead, path_));
    LSMCOL_RETURN_NOT_OK(base_->ReadInto(offset, n, dst, got));
    parent_->CheckReadFlip(path_, dst, *got);
    return Status::OK();
  }

  Status WriteAt(uint64_t offset, Slice data) override {
    std::string payload(data.data(), data.size());
    LSMCOL_RETURN_NOT_OK(parent_->CheckWrite(path_, &payload));
    return base_->WriteAt(offset, Slice(payload));
  }

  Status Append(Slice data, size_t* appended) override {
    std::string payload(data.data(), data.size());
    Status st = parent_->CheckWrite(path_, &payload);
    if (!st.ok()) {
      if (appended != nullptr) *appended = 0;
      return st;
    }
    return base_->Append(Slice(payload), appended);
  }

  Status Sync() override {
    LSMCOL_RETURN_NOT_OK(parent_->CheckFault(FaultOp::kSync, path_));
    LSMCOL_RETURN_NOT_OK(base_->Sync());
    return parent_->NoteSynced(path_);
  }

  Status Truncate(uint64_t size) override {
    LSMCOL_RETURN_NOT_OK(parent_->CheckFault(FaultOp::kTruncate, path_));
    return base_->Truncate(size);
  }

  Result<uint64_t> Size() override { return base_->Size(); }

 private:
  FaultInjectionFs* const parent_;
  std::unique_ptr<FsFile> base_;
};

FaultInjectionFs::FaultInjectionFs(FileSystem* base) : base_(ResolveFs(base)) {}

FaultInjectionFs::~FaultInjectionFs() = default;

void FaultInjectionFs::AddRule(const FaultRule& rule) {
  MutexLock lock(&mu_);
  RuleState rs;
  rs.rule = rule;
  if (rs.rule.error_code == 0) rs.rule.error_code = EIO;
  rules_.push_back(std::move(rs));
}

void FaultInjectionFs::ClearRules() {
  MutexLock lock(&mu_);
  rules_.clear();
}

void FaultInjectionFs::SetByteQuota(uint64_t bytes) {
  MutexLock lock(&mu_);
  quota_enabled_ = true;
  quota_remaining_ = bytes;
}

void FaultInjectionFs::ClearByteQuota() {
  MutexLock lock(&mu_);
  quota_enabled_ = false;
}

void FaultInjectionFs::SetTrackUnsynced(bool on) {
  MutexLock lock(&mu_);
  track_unsynced_ = on;
  if (!on) tracked_.clear();
}

uint64_t FaultInjectionFs::injected_errors() const {
  MutexLock lock(&mu_);
  return injected_errors_;
}

uint64_t FaultInjectionFs::flipped_bits() const {
  MutexLock lock(&mu_);
  return flipped_bits_;
}

uint64_t FaultInjectionFs::bytes_written() const {
  MutexLock lock(&mu_);
  return bytes_written_;
}

Status FaultInjectionFs::InjectLocked(RuleState* rs, FaultOp op,
                                      const std::string& path) {
  (void)op;
  ++injected_errors_;
  ++rs->failures;
  return Status::IOError("injected fault (" +
                         ErrnoMessage(rs->rule.error_code) + ") for " + path);
}

Status FaultInjectionFs::CheckFault(FaultOp op, const std::string& path) {
  MutexLock lock(&mu_);
  for (RuleState& rs : rules_) {
    const FaultRule& r = rs.rule;
    if (r.op != op || r.flip_bit) continue;
    if (!r.path_substring.empty() &&
        path.find(r.path_substring) == std::string::npos) {
      continue;
    }
    ++rs.hits;
    if (rs.hits <= r.fail_after) continue;
    if (r.max_failures >= 0 && rs.failures >= r.max_failures) continue;
    return InjectLocked(&rs, op, path);
  }
  return Status::OK();
}

Status FaultInjectionFs::CheckWrite(const std::string& path,
                                    std::string* data) {
  MutexLock lock(&mu_);
  for (RuleState& rs : rules_) {
    const FaultRule& r = rs.rule;
    if (r.op != FaultOp::kWrite) continue;
    if (!r.path_substring.empty() &&
        path.find(r.path_substring) == std::string::npos) {
      continue;
    }
    ++rs.hits;
    if (rs.hits <= r.fail_after) continue;
    if (r.max_failures >= 0 && rs.failures >= r.max_failures) continue;
    if (r.flip_bit) {
      if (!data->empty()) {
        ++rs.failures;
        ++flipped_bits_;
        // One inverted bit mid-payload: the classic undetectable-without-
        // checksums medium error.
        (*data)[data->size() / 2] ^= 0x01;
      }
      continue;  // the (corrupted) write still goes through
    }
    return InjectLocked(&rs, FaultOp::kWrite, path);
  }
  if (quota_enabled_) {
    if (data->size() > quota_remaining_) {
      ++injected_errors_;
      return Status::IOError("injected fault (" + ErrnoMessage(ENOSPC) +
                             ") for " + path);
    }
    quota_remaining_ -= data->size();
  }
  bytes_written_ += data->size();
  return Status::OK();
}

void FaultInjectionFs::CheckReadFlip(const std::string& path, char* data,
                                     size_t size) {
  MutexLock lock(&mu_);
  for (RuleState& rs : rules_) {
    const FaultRule& r = rs.rule;
    if (r.op != FaultOp::kRead || !r.flip_bit) continue;
    if (!r.path_substring.empty() &&
        path.find(r.path_substring) == std::string::npos) {
      continue;
    }
    ++rs.hits;
    if (rs.hits <= r.fail_after) continue;
    if (r.max_failures >= 0 && rs.failures >= r.max_failures) continue;
    if (size == 0) continue;
    ++rs.failures;
    ++flipped_bits_;
    // The stored bytes stay pristine — only this read observes the
    // decayed medium, exactly the failure mode scrubbing exists to find.
    data[size / 2] ^= 0x01;
  }
}

void FaultInjectionFs::NoteCreated(const std::string& path) {
  MutexLock lock(&mu_);
  if (!track_unsynced_) return;
  // Truncating re-create: whatever image was synced before is gone only
  // if the new file gets synced over it; until then a crash restores the
  // old synced image — unless the path was never synced, in which case a
  // crash removes it. Model by keeping the old state if present.
  if (tracked_.find(path) == tracked_.end()) {
    tracked_[path] = FileState{};
  }
}

void FaultInjectionFs::NoteOpenedWritable(const std::string& path) {
  MutexLock lock(&mu_);
  if (!track_unsynced_) return;
  if (tracked_.find(path) != tracked_.end()) return;
  // First sighting of a pre-existing file: its on-disk content is the
  // durable baseline.
  FileState st;
  std::string content;
  lock.Unlock();
  Status read = ReadWhole(path, &content);
  lock.Lock();
  if (read.ok() && tracked_.find(path) == tracked_.end()) {
    st.synced_image = std::move(content);
    st.synced_exists = true;
    tracked_[path] = std::move(st);
  }
}

Status FaultInjectionFs::NoteSynced(const std::string& path) {
  MutexLock lock(&mu_);
  if (!track_unsynced_) return Status::OK();
  std::string content;
  lock.Unlock();
  Status read = ReadWhole(path, &content);
  lock.Lock();
  if (!read.ok()) return read;
  FileState& st = tracked_[path];
  st.synced_image = std::move(content);
  st.synced_exists = true;
  return Status::OK();
}

Status FaultInjectionFs::ReadWhole(const std::string& path, std::string* out) {
  out->clear();
  LSMCOL_ASSIGN_OR_RETURN(auto file, base_->Open(path, /*writable=*/false));
  uint64_t offset = 0;
  Buffer chunk;
  while (true) {
    LSMCOL_RETURN_NOT_OK(file->ReadAt(offset, kReadChunk, &chunk));
    if (chunk.size() == 0) break;
    out->append(chunk.data(), chunk.size());
    offset += chunk.size();
  }
  return Status::OK();
}

Status FaultInjectionFs::DropUnsyncedWrites() {
  // Snapshot the tracked map, then rebuild files without mu_ (the writes
  // below re-enter the base filesystem only).
  std::map<std::string, FileState> tracked;
  {
    MutexLock lock(&mu_);
    tracked = tracked_;
  }
  for (const auto& [path, st] : tracked) {
    if (!st.synced_exists) {
      if (base_->Exists(path)) {
        LSMCOL_RETURN_NOT_OK(base_->RemoveFile(path));
      }
      continue;
    }
    LSMCOL_ASSIGN_OR_RETURN(auto file, base_->Create(path));
    LSMCOL_RETURN_NOT_OK(file->WriteAt(0, Slice(st.synced_image)));
    LSMCOL_RETURN_NOT_OK(file->Sync());
  }
  return Status::OK();
}

Status FaultInjectionFs::CopySyncedSnapshot(const std::string& src_dir,
                                            const std::string& dst_dir) {
  LSMCOL_RETURN_NOT_OK(base_->CreateDirs(dst_dir));
  LSMCOL_ASSIGN_OR_RETURN(auto names, base_->ListDir(src_dir));
  std::map<std::string, FileState> tracked;
  bool tracking = false;
  {
    MutexLock lock(&mu_);
    tracked = tracked_;
    tracking = track_unsynced_;
  }
  for (const std::string& name : names) {
    const std::string src = src_dir + "/" + name;
    std::string content;
    auto it = tracked.find(src);
    if (it != tracked.end()) {
      if (!it->second.synced_exists) continue;  // crash loses this file
      content = it->second.synced_image;
    } else if (tracking) {
      // Untracked while tracking is on: the file predates tracking (or
      // was written outside this wrapper); its on-disk bytes are durable.
      LSMCOL_RETURN_NOT_OK(ReadWhole(src, &content));
    } else {
      LSMCOL_RETURN_NOT_OK(ReadWhole(src, &content));
    }
    LSMCOL_ASSIGN_OR_RETURN(auto out, base_->Create(dst_dir + "/" + name));
    LSMCOL_RETURN_NOT_OK(out->WriteAt(0, Slice(content)));
    LSMCOL_RETURN_NOT_OK(out->Sync());
  }
  return Status::OK();
}

Result<std::unique_ptr<FsFile>> FaultInjectionFs::Create(
    const std::string& path) {
  LSMCOL_RETURN_NOT_OK(CheckFault(FaultOp::kCreate, path));
  LSMCOL_ASSIGN_OR_RETURN(auto file, base_->Create(path));
  NoteCreated(path);
  return std::unique_ptr<FsFile>(new FaultFsFile(this, std::move(file)));
}

Result<std::unique_ptr<FsFile>> FaultInjectionFs::Open(const std::string& path,
                                                       bool writable) {
  LSMCOL_RETURN_NOT_OK(CheckFault(FaultOp::kOpen, path));
  LSMCOL_ASSIGN_OR_RETURN(auto file, base_->Open(path, writable));
  if (writable) NoteOpenedWritable(path);
  return std::unique_ptr<FsFile>(new FaultFsFile(this, std::move(file)));
}

Status FaultInjectionFs::Rename(const std::string& from,
                                const std::string& to) {
  Status st = CheckFault(FaultOp::kRename, from);
  if (st.ok()) st = CheckFault(FaultOp::kRename, to);
  LSMCOL_RETURN_NOT_OK(st);
  LSMCOL_RETURN_NOT_OK(base_->Rename(from, to));
  MutexLock lock(&mu_);
  if (track_unsynced_) {
    // The rename is made durable by the caller's directory fsync; model
    // the namespace change as immediate (every lsmcol rename is followed
    // by SyncDir) and move the content state with the name.
    auto it = tracked_.find(from);
    if (it != tracked_.end()) {
      tracked_[to] = std::move(it->second);
      tracked_.erase(it);
    } else {
      tracked_.erase(to);
    }
  }
  return Status::OK();
}

Status FaultInjectionFs::RemoveFile(const std::string& path) {
  LSMCOL_RETURN_NOT_OK(CheckFault(FaultOp::kRemove, path));
  LSMCOL_RETURN_NOT_OK(base_->RemoveFile(path));
  MutexLock lock(&mu_);
  tracked_.erase(path);
  return Status::OK();
}

bool FaultInjectionFs::Exists(const std::string& path) {
  return base_->Exists(path);
}

Status FaultInjectionFs::SyncDir(const std::string& dir) {
  LSMCOL_RETURN_NOT_OK(CheckFault(FaultOp::kSyncDir, dir));
  return base_->SyncDir(dir);
}

Status FaultInjectionFs::CreateDirs(const std::string& dir) {
  LSMCOL_RETURN_NOT_OK(CheckFault(FaultOp::kCreateDirs, dir));
  return base_->CreateDirs(dir);
}

Result<std::vector<std::string>> FaultInjectionFs::ListDir(
    const std::string& dir) {
  LSMCOL_RETURN_NOT_OK(CheckFault(FaultOp::kList, dir));
  return base_->ListDir(dir);
}

}  // namespace lsmcol
