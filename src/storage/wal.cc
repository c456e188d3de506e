#include "src/storage/wal.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "src/common/buffer.h"
#include "src/common/logging.h"
#include "src/storage/file.h"

namespace lsmcol {
namespace {

// Segment header: magic + version + segment sequence + header checksum.
// "WLSM" on disk (little-endian fixed32 of 0x4D534C57).
constexpr uint32_t kWalMagic = 0x4D534C57u;
constexpr uint8_t kWalVersion = 1;
// Record frame: fixed32 payload length + fixed32 FNV-1a(payload) + payload.
constexpr size_t kFrameHeaderBytes = 8;
// A frame longer than this is treated as garbage, not a real length; it
// bounds the allocation replay would otherwise attempt on a torn length
// field. Generous: rows are page-sized at most.
constexpr uint32_t kMaxRecordBytes = 1u << 30;

constexpr uint8_t kRecordInsert = 1;
constexpr uint8_t kRecordDelete = 2;

std::string EncodeSegmentHeader(uint64_t seq) {
  Buffer header;
  header.AppendFixed32(kWalMagic);
  header.AppendByte(kWalVersion);
  header.AppendVarint64(seq);
  header.AppendFixed32(Fnv1a32(header.slice()));
  return std::string(header.data(), header.size());
}

// Frame one record into `out`; returns the record's framed size.
size_t EncodeRecord(std::string* out, uint64_t lsn, bool anti_matter,
                    int64_t key, Slice row) {
  Buffer payload;
  payload.AppendVarint64(lsn);
  payload.AppendByte(anti_matter ? kRecordDelete : kRecordInsert);
  payload.AppendSignedVarint64(key);
  payload.Append(row);
  char frame_header[kFrameHeaderBytes];
  EncodeFixed32(frame_header, static_cast<uint32_t>(payload.size()));
  EncodeFixed32(frame_header + 4, Fnv1a32(payload.slice()));
  out->append(frame_header, kFrameHeaderBytes);
  out->append(payload.data(), payload.size());
  return kFrameHeaderBytes + payload.size();
}

/// `<name>_<digits>.wal` files in `dir`, as (sequence, path), ascending.
/// The digits check keeps prefix-sharing dataset names ("a" vs "a_b")
/// apart, mirroring RemoveStaleDatasetFiles.
Result<std::vector<std::pair<uint64_t, std::string>>> ListWalSegments(
    const std::string& dir, const std::string& name, FileSystem* fs) {
  const std::string prefix = name + "_";
  const std::string suffix = ".wal";
  std::vector<std::pair<uint64_t, std::string>> segments;
  LSMCOL_ASSIGN_OR_RETURN(auto names, fs->ListDir(dir));
  for (const std::string& file : names) {
    if (file.size() <= prefix.size() + suffix.size()) continue;
    if (file.compare(0, prefix.size(), prefix) != 0) continue;
    if (file.compare(file.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    const std::string digits = file.substr(
        prefix.size(), file.size() - prefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    segments.emplace_back(std::strtoull(digits.c_str(), nullptr, 10),
                          dir + "/" + file);
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

Result<std::string> ReadWholeFile(const std::string& path, FileSystem* fs) {
  LSMCOL_ASSIGN_OR_RETURN(auto file, fs->Open(path, /*writable=*/false));
  std::string data;
  Buffer chunk;
  uint64_t offset = 0;
  for (;;) {
    LSMCOL_RETURN_NOT_OK(file->ReadAt(offset, 1 << 16, &chunk));
    if (chunk.size() == 0) break;
    data.append(chunk.data(), chunk.size());
    offset += chunk.size();
  }
  return data;
}

/// Physically cut `path` down to `size` bytes and make the cut durable.
Status TruncateFile(const std::string& path, uint64_t size, FileSystem* fs) {
  LSMCOL_ASSIGN_OR_RETURN(auto file, fs->Open(path, /*writable=*/true));
  LSMCOL_RETURN_NOT_OK(file->Truncate(size));
  return file->Sync();
}

/// Parse and validate a segment header. On success advances `reader` past
/// the header. Corruption statuses here mean "torn or garbage header" —
/// the caller decides whether that is tolerable (newest segment) or fatal.
Status CheckSegmentHeader(BufferReader* reader, uint64_t want_seq,
                          const std::string& path) {
  const Slice start = reader->rest();
  uint32_t magic = 0;
  LSMCOL_RETURN_NOT_OK(reader->ReadFixed32(&magic));
  if (magic != kWalMagic) {
    return Status::Corruption("bad WAL magic in " + path);
  }
  uint8_t version = 0;
  LSMCOL_RETURN_NOT_OK(reader->ReadByte(&version));
  if (version != kWalVersion) {
    return Status::Corruption("unsupported WAL version " +
                              std::to_string(version) + " in " + path);
  }
  uint64_t seq = 0;
  LSMCOL_RETURN_NOT_OK(reader->ReadVarint64(&seq));
  const size_t header_bytes = start.size() - reader->rest().size();
  uint32_t want_crc = 0;
  LSMCOL_RETURN_NOT_OK(reader->ReadFixed32(&want_crc));
  if (Fnv1a32(start.SubSlice(0, header_bytes)) != want_crc) {
    return Status::Corruption("WAL header checksum mismatch in " + path);
  }
  if (seq != want_seq) {
    return Status::Corruption("WAL segment " + path + " claims sequence " +
                              std::to_string(seq) + ", file name says " +
                              std::to_string(want_seq));
  }
  return Status::OK();
}

}  // namespace

std::string WalSegmentPath(const std::string& dir, const std::string& name,
                           uint64_t seq) {
  return dir + "/" + name + "_" + std::to_string(seq) + ".wal";
}

Result<WalReplayResult> ReplayWalSegments(
    const std::string& dir, const std::string& name, uint64_t floor,
    const std::function<Status(const WalReplayEntry&)>& apply,
    FileSystem* fs) {
  fs = ResolveFs(fs);
  LSMCOL_ASSIGN_OR_RETURN(auto segments, ListWalSegments(dir, name, fs));
  WalReplayResult result;
  result.next_segment_seq = std::max<uint64_t>(floor, 1);

  // Segments below the floor are fully covered by manifest-durable
  // components (the crash hit between the manifest rewrite and the
  // unlink); the caller's stale-file sweep deletes them.
  size_t live_begin = 0;
  while (live_begin < segments.size() &&
         segments[live_begin].first < floor) {
    ++live_begin;
  }

  uint64_t last_lsn = 0;
  for (size_t i = live_begin; i < segments.size(); ++i) {
    const auto& [seq, path] = segments[i];
    const bool newest = (i + 1 == segments.size());
    LSMCOL_ASSIGN_OR_RETURN(std::string data, ReadWholeFile(path, fs));
    BufferReader reader{Slice(data)};

    Status header_status = CheckSegmentHeader(&reader, seq, path);
    if (!header_status.ok()) {
      if (newest && header_status.IsCorruption()) {
        // A crash during rotation can leave the new segment with a torn
        // header; nothing in it was ever acknowledged (records are only
        // accepted after the header is durable), so drop the file and
        // reuse its sequence.
        LSMCOL_RETURN_NOT_OK(RemoveFileIfExists(path, fs));
        result.truncated_bytes += data.size();
        result.next_segment_seq = seq;
        result.next_lsn = last_lsn + 1;
        return result;
      }
      return header_status;
    }

    while (!reader.empty()) {
      const size_t frame_offset = data.size() - reader.remaining();
      // Decode one frame; any failure below falls through to the torn-
      // tail handling.
      Status frame_status;
      WalReplayEntry entry;
      do {
        uint32_t payload_len = 0, want_crc = 0;
        if (reader.remaining() < kFrameHeaderBytes) {
          frame_status = Status::Corruption("short WAL frame header");
          break;
        }
        frame_status = reader.ReadFixed32(&payload_len);
        if (!frame_status.ok()) break;
        frame_status = reader.ReadFixed32(&want_crc);
        if (!frame_status.ok()) break;
        if (payload_len > kMaxRecordBytes ||
            payload_len > reader.remaining()) {
          frame_status = Status::Corruption("short WAL frame payload");
          break;
        }
        Slice payload;
        frame_status = reader.ReadBytes(payload_len, &payload);
        if (!frame_status.ok()) break;
        if (Fnv1a32(payload) != want_crc) {
          frame_status = Status::Corruption("WAL record checksum mismatch");
          break;
        }
        BufferReader payload_reader(payload);
        frame_status = payload_reader.ReadVarint64(&entry.lsn);
        if (!frame_status.ok()) break;
        uint8_t type = 0;
        frame_status = payload_reader.ReadByte(&type);
        if (!frame_status.ok()) break;
        if (type != kRecordInsert && type != kRecordDelete) {
          frame_status = Status::Corruption("unknown WAL record type " +
                                            std::to_string(type));
          break;
        }
        entry.anti_matter = (type == kRecordDelete);
        frame_status = payload_reader.ReadSignedVarint64(&entry.key);
        if (!frame_status.ok()) break;
        entry.row = payload_reader.rest();
      } while (false);

      if (!frame_status.ok()) {
        if (!newest) {
          return Status::Corruption("corrupt WAL record in non-final "
                                    "segment " +
                                    path + ": " + frame_status.message());
        }
        // Torn tail of the newest segment: everything from this frame on
        // was mid-write at the crash and never acknowledged. Cut it off
        // so the file is clean for future appends/replays.
        result.truncated_bytes += data.size() - frame_offset;
        LSMCOL_RETURN_NOT_OK(TruncateFile(path, frame_offset, fs));
        break;
      }
      if (entry.lsn <= last_lsn) {
        // LSNs are assigned monotonically across segments; a regression
        // is corruption no checksum can catch.
        return Status::Corruption(
            "WAL LSN regression in " + path + ": " +
            std::to_string(entry.lsn) + " after " + std::to_string(last_lsn));
      }
      last_lsn = entry.lsn;
      LSMCOL_RETURN_NOT_OK(apply(entry));
      ++result.records;
    }
    result.next_segment_seq = seq + 1;
  }
  result.next_lsn = last_lsn + 1;
  return result;
}

WriteAheadLog::WriteAheadLog(std::string dir, std::string name,
                             const WalOptions& options,
                             const IoRetryOptions& retry, FileSystem* fs)
    : dir_(std::move(dir)),
      name_(std::move(name)),
      options_(options),
      retry_(retry),
      fs_(fs) {}

WriteAheadLog::~WriteAheadLog() {
  MutexLock lk(&mu_);
  if (file_ != nullptr) {
    // Best-effort: persist whatever was appended but never synced (the
    // writers were not acknowledged, so losing it would be legal — but a
    // clean shutdown should not lose anything at all).
    if (!pending_.empty() && io_status_.ok()) {
      if (file_->Append(Slice(pending_)).ok()) {
        (void)file_->Sync();
      }
    }
    file_.reset();
  }
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& dir, const std::string& name,
    const WalOptions& options, const IoRetryOptions& retry,
    uint64_t next_segment_seq, uint64_t next_lsn, FileSystem* fs) {
  LSMCOL_CHECK(next_segment_seq >= 1);
  LSMCOL_CHECK(next_lsn >= 1);
  std::unique_ptr<WriteAheadLog> wal(
      new WriteAheadLog(dir, name, options, retry, ResolveFs(fs)));
  {
    // No concurrency yet (the log is unpublished), but the guarded
    // fields and CreateActiveSegmentLocked demand the capability.
    MutexLock lk(&wal->mu_);
    wal->active_segment_ = next_segment_seq;
    wal->next_lsn_ = next_lsn;
    wal->durable_lsn_ = next_lsn - 1;
    LSMCOL_RETURN_NOT_OK(wal->CreateActiveSegmentLocked());
    LSMCOL_RETURN_NOT_OK(wal->file_->Sync());
  }
  LSMCOL_RETURN_NOT_OK(SyncDir(dir, wal->fs_));
  return wal;
}

Status WriteAheadLog::CreateActiveSegmentLocked() {
  const std::string path = WalSegmentPath(dir_, name_, active_segment_);
  LSMCOL_ASSIGN_OR_RETURN(auto file, fs_->Create(path));
  const std::string header = EncodeSegmentHeader(active_segment_);
  LSMCOL_RETURN_NOT_OK(file->Append(Slice(header)));
  file_ = std::move(file);
  synced_bytes_ = header.size();
  return Status::OK();
}

Result<uint64_t> WriteAheadLog::Append(bool anti_matter, int64_t key,
                                       Slice row) {
  MutexLock lk(&mu_);
  if (!io_status_.ok()) return io_status_;
  const uint64_t lsn = next_lsn_++;
  EncodeRecord(&pending_, lsn, anti_matter, key, row);
  pending_frames_.emplace_back(lsn, pending_.size());
  ++stats_.appends;
  return lsn;
}

Status WriteAheadLog::Sync(uint64_t lsn) {
  MutexLock lk(&mu_);
  for (;;) {
    if (!io_status_.ok()) return io_status_;
    // Group mode: a concurrent leader's fsync that covered our LSN made
    // us durable for free — the whole point. Sync-per-write mode never
    // takes this exit: its contract is one fsync per acknowledged write
    // (the ablation baseline), so a writer whose bytes a sequentially
    // earlier fsync already covered still pays its own (empty) fsync.
    if (options_.group_commit && durable_lsn_ >= lsn) return Status::OK();
    if (sync_in_flight_) {
      // A leader's fsync is in flight; ride along (it may already cover
      // our LSN) or retry leadership once it finishes.
      cv_.Wait(&mu_);
      continue;
    }

    // We are the leader for this group.
    sync_in_flight_ = true;
    if (options_.group_commit) {
      // One scheduling quantum for writers that are mid-encode to land
      // their append before the cut. Unlike a timed linger this costs
      // nothing when no other writer is runnable (yield returns
      // immediately), yet on a busy single core it is the difference
      // between 2-3 record batches and full-concurrency ones.
      lk.Unlock();
      std::this_thread::yield();
      lk.Lock();
      if (!io_status_.ok()) {
        sync_in_flight_ = false;
        cv_.NotifyAll();
        return io_status_;
      }
    }

    // Cut the batch: everything pending in group mode, only our own
    // prefix in sync-per-write mode (each write pays its own fsync — the
    // degenerate case the ablation baselines against).
    uint64_t target_lsn = durable_lsn_;
    size_t cut = 0;
    size_t frames = 0;
    while (frames < pending_frames_.size() &&
           (options_.group_commit || pending_frames_[frames].first <= lsn)) {
      target_lsn = pending_frames_[frames].first;
      cut = pending_frames_[frames].second;
      ++frames;
    }
    LSMCOL_CHECK(target_lsn >= lsn);  // our own record must be in the cut
    std::string batch = pending_.substr(0, cut);
    pending_.erase(0, cut);
    pending_frames_.erase(pending_frames_.begin(),
                          pending_frames_.begin() + frames);
    for (auto& frame : pending_frames_) frame.second -= cut;

    // Snapshot the write target before dropping mu_: sync_in_flight_
    // blocks rotation, so the file/segment cannot change under the
    // leader, but reading them unlocked would still be a (benign) race.
    FsFile* const file = file_.get();

    lk.Unlock();
    uint64_t retries = 0, backoff_micros = 0;
    Status st = WriteAndSync(file, batch, &retries, &backoff_micros);
    lk.Lock();

    sync_in_flight_ = false;
    stats_.io_retries += retries;
    stats_.retry_backoff_micros += backoff_micros;
    if (st.ok()) {
      durable_lsn_ = target_lsn;
      synced_bytes_ += batch.size();
      ++stats_.syncs;
      stats_.bytes += batch.size();
      stats_.group_entries_max = std::max<uint64_t>(
          stats_.group_entries_max, frames);
    } else {
      // Fail closed: the tail of the log is in an unknown state, so no
      // later append may be acknowledged either.
      io_status_ = st;
    }
    cv_.NotifyAll();
    return st;
  }
}

Status WriteAheadLog::WriteAndSync(FsFile* file, const std::string& batch,
                                   uint64_t* retries,
                                   uint64_t* backoff_micros) {
  // Retry transient write errors, resuming at the exact byte where the
  // failed write stopped — a blind whole-batch retry would duplicate the
  // bytes that did land, corrupting the segment mid-stream.
  size_t written = 0;
  int attempt = 0;
  while (written < batch.size()) {
    size_t appended = 0;
    Status st = file->Append(
        Slice(batch.data() + written, batch.size() - written), &appended);
    written += appended;
    if (st.ok()) break;
    if (!st.IsIOError() || attempt >= retry_.max_retries) return st;
    const uint64_t delay = std::min(
        retry_.max_backoff_micros,
        retry_.initial_backoff_micros << attempt);
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
    ++*retries;
    *backoff_micros += delay;
    ++attempt;
  }
  // fsync is never retried: after a failed fsync the kernel may have
  // dropped the dirty pages, so "retry until it reports OK" can silently
  // lose the very bytes the caller is about to acknowledge. Fail closed.
  return file->Sync();
}

Result<uint64_t> WriteAheadLog::Rotate() {
  MutexLock lk(&mu_);
  while (sync_in_flight_) cv_.Wait(&mu_);
  if (!io_status_.ok()) {
    // Recovery point for a failed-closed log. Every writer whose record
    // sits in pending_ (or in the segment's unsynced tail) was refused,
    // so nothing here was acknowledged: discard the dead batch, cut the
    // segment back to its durable prefix, and seal it clean — replay
    // hard-errors on a torn frame in a non-final segment, so a wedged
    // segment must never be sealed with its tail in place. If the
    // cleanup itself fails the log stays closed and the caller retries
    // at the next rotation.
    pending_.clear();
    pending_frames_.clear();
    if (file_ == nullptr) {
      // The previous rotation died creating the active segment; retry
      // that instead (there is no old segment to clean).
      LSMCOL_RETURN_NOT_OK(CreateActiveSegmentLocked());
      LSMCOL_RETURN_NOT_OK(file_->Sync());
      LSMCOL_RETURN_NOT_OK(SyncDir(dir_, fs_));
    } else {
      LSMCOL_RETURN_NOT_OK(file_->Truncate(synced_bytes_));
      LSMCOL_RETURN_NOT_OK(file_->Sync());
    }
    io_status_ = Status::OK();
    cv_.NotifyAll();
  }
  // Flush the unsynced tail. Safe to do while holding mu_: rotation is a
  // seal point — the caller serializes it against appends.
  if (!pending_.empty()) {
    uint64_t retries = 0, backoff_micros = 0;
    Status st = WriteAndSync(file_.get(), pending_, &retries, &backoff_micros);
    stats_.io_retries += retries;
    stats_.retry_backoff_micros += backoff_micros;
    if (!st.ok()) {
      io_status_ = st;
      cv_.NotifyAll();
      return st;
    }
    durable_lsn_ = next_lsn_ - 1;
    synced_bytes_ += pending_.size();
    ++stats_.syncs;
    stats_.bytes += pending_.size();
    pending_.clear();
    pending_frames_.clear();
    cv_.NotifyAll();
  }
  file_.reset();
  const uint64_t sealed = active_segment_++;
  Status st = CreateActiveSegmentLocked();
  if (st.ok()) st = file_->Sync();
  if (st.ok()) st = SyncDir(dir_, fs_);
  if (!st.ok()) {
    // Fail closed: with no (durable) active segment, later appends could
    // not be made durable either.
    io_status_ = st;
    cv_.NotifyAll();
    return st;
  }
  ++stats_.rotations;
  return sealed;
}

Status WriteAheadLog::DeleteSegmentsBelow(uint64_t floor) {
  LSMCOL_ASSIGN_OR_RETURN(auto segments, ListWalSegments(dir_, name_, fs_));
  for (const auto& [seq, path] : segments) {
    if (seq >= floor) break;
    LSMCOL_RETURN_NOT_OK(RemoveFileIfExists(path, fs_));
  }
  return Status::OK();
}

uint64_t WriteAheadLog::durable_lsn() const {
  MutexLock lk(&mu_);
  return durable_lsn_;
}

Status WriteAheadLog::io_status() const {
  MutexLock lk(&mu_);
  return io_status_;
}

WalStats WriteAheadLog::stats() const {
  MutexLock lk(&mu_);
  return stats_;
}

}  // namespace lsmcol
