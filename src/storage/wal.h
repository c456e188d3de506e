// WriteAheadLog: per-dataset durability for the in-memory LSM components.
//
// Every Insert/Delete appends one checksummed, length-prefixed record to
// an append-only segment file (`<name>_<seq>.wal`, see docs/FORMAT.md#wal)
// *before* it is applied to the memtable, and is acknowledged to the
// caller only once the record is fsync-durable. Recovery replays the
// surviving segments into the memtable after manifest recovery, so a
// crash loses nothing that was ever acknowledged — the gap the
// manifest-only durability story left open (active and sealed memtables
// vanished on crash).
//
// Group commit: appends land in an in-memory batch under the log mutex;
// Sync(lsn) elects the first waiter as *leader*, which writes the whole
// batch and issues a single fsync while followers wait on the
// durable-LSN condvar. Batches form without any linger: appends keep
// landing while a leader's fsync is in flight, and the next leader
// covers them all. One fsync thus covers every concurrent writer — the
// dominant single-core concurrency win the fig13 data shows. With
// `group_commit = false` each Sync covers only its own LSN
// (sync-per-write, the degenerate case used as the ablation baseline).
//
// Segment lifecycle: the active segment always corresponds to the active
// memtable — Dataset rotates the log (seal + fsync + new segment) exactly
// when it seals the memtable, and deletes segments only once the covering
// flush's component is manifest-durable (the manifest records `wal_floor`,
// the lowest segment that may still hold unflushed data). A crash between
// the manifest rewrite and the segment unlink merely leaves a stale
// segment whose replay is idempotent (it re-inserts rows the newest
// component already holds).
//
// Torn tails: a crash mid-append leaves a trailing partial record. Replay
// stops at the first short or checksum-failing frame of the *newest*
// segment and truncates the file there; a bad frame in any older segment
// is real corruption and fails recovery.

#ifndef LSMCOL_STORAGE_WAL_H_
#define LSMCOL_STORAGE_WAL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/storage/filesystem.h"

namespace lsmcol {

/// Per-dataset write-ahead-log knob (DatasetOptions::wal). Disabled by
/// default: the historical contract (Flush() is the durability point)
/// stays free of per-write fsyncs; enabling buys crash durability for
/// every acknowledged write.
struct WalOptions {
  /// Log every Insert/Delete and replay the log at Dataset::Open. When
  /// off, group_commit is ignored.
  bool enabled = false;
  /// Amortize fsyncs across concurrent writers (leader/follower group
  /// commit). false = sync-per-write: every acknowledged write pays its
  /// own fsync (the degenerate case; the WAL ablation's baseline).
  bool group_commit = true;
};

/// WAL observability, folded into DatasetStats by Dataset::stats().
struct WalStats {
  uint64_t appends = 0;        ///< records appended
  uint64_t syncs = 0;          ///< physical fsyncs issued
  uint64_t bytes = 0;          ///< record bytes written (framing included)
  uint64_t group_entries_max = 0;  ///< largest single-fsync group
  uint64_t rotations = 0;      ///< segments sealed
  uint64_t io_retries = 0;     ///< transient write errors retried
  uint64_t retry_backoff_micros = 0;  ///< total backoff slept
};

/// One record decoded during replay. `row` points into the replay buffer
/// and is only valid inside the callback.
struct WalReplayEntry {
  uint64_t lsn = 0;
  bool anti_matter = false;  ///< true for Delete records
  int64_t key = 0;
  Slice row;                 ///< encoded row; empty for anti-matter
};

/// Result of ReplayWalSegments: where the log ended, so the reopened
/// WriteAheadLog continues the LSN sequence and segment numbering.
struct WalReplayResult {
  uint64_t records = 0;           ///< records replayed
  uint64_t next_lsn = 1;          ///< first unused LSN
  uint64_t next_segment_seq = 1;  ///< first unused segment sequence
  uint64_t truncated_bytes = 0;   ///< torn tail removed from the newest segment
};

/// Canonical segment path: `<dir>/<name>_<seq>.wal`.
std::string WalSegmentPath(const std::string& dir, const std::string& name,
                           uint64_t seq);

/// Replay every live segment (sequence >= `floor`) of `<dir>/<name>` in
/// sequence order, invoking `apply` per record in LSN order. Segments
/// below `floor` are crash leftovers (their data is manifest-durable):
/// replay skips them, and Dataset::Open's stale-file sweep deletes them.
/// The newest segment is torn-tail tolerant: replay stops at the first
/// bad frame and truncates the file there; a bad frame in an older
/// segment returns Corruption. `apply` returning non-OK aborts.
Result<WalReplayResult> ReplayWalSegments(
    const std::string& dir, const std::string& name, uint64_t floor,
    const std::function<Status(const WalReplayEntry&)>& apply,
    FileSystem* fs = nullptr);

/// The append/commit side. Thread-safe: any number of concurrent
/// Append+Sync callers; Rotate and DeleteSegmentsBelow are serialized by
/// the caller (Dataset holds its own mutex around the seal lifecycle).
class WriteAheadLog {
 public:
  /// Create the segment `next_segment_seq` and return a log whose next
  /// append gets `next_lsn`. The fresh segment's header is written,
  /// fsynced, and its dirent made durable before returning.
  ///
  /// `retry` is the transient-error policy for segment writes (a Dataset
  /// passes its io_retry): a failed write() is retried, resuming at the
  /// exact byte where it stopped, with capped exponential backoff before
  /// the log fails closed. fsync failures are never retried — after a
  /// failed fsync the kernel may have dropped the dirty pages, so the
  /// only safe answer is fail-closed.
  static Result<std::unique_ptr<WriteAheadLog>> Open(
      const std::string& dir, const std::string& name,
      const WalOptions& options, const IoRetryOptions& retry,
      uint64_t next_segment_seq, uint64_t next_lsn, FileSystem* fs = nullptr);

  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Append one record to the pending batch (no I/O) and return its LSN.
  /// The record is durable — and the write may be acknowledged — only
  /// once Sync() has covered the returned LSN. Fails once a previous sync
  /// hit an I/O error (the log is fail-closed; see Dataset's handling).
  Result<uint64_t> Append(bool anti_matter, int64_t key, Slice row)
      LSMCOL_EXCLUDES(mu_);

  /// Block until every record up to `lsn` is fsync-durable. Implements
  /// group commit: the first waiter leads (writes the pending batch,
  /// fsyncs once), the rest ride along on its fsync.
  Status Sync(uint64_t lsn) LSMCOL_EXCLUDES(mu_);

  /// Seal the active segment (write out pending records, fsync, close)
  /// and start segment `sequence()+1`. Returns the sealed segment's
  /// sequence. Called by Dataset at memtable seal, under the dataset
  /// mutex; waits out any in-flight leader sync first.
  Result<uint64_t> Rotate() LSMCOL_EXCLUDES(mu_);

  /// Unlink every sealed segment with sequence < `floor`. Called after
  /// the covering flush's manifest rewrite succeeded. Takes no lock: it
  /// touches only the immutable dir/name and the filesystem (sealed
  /// segments are never written again), so it can run while appends and
  /// syncs proceed.
  Status DeleteSegmentsBelow(uint64_t floor);

  /// Highest LSN acknowledged durable so far.
  uint64_t durable_lsn() const LSMCOL_EXCLUDES(mu_);
  /// The sticky failed-closed error, or OK. While non-OK the log rejects
  /// appends and syncs ("wedged") until the next Rotate() recovers it —
  /// surfaced through Store::Health() so operators see the wedge.
  Status io_status() const LSMCOL_EXCLUDES(mu_);
  WalStats stats() const LSMCOL_EXCLUDES(mu_);

 private:
  /// Dataset::mu_ declares ACQUIRED_BEFORE(wal_->mu_) — the one cross-
  /// subsystem lock-order edge — which needs to name this private mutex.
  friend class Dataset;

  WriteAheadLog(std::string dir, std::string name, const WalOptions& options,
                const IoRetryOptions& retry, FileSystem* fs);

  /// Open `active_segment_`'s file and write its header (not fsynced).
  Status CreateActiveSegmentLocked() LSMCOL_REQUIRES(mu_);
  /// Leader body: append `batch` to `file` then fsync it. Transient
  /// write errors are retried per retry_, resuming at the byte
  /// where the failed write stopped; fsync is never retried. Touches no
  /// shared state beyond const options — callers snapshot the file under
  /// mu_ and may (leader) or may not (rotation) release it around the
  /// I/O; retry counts are returned for the caller to fold into stats_
  /// under mu_.
  Status WriteAndSync(FsFile* file, const std::string& batch,
                      uint64_t* retries, uint64_t* backoff_micros);

  const std::string dir_;
  const std::string name_;
  const WalOptions options_;
  const IoRetryOptions retry_;
  FileSystem* const fs_;

  mutable Mutex mu_{MutexRank::kWal};
  /// Wakes followers when durable_lsn_ advances or the leader role
  /// frees.
  CondVar cv_;

  std::unique_ptr<FsFile> file_ LSMCOL_GUARDED_BY(mu_);
  uint64_t active_segment_ LSMCOL_GUARDED_BY(mu_) = 1;
  /// One past the highest LSN in pending_ or durable.
  uint64_t next_lsn_ LSMCOL_GUARDED_BY(mu_) = 1;
  uint64_t durable_lsn_ LSMCOL_GUARDED_BY(mu_) = 0;
  /// Framed records awaiting write+fsync.
  std::string pending_ LSMCOL_GUARDED_BY(mu_);
  /// (lsn, end offset in pending_) per pending frame, append order.
  std::deque<std::pair<uint64_t, size_t>> pending_frames_
      LSMCOL_GUARDED_BY(mu_);
  bool sync_in_flight_ LSMCOL_GUARDED_BY(mu_) = false;
  /// Bytes of the active segment known fsync-durable (header + every
  /// successfully synced batch). A failed batch leaves the file with an
  /// unacknowledged — possibly torn — tail beyond this offset; rotation
  /// truncates back to it when it recovers a failed-closed log.
  uint64_t synced_bytes_ LSMCOL_GUARDED_BY(mu_) = 0;
  /// First I/O error; the log rejects appends/syncs once set (fail
  /// closed: an un-durable WAL must not acknowledge writes). Cleared by
  /// the next Rotate(), which seals a clean truncated segment and opens
  /// a fresh one — the recovery point Dataset::Flush drives.
  Status io_status_ LSMCOL_GUARDED_BY(mu_);
  WalStats stats_ LSMCOL_GUARDED_BY(mu_);
};

}  // namespace lsmcol

#endif  // LSMCOL_STORAGE_WAL_H_
