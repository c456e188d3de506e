// Dataset: the primary LSM index of one document collection. Usually
// owned by a Store (src/store/store.h), which names datasets and shares
// one BufferCache across them; standalone use via Dataset::Open works too.
//
// Durability: every dataset keeps a `<dir>/<name>.MANIFEST` recording its
// live components, next component id, identity, and (columnar layouts)
// the latest schema. Dataset::Open recovers from it; flushes and merges
// write new components to `*.tmp`, rename(2) them into place, then
// atomically rewrite the manifest — so a crash at any point leaves a
// consistent, reopenable dataset (see src/storage/manifest.h). Only the
// in-memory components (active memtable + sealed immutables) are
// volatile: call Flush() to persist them. Each rewrite also lists the
// quarantined components, read from the components themselves, so a
// reopen re-applies every quarantine the manifest recorded; Flush()
// rewrites the manifest when a quarantine happened since the last one.
//
// Writes go to the in-memory component (row format; VB for the columnar
// layouts, §4.5). When the memtable budget is exceeded, the component is
// flushed: row layouts write slotted leaves; columnar layouts run the
// tuple compactor (schema inference) and shred records into APAX pages or
// AMAX mega leaves. Flushes trigger the configured compaction policy
// (DatasetOptions::compaction, src/lsm/compaction_policy.h; the default
// reproduces the paper's tiering setup — size ratio 1.2, max 5
// components, §6.3); columnar components merge with the *vertical merge*
// of §4.5.3 (keys first, then one column at a time).
//
// Write path: a full memtable is *rotated* onto an immutable list and
// flushed by a task on the dataset's FlushMergeScheduler (src/lsm/
// scheduler.h); each flush schedules a merge task when the compaction
// policy wants one. That is the only way a flush or merge is triggered.
// With worker threads the tasks run in the background while writers
// continue into a fresh memtable. In the caller-runs form (zero workers —
// the Store's default and a standalone dataset's own scheduler — or a
// stopped pool) the writer that triggered them runs them once it has
// released the lock, before its Insert/Delete/Flush returns; that form
// is deterministic: the same inputs yield the same components. The
// threading model (documented in detail in docs/ARCHITECTURE.md) is:
//
//   * `mu_` guards all mutable dataset state: the active memtable, the
//     immutable-memtable list, the component list, the schema pointer,
//     and counters/stats. Manifest rewrites are
//     serialized by a dedicated writer role; their contents are
//     snapshotted under `mu_` but the fsync-heavy write itself runs with
//     the lock released, like the component builds.
//   * Component/memtable/schema *contents* are never mutated after
//     publication; snapshots share them via shared_ptr (whose refcounts
//     are atomic), so reads run lock-free after the brief GetSnapshot
//     critical section, and include the immutable memtables. A snapshot
//     holds a frozen copy of the active memtable (MemTable::Share, O(1)):
//     the table is persistent, and a writer copies the root and the one
//     leaf it changes when they are shared, never the whole table.
//   * Several sealed memtables may be *built* into components in
//     parallel (one flush task per sealed memtable), but publication is
//     strictly ordered oldest-first, so the component list always agrees
//     with the reconciliation order. Columnar builds detect concurrent
//     schema inference at publish time and rebuild against the new base
//     (rare — only while the schema is still being discovered). At most
//     one merge runs at a time; it captures its inputs by reference and
//     republishes in place, so merges overlap flushes safely.
//   * Writers stall (back-pressure) when immutable memtables or the
//     component count pile up faster than the background work drains
//     them (max_immutable_memtables; the compaction policy's
//     StallComponentLimit). In the caller-runs form a stalled writer
//     runs the queued tasks itself instead of sleeping.
//
// Reads execute against a Snapshot (src/lsm/snapshot.h): an immutable,
// refcounted view pinning the active memtable, the immutable memtables,
// and the component list, reconciling sources by primary key — newest
// component winning, anti-matter annihilating older records (§2.1.1,
// §4.4). The Scan/Lookup/NewLookupBatch members below are convenience
// overloads that take an implicit snapshot of the current state.

#ifndef LSMCOL_LSM_DATASET_H_
#define LSMCOL_LSM_DATASET_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/lsm/compaction_policy.h"
#include "src/lsm/component.h"
#include "src/lsm/memtable.h"
#include "src/lsm/options.h"
#include "src/lsm/scheduler.h"
#include "src/lsm/snapshot.h"
#include "src/storage/manifest.h"
#include "src/storage/wal.h"

namespace lsmcol {

/// Ingestion + flush/merge statistics (not persisted; reset at Open).
struct DatasetStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t flushes = 0;
  uint64_t merges = 0;
  /// Input bytes of *published* merges (failed merges do not count).
  uint64_t merged_bytes_in = 0;
  /// Times a writer stalled on back-pressure.
  uint64_t write_stalls = 0;

  // Amplification accounting (the currency compaction policies trade
  // in; bench_ablation_compaction --json reports these). All byte
  // counters tally *published* components only, so failed builds never
  // skew the ratios.
  uint64_t flush_bytes_out = 0;  ///< component bytes written by flushes
  uint64_t merge_bytes_out = 0;  ///< component bytes written by merges
  /// Output size of the latest full (all-components) merge — the best
  /// known lower bound on the live data size; 0 until one runs.
  uint64_t last_full_merge_bytes = 0;
  /// Gauge (not a counter): current on-disk component bytes, filled by
  /// Dataset::stats() at read time.
  uint64_t on_disk_bytes = 0;

  /// Cumulative write amplification: total component bytes written per
  /// byte a flush first persisted. 1.0 means data was written exactly
  /// once (no merges yet); each compaction policy trades it against the
  /// number of components reads visit. 0 before the first flush.
  double write_amplification() const {
    if (flush_bytes_out == 0) return 0.0;
    return static_cast<double>(flush_bytes_out + merge_bytes_out) /
           static_cast<double>(flush_bytes_out);
  }
  /// Space amplification estimate: on-disk bytes per live-data byte,
  /// using the latest full merge's output as the live-size baseline
  /// (an estimate — stale by whatever was ingested since that merge).
  /// 0 until a full merge establishes a baseline.
  double space_amplification() const {
    if (last_full_merge_bytes == 0) return 0.0;
    return static_cast<double>(on_disk_bytes) /
           static_cast<double>(last_full_merge_bytes);
  }

  // Merge pipeline observability (bench_ablation_merge --json reports
  // these). Row merges fill the record and time counters; runs/adoption
  // are columnar run-level merge concepts.
  uint64_t merge_records_in = 0;      ///< input entries merges scanned
  uint64_t merge_records_out = 0;     ///< surviving entries merges wrote
  uint64_t merge_runs_copied = 0;     ///< survivor-plan runs copied
  uint64_t merge_leaves_adopted = 0;  ///< whole leaves spliced undecoded
  uint64_t merge_micros = 0;          ///< wall time inside merge builds

  // Write-ahead-log observability (zero when DatasetOptions::wal is off).
  uint64_t wal_appends = 0;            ///< records logged
  uint64_t wal_syncs = 0;              ///< physical fsyncs the log issued
  uint64_t wal_bytes = 0;              ///< framed record bytes written
  uint64_t wal_group_entries_max = 0;  ///< largest single-fsync commit group
  uint64_t wal_rotations = 0;          ///< segments sealed at memtable seal
  uint64_t wal_replayed_records = 0;   ///< records recovered at Open

  // I/O fault-tolerance observability (see DatasetOptions::io_retry and
  // Component quarantine semantics in src/lsm/component.h).
  uint64_t io_retries = 0;  ///< transient I/O errors retried (incl. WAL)
  uint64_t io_retry_backoff_micros = 0;  ///< total backoff slept
  uint64_t checksum_failures = 0;  ///< damaged component reads observed
  uint64_t quarantined_components = 0;  ///< components quarantined so far

  // Integrity-scrub observability (see src/lsm/scrubber.h; all zero until
  // a scrub runs against this dataset).
  uint64_t scrub_leaves = 0;        ///< leaves re-read and verified
  uint64_t scrub_bytes = 0;         ///< leaf payload bytes re-read
  uint64_t scrub_damage_found = 0;  ///< scrub probes that surfaced damage
  uint64_t scrub_passes = 0;        ///< full dataset passes completed
  uint64_t scrub_micros = 0;        ///< wall time inside scrub probes
};

/// Everything a consistent hot backup needs from one dataset, captured in
/// a single Dataset::PinForBackup critical section: the pinned snapshot
/// keeps every component file alive (a concurrent merge may unpublish
/// them, but the pinned references defer deletion), and the manifest
/// mirrors exactly that component list. Dropping the pin releases it.
struct DatasetBackupPin {
  std::string name;
  std::string dir;               ///< dataset directory (source of copies)
  Snapshot::Ref snapshot;        ///< pins the component files on disk
  Manifest manifest;             ///< constructed at pin time, not read back
};

/// \brief One document collection stored in a primary LSM index.
class Dataset {
 public:
  /// Create-or-recover: validates `options` (see ValidateDatasetOptions),
  /// creates `options.dir` if missing, then either recovers the dataset
  /// recorded by `<dir>/<name>.MANIFEST` — removing stale `*.tmp` and
  /// unreferenced component files first — or initializes an empty dataset
  /// and writes its first manifest. Recovery fails with InvalidArgument
  /// when `options` contradict the manifest (layout, pk_field,
  /// page_size). `cache` must outlive the dataset and its snapshots.
  static Result<std::unique_ptr<Dataset>> Open(const DatasetOptions& options,
                                               BufferCache* cache);

  /// Runs (caller-runs form) or waits for (worker form) this dataset's
  /// queued and in-flight flushes/merges — they reference the dataset —
  /// then tears down. Sealed memtables queued for flush ARE flushed;
  /// only the active memtable is lost — Flush() first.
  ~Dataset();

  /// Insert or replace (upsert) a record. The record must carry the int64
  /// primary-key field. A full memtable schedules a flush task (plus a
  /// possible back-pressure stall); in the caller-runs form that flush
  /// and the merges it triggers run on this thread before Insert returns,
  /// and their error is returned. Thread-safe; any number of concurrent
  /// writers. Surfaces (and clears) a pending background flush/merge
  /// error by rejecting the write, so pure-ingest callers see failures
  /// promptly and the sealed-memtable backlog stays bounded.
  Status Insert(const Value& record) LSMCOL_EXCLUDES(mu_);
  Status InsertJson(std::string_view json) LSMCOL_EXCLUDES(mu_);

  /// Delete by key (blind; adds anti-matter if needed).
  Status Delete(int64_t key) LSMCOL_EXCLUDES(mu_);

  /// Persist all in-memory state: rotates the active memtable and drains
  /// every sealed memtable to disk on the calling thread (deterministic —
  /// the test/bench entry point). Surfaces any error a background flush
  /// or merge hit earlier. With auto_merge the follow-up merge is a task:
  /// the workers run it (not awaited — WaitForBackgroundWork does), or in
  /// the caller-runs form this call does before returning.
  Status Flush() LSMCOL_EXCLUDES(mu_);

  /// Run the compaction policy until it is satisfied, on the calling
  /// thread.
  Status MaybeMerge() LSMCOL_EXCLUDES(mu_);
  /// Merge every on-disk component into one (flushes first).
  Status MergeAll() LSMCOL_EXCLUDES(mu_);

  /// Block until no background flush or merge for this dataset is queued
  /// or running and no sealed memtable awaits flush (in the caller-runs
  /// form the queued ones run on this thread). Returns (and clears)
  /// the first error background work hit, if any. After it returns OK
  /// and absent concurrent writers, all ingested data is durable except
  /// the active memtable.
  Status WaitForBackgroundWork() LSMCOL_EXCLUDES(mu_);

  /// An immutable, refcounted view of the current state. Later inserts,
  /// flushes, and merges never disturb it; components it pins survive
  /// (on disk and in memory) until the last reference drops. Taking a
  /// snapshot is O(component count) — no data is copied (the memtable
  /// is shared persistently; see MemTable::Share). Thread-safe.
  Snapshot::Ref GetSnapshot() const LSMCOL_EXCLUDES(mu_);

  // Convenience reads over an implicit snapshot of the current state.
  // The returned cursors/batches pin that snapshot, so they stay valid
  // across subsequent writes. See Snapshot for semantics.
  Result<std::unique_ptr<LsmScanCursor>> Scan(const Projection& projection);
  Status Lookup(int64_t key, Value* out);
  Status Lookup(int64_t key, const Projection& projection, Value* out);
  Result<std::unique_ptr<LookupBatch>> NewLookupBatch(
      const Projection& projection);

  // --- Introspection ---
  // Counters/counts are thread-safe. The reference-returning accessors
  // (component(i), schema()) hand out state that a concurrent
  // flush/merge may unpublish — call them only on a quiescent dataset
  // (tests, benches) or read through a Snapshot instead.
  const DatasetOptions& options() const { return options_; }
  LayoutKind layout() const { return options_.layout; }
  /// Live schema (columnar layouts only; nullptr for Open/VB).
  const Schema* schema() const LSMCOL_EXCLUDES(mu_);
  const RowCodec& row_codec() const { return *row_codec_; }
  BufferCache* cache() { return cache_; }
  size_t component_count() const LSMCOL_EXCLUDES(mu_);
  const Component& component(size_t i) const LSMCOL_EXCLUDES(mu_);
  /// Sealed memtables not yet flushed. In the caller-runs form each
  /// write runs its own flush, so this is 0 between calls unless a flush
  /// failed.
  size_t immutable_memtable_count() const LSMCOL_EXCLUDES(mu_);
  uint64_t OnDiskBytes() const LSMCOL_EXCLUDES(mu_);
  DatasetStats stats() const LSMCOL_EXCLUDES(mu_);
  /// Version of the durable state; bumps on every manifest rewrite.
  uint64_t manifest_sequence() const LSMCOL_EXCLUDES(mu_);
  /// Peek at the pending background error without consuming it (Flush/
  /// WaitForBackgroundWork clear it; health monitoring must not).
  Status background_error() const LSMCOL_EXCLUDES(mu_);
  /// Sticky: the first error any background flush/merge/manifest write
  /// ever hit, never cleared by the retry paths that clear
  /// background_error(). Health monitoring's "something went wrong since
  /// open" signal.
  Status last_background_error() const LSMCOL_EXCLUDES(mu_);
  /// The WAL's sticky failed-closed error (OK when the WAL is disabled or
  /// healthy). While non-OK the log rejects writes ("wedged") until a
  /// rotation recovers it — surfaced through Store::Health().
  Status wal_status() const;
  bool wal_enabled() const { return wal_ != nullptr; }
  /// Currently quarantined on-disk components: {component_id, reason}.
  std::vector<std::pair<uint64_t, Status>> QuarantineList() const
      LSMCOL_EXCLUDES(mu_);

  // --- Integrity scrub / backup / repair (see src/lsm/scrubber.h and
  // src/store/backup.h for the drivers) ---

  /// Fold one scrub slice's counters into DatasetStats. When the slice
  /// surfaced damage, the first-damage record is also pushed into the
  /// manifest (best effort) so a restart cannot silently "heal" it.
  void NoteScrub(uint64_t leaves, uint64_t bytes, uint64_t damaged,
                 uint64_t micros, bool pass_complete) LSMCOL_EXCLUDES(mu_);

  /// Pin a consistent backup view (see DatasetBackupPin). Fails if any
  /// pinned component is quarantined (a backup must never capture known
  /// damage). The pin covers components only: Store::CreateBackup
  /// flushes the dataset first.
  Status PinForBackup(DatasetBackupPin* pin) LSMCOL_EXCLUDES(mu_);

  /// Replace every quarantined component's file with a verified copy from
  /// `backup_dir` (a directory written by Store::CreateBackup whose
  /// catalog lists a component with the same id), clear its quarantine,
  /// and resume merges. Components without a matching intact backup copy
  /// stay quarantined and are reported in the returned status; the rest
  /// are still repaired. No-op (OK) when nothing is quarantined.
  Status RepairQuarantined(const std::string& backup_dir)
      LSMCOL_EXCLUDES(mu_);

 private:
  Dataset(const DatasetOptions& options, BufferCache* cache);

  bool columnar() const {
    return options_.layout == LayoutKind::kApax ||
           options_.layout == LayoutKind::kAmax;
  }
  std::string ComponentFilePath(uint64_t id) const;

  /// The locked phase of Open (recovery, first manifest, WAL replay);
  /// an instance method so the capability is this->mu_ throughout.
  Status OpenLocked(const DatasetOptions& validated) LSMCOL_REQUIRES(mu_);

  // --- Write path (all *Locked REQUIRE mu_ held; the flush/merge
  // workers drop it — mu_.Unlock()/Lock(), rebalanced before returning —
  // for the expensive component build and re-take it to publish).
  Status InsertEncoded(int64_t key, Buffer row, bool anti_matter)
      LSMCOL_EXCLUDES(mu_);
  /// Seal the active memtable onto the immutable list (no-op if empty).
  /// With the WAL enabled this also seals the active log segment, so the
  /// sealed memtable and its covering segments retire together; the seal
  /// can fail (it syncs the segment tail), in which case the memtable
  /// stays active.
  Status RotateMemtableLocked() LSMCOL_REQUIRES(mu_);
  /// Enqueue flush tasks (up to one per sealed memtable, so the pool can
  /// build them in parallel).
  void ScheduleFlushLocked() LSMCOL_REQUIRES(mu_);
  /// Enqueue the merge task if the policy wants one and none is pending.
  void ScheduleMergeLocked() LSMCOL_REQUIRES(mu_);
  /// A flush or merge task of this dataset is queued or running.
  bool BackgroundWorkPendingLocked() const LSMCOL_REQUIRES(mu_);
  /// Run this dataset's queued tasks on the calling thread (caller-runs
  /// form; a no-op with live workers). When any ran, returns and clears
  /// the error they recorded.
  Status RunOwnTasks() LSMCOL_EXCLUDES(mu_);
  /// Back-pressure predicate: true when a write may proceed (or must
  /// fail fast — background error / shutdown).
  bool HasWriteRoomLocked(size_t component_stall) const
      LSMCOL_REQUIRES(mu_);
  /// Back-pressure: stall until background work catches up (or fails);
  /// in the caller-runs form, run that work instead of sleeping.
  void WaitForWriteRoomLocked() LSMCOL_REQUIRES(mu_);
  /// Scheduler task bodies.
  void BackgroundFlushTask() LSMCOL_EXCLUDES(mu_);
  void BackgroundMergeTask() LSMCOL_EXCLUDES(mu_);
  /// Index (in immutables_) of the oldest sealed memtable no build has
  /// claimed; -1 when all are claimed or the list is empty.
  int OldestUnclaimedLocked() const LSMCOL_REQUIRES(mu_);
  /// Flush every sealed memtable on the calling thread: claim-and-build
  /// all unclaimed ones, then wait out in-flight background builds.
  /// Stops early on a background error (callers surface and clear
  /// background_error_).
  void DrainImmutablesLocked() LSMCOL_REQUIRES(mu_);
  /// Claim the oldest unclaimed sealed memtable, build its component
  /// (mu_ dropped around the build), wait for publication order, publish.
  /// Every failure is recorded in background_error_ (so concurrent builds
  /// waiting for publication order wake and abandon) as well as returned.
  Status FlushOneImmutableLocked() LSMCOL_REQUIRES(mu_);
  /// The build step every flush and merge shares (runs without mu_):
  /// create component `id`'s `.tmp` file, let `fill` write its leaves and
  /// return the entry count, write the ComponentMeta (with `schema`, which
  /// `fill` may extend), finish, rename into place and open the result.
  /// Transient I/O failures retry the whole sequence, so `fill` must
  /// restart cleanly; on final failure the temp file is unlinked.
  Result<std::shared_ptr<Component>> BuildComponent(
      uint64_t id, const Schema* schema,
      const std::function<Result<uint64_t>(ComponentWriter*)>& fill);
  /// One round of the compaction policy: snapshot the component stack
  /// into CompactionComponentViews and ask PickMergeCount how many of the
  /// newest components to merge next (0 = policy satisfied). The caller
  /// must hold the merge role before acting on the answer.
  size_t PickMergeCountLocked() const LSMCOL_REQUIRES(mu_);
  /// Merge the newest `count` components into one and republish in place
  /// (mu_ dropped around the build). Anti-matter annihilates only when
  /// the merge takes the whole stack.
  Status MergeNewestLocked(size_t count) LSMCOL_REQUIRES(mu_);
  /// Merge the ranges the policy picks until it is satisfied; the caller
  /// holds the merge role. `background` also stops at shutdown or once a
  /// background error is pending. Returns the first merge failure.
  Status MergeUntilSatisfiedLocked(bool background) LSMCOL_REQUIRES(mu_);
  /// One change of the component stack: a flush, merge or repair.
  struct StackEdit {
    /// Adjacent in components_, newest first; empty: `added` goes on top.
    std::vector<std::shared_ptr<Component>> removed;
    std::shared_ptr<Component> added;
    /// The oldest sealed memtable when `added` is its flush, else null.
    std::shared_ptr<const MemTable> flushed;
    /// Published with the edit; null keeps the current schema.
    std::shared_ptr<Schema> schema;
  };
  /// The only stack change after recovery: swap `edit` in under mu_,
  /// record it with WriteCurrentManifestLocked, then retire what it
  /// replaced (via retiring_) and a flush's WAL segments below its floor.
  Status PublishLocked(StackEdit edit) LSMCOL_REQUIRES(mu_);
  /// Rebuild + atomically rewrite the manifest from current state. The
  /// contents are snapshotted under mu_, but the write itself (fsync +
  /// rename + dir fsync) runs with the lock released under a dedicated
  /// writer role (manifest_writing_), so flush/merge publications do not
  /// stall writers on durable I/O; rewrites stay fully serialized. Once
  /// durable, it marks obsolete what retiring_ held at its snapshot.
  Status WriteCurrentManifestLocked() LSMCOL_REQUIRES(mu_);
  /// The manifest of the current in-memory state (dataset identity,
  /// counters, components, their quarantines and schema); the caller
  /// sets its sequence.
  Manifest CurrentManifestLocked() const LSMCOL_REQUIRES(mu_);
  Status RecoverFromManifest(const Manifest& manifest) LSMCOL_REQUIRES(mu_);
  /// Record a background failure in both the consumable and the sticky
  /// error (first error wins in each).
  void RecordBackgroundErrorLocked(const Status& st) LSMCOL_REQUIRES(mu_);
  /// Rewrite the manifest iff it is behind the in-memory state: a
  /// rewrite failed since the last successful one (manifest_dirty_), or
  /// a component was quarantined since (quarantines_persisted_).
  Status WriteManifestIfBehindLocked() LSMCOL_REQUIRES(mu_);
  /// Snapshot acquisition body (GetSnapshot's critical section), callable
  /// from paths that already hold mu_ (PinForBackup).
  Snapshot::Ref GetSnapshotLocked() const LSMCOL_REQUIRES(mu_);

  /// Run `op` (returning Status or Result<T>), retrying transient
  /// IOError-class failures per options_.io_retry with capped exponential
  /// backoff. Corruption/checksum failures are never retried (damage does
  /// not heal; quarantine should not be delayed). Called in unlocked
  /// regions only — the backoff sleeps. Retry counts land in the atomic
  /// tallies below.
  template <typename Op>
  auto RunWithRetry(Op&& op) -> decltype(op()) {
    int attempt = 0;
    for (;;) {
      auto result = op();
      Status st;
      if constexpr (std::is_same_v<decltype(op()), Status>) {
        st = result;
      } else {
        st = result.status();
      }
      if (st.ok() || !st.IsIOError() ||
          attempt >= options_.io_retry.max_retries) {
        return result;
      }
      const uint64_t delay =
          std::min(options_.io_retry.max_backoff_micros,
                   options_.io_retry.initial_backoff_micros << attempt);
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
      io_retries_.fetch_add(1, std::memory_order_relaxed);
      io_retry_backoff_micros_.fetch_add(delay, std::memory_order_relaxed);
      ++attempt;
    }
  }

  DatasetOptions options_;
  BufferCache* cache_;
  const RowCodec* row_codec_;
  /// Zero-worker scheduler of a dataset opened without
  /// DatasetOptions::scheduler; nullptr otherwise.
  std::unique_ptr<FlushMergeScheduler> owned_scheduler_;
  /// Runs every flush and merge task: options_.scheduler or the owned
  /// one. Never null.
  FlushMergeScheduler* scheduler_;
  /// Guards every LSMCOL_GUARDED_BY(mu_) field below; see the threading
  /// model above. ACQUIRED_BEFORE declares the one cross-subsystem order
  /// edge statically: the write path appends to the WAL (whose mutex is
  /// acquired inside) while holding mu_, never the other way around. The
  /// runtime rank checker (kDataset < kWal) enforces the same order.
  mutable Mutex mu_ LSMCOL_ACQUIRED_BEFORE(wal_->mu_);
  /// Signaled whenever background state changes (task start/finish,
  /// publication, rotation): wakes back-pressure stalls, Flush() waiting
  /// for the flush role, WaitForBackgroundWork, and the destructor.
  mutable CondVar work_cv_;

  /// Active memtable. Snapshots hold frozen copies of it
  /// (MemTable::Share); mutable because sharing, which GetSnapshot does,
  /// starts a new write epoch.
  mutable MemTable memtable_ LSMCOL_GUARDED_BY(mu_);
  /// Sealed memtables awaiting flush, newest first (matches the snapshot
  /// reconciliation order). Never mutated after rotation.
  std::vector<std::shared_ptr<const MemTable>> immutables_
      LSMCOL_GUARDED_BY(mu_);
  /// Parallel to immutables_: claimed by an in-flight component build.
  std::vector<bool> immutable_claimed_ LSMCOL_GUARDED_BY(mu_);
  /// Parallel to immutables_ when the WAL is on: the newest WAL segment
  /// covering that memtable's writes. When the memtable's flush becomes
  /// manifest-durable, every segment up to this sequence is deletable and
  /// wal_floor_ advances past it.
  std::vector<uint64_t> immutable_wal_upto_ LSMCOL_GUARDED_BY(mu_);
  /// Columnar layouts only (COW).
  std::shared_ptr<Schema> schema_ LSMCOL_GUARDED_BY(mu_);
  /// On-disk components, newest first.
  std::vector<std::shared_ptr<Component>> components_ LSMCOL_GUARDED_BY(mu_);
  /// Removed from components_ but maybe still in the durable manifest.
  std::vector<std::shared_ptr<Component>> retiring_ LSMCOL_GUARDED_BY(mu_);

  // Background-task state (all under mu_).
  /// Queued-or-running background flush tasks.
  size_t flush_tasks_ LSMCOL_GUARDED_BY(mu_) = 0;
  /// Claimed sealed memtables (builds in flight).
  size_t flush_building_ LSMCOL_GUARDED_BY(mu_) = 0;
  bool merge_queued_ LSMCOL_GUARDED_BY(mu_) = false;
  bool merge_active_ LSMCOL_GUARDED_BY(mu_) = false;
  /// Manifest-writer role (see WriteCurrentManifestLocked).
  bool manifest_writing_ LSMCOL_GUARDED_BY(mu_) = false;
  /// Destructor: merges stop, flushes drain.
  bool shutting_down_ LSMCOL_GUARDED_BY(mu_) = false;
  /// First error a background task hit; surfaced (and cleared) by the
  /// next Flush()/WaitForBackgroundWork(). While set, back-pressure
  /// stalls are released so writers fail fast instead of hanging.
  Status background_error_ LSMCOL_GUARDED_BY(mu_);
  /// Sticky twin of background_error_: set once, never cleared, so health
  /// monitoring sees failures the write path already surfaced-and-cleared.
  Status last_background_error_ LSMCOL_GUARDED_BY(mu_);

  /// fault_counters_->quarantines as of the last successful manifest
  /// rewrite or recovery. The quarantined components themselves are the
  /// record of damage; each rewrite lists those in components_.
  uint64_t quarantines_persisted_ LSMCOL_GUARDED_BY(mu_) = 0;

  /// At most one RepairQuarantined runs at a time.
  bool repairing_ LSMCOL_GUARDED_BY(mu_) = false;

  /// Write-ahead log; nullptr when DatasetOptions::wal.enabled is false.
  /// The pointer itself is set once during Open (before the dataset is
  /// visible to any other thread) and never reseated, so it is readable
  /// without mu_; the log object is internally synchronized. Appends
  /// happen under mu_ (log order == memtable apply order); the fsync wait
  /// (WriteAheadLog::Sync) runs after mu_ is released so concurrent
  /// writers coalesce into one group commit. The WAL takes no dataset
  /// lock, so mu_ -> wal_->mu_ is the only cross-subsystem lock order
  /// (declared on mu_ above).
  std::unique_ptr<WriteAheadLog> wal_;
  /// Lowest WAL segment that may still hold unflushed writes; recorded in
  /// every manifest rewrite, advanced at flush publication.
  uint64_t wal_floor_ LSMCOL_GUARDED_BY(mu_) = 1;

  uint64_t next_component_id_ LSMCOL_GUARDED_BY(mu_) = 1;
  uint64_t manifest_sequence_ LSMCOL_GUARDED_BY(mu_) = 0;
  /// Set when a manifest rewrite failed after in-memory state advanced;
  /// the next Flush() (even with nothing to flush) retries the rewrite so
  /// a retried-then-OK Flush never reports unrecorded state as durable.
  bool manifest_dirty_ LSMCOL_GUARDED_BY(mu_) = false;
  /// Set once in the constructor; immutable afterwards.
  std::string manifest_path_;
  DatasetStats stats_ LSMCOL_GUARDED_BY(mu_);

  /// Data-damage tallies shared with every Component this dataset opens
  /// (see ComponentFaultCounters); created once in the constructor.
  std::shared_ptr<ComponentFaultCounters> fault_counters_;
  /// Transient-retry tallies (atomic: bumped by RunWithRetry in unlocked
  /// regions, read by stats()).
  mutable std::atomic<uint64_t> io_retries_{0};
  mutable std::atomic<uint64_t> io_retry_backoff_micros_{0};
};

}  // namespace lsmcol

#endif  // LSMCOL_LSM_DATASET_H_
