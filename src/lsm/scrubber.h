// Scrubber: background integrity scanning of on-disk components.
//
// Checksums are only verified when a page is physically read, and the
// buffer cache means hot units are read and decoded once — so silent
// media decay on a cold component can sit undetected until the day a
// merge or query finally touches it. The scrubber closes that window: it
// re-reads every component leaf through ComponentReader::ReadLeaf
// (physical read + page trailer verification, no cache pollution) on a
// byte-rate budget, running as low-priority FlushMergeScheduler tasks so
// a scrub slice never delays a flush or merge.
//
// Damage handling is the component's own quarantine machinery: the first
// damaged leaf quarantines the component, the dataset persists the
// damage record into its manifest (no silent "heal" across restart), and
// the scrubber simply skips already-quarantined components. Repair is
// Dataset::RepairQuarantined (from a backup) or offline salvage.
//
// Progress is tracked per dataset as a set of fully-scrubbed component
// ids plus a (component id, next leaf) resume point. Components are
// immutable, so resuming mid-component after the snapshot was re-pinned
// is safe; a component merged away between slices is simply dropped.
// Each slice pins its own snapshot and releases it before sleeping, so
// the scrubber never holds merged-away components alive between slices.

#ifndef LSMCOL_LSM_SCRUBBER_H_
#define LSMCOL_LSM_SCRUBBER_H_

#include <atomic>
#include <cstdint>
#include <set>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/lsm/scheduler.h"

namespace lsmcol {

class Dataset;

/// Knobs for background scrubbing (StoreOptions::scrub).
struct ScrubOptions {
  /// Off by default: scrubbing is pure read amplification until the
  /// deployment opts in.
  bool enabled = false;
  /// Physical-read budget. A slice of N bytes delays the next slice by
  /// N / bytes_per_sec. 0 = unthrottled (tests, explicit ScrubNow).
  uint64_t bytes_per_sec = 8ull << 20;
  /// Idle time between full passes over every registered dataset.
  uint64_t interval_ms = 60 * 1000;
  /// Upper bound on bytes verified per scheduler task, so one slice
  /// occupies a worker for a bounded time even unthrottled.
  uint64_t max_slice_bytes = 4ull << 20;
};

/// Tallies of one full synchronous pass (ScrubDataset / Store::ScrubNow).
struct ScrubPassResult {
  uint64_t components = 0;            ///< components fully verified
  uint64_t leaves = 0;                ///< leaves probed (incl. damaged)
  uint64_t bytes = 0;                 ///< payload bytes verified
  uint64_t damaged = 0;               ///< components newly quarantined
  uint64_t skipped_quarantined = 0;   ///< already quarantined, not probed
};

class Scrubber {
 public:
  /// `scheduler` must outlive the scrubber; Stop() must be called (the
  /// owning Store does) before the scheduler stops.
  Scrubber(FlushMergeScheduler* scheduler, const ScrubOptions& options);
  ~Scrubber();

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  /// Add a dataset to the scrub rotation. The dataset must outlive the
  /// scrubber's Stop() (Store closes the scrubber before its datasets).
  void Register(Dataset* dataset) LSMCOL_EXCLUDES(mu_);

  /// Begin scheduling slices (idempotent).
  void Start() LSMCOL_EXCLUDES(mu_);

  /// Stop scheduling and wait for any in-flight slice to finish. A slice
  /// already queued but not yet running becomes a no-op when it fires
  /// (or is discarded with the scheduler's low lane). Idempotent.
  void Stop() LSMCOL_EXCLUDES(mu_);

  /// Slices executed so far (monotonic; for tests).
  uint64_t slices_run() const LSMCOL_EXCLUDES(mu_);

  /// One full synchronous, unthrottled pass over `dataset` — the
  /// Store::ScrubNow() engine, also usable without any Scrubber
  /// instance. Damage quarantines components exactly like the background
  /// path; transient (non-damage) I/O errors abort and surface.
  static Result<ScrubPassResult> ScrubDataset(Dataset* dataset);

 private:
  /// Resume point of the background rotation.
  struct Cursor {
    size_t dataset = 0;           ///< index into datasets_
    std::set<uint64_t> done;      ///< component ids finished this pass
    uint64_t current_id = 0;      ///< mid-component resume (0 = none)
    size_t next_leaf = 0;
  };

  /// The scheduled task: scrub up to max_slice_bytes, then reschedule.
  void RunSlice() LSMCOL_EXCLUDES(mu_);
  void ScheduleNext(std::chrono::steady_clock::time_point not_before)
      LSMCOL_REQUIRES(mu_);

  FlushMergeScheduler* const scheduler_;
  const ScrubOptions options_;

  mutable Mutex mu_{MutexRank::kScrubber};
  CondVar cv_;
  std::vector<Dataset*> datasets_ LSMCOL_GUARDED_BY(mu_);
  Cursor cursor_ LSMCOL_GUARDED_BY(mu_);
  bool started_ LSMCOL_GUARDED_BY(mu_) = false;
  bool running_ LSMCOL_GUARDED_BY(mu_) = false;  ///< slice executing now
  uint64_t slices_ LSMCOL_GUARDED_BY(mu_) = 0;
  /// Checked between leaves mid-slice (outside mu_), so atomic.
  std::atomic<bool> stopping_{false};
};

}  // namespace lsmcol

#endif  // LSMCOL_LSM_SCRUBBER_H_
