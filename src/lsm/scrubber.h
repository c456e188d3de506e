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
// One walk serves both entry points: it verifies a snapshot's components
// in ascending component id from a resume point (component id, next
// leaf) up to a byte budget. ScrubDataset walks from {0, 0} with no
// budget; each background slice walks on from where the last one
// stopped. Ids only grow, so the component with the smallest id at or
// above the resume id is the next one in the pass: a component merged
// away between slices is passed over, and its merge output (a newer id)
// is reached later in the same pass. Components are immutable, so
// resuming mid-component after the snapshot was re-pinned is safe. Each
// slice pins its own snapshot and releases it before sleeping, so the
// scrubber never holds merged-away components alive between slices.

#ifndef LSMCOL_LSM_SCRUBBER_H_
#define LSMCOL_LSM_SCRUBBER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/lsm/scheduler.h"

namespace lsmcol {

class Dataset;
class Snapshot;

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

/// Tallies of one walk: a full synchronous pass (ScrubDataset /
/// Store::ScrubNow), or one background slice.
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
  /// Where a walk goes on: the component with the smallest id at or
  /// above `component`, at `leaf` if that is its id, else at leaf 0.
  struct ResumePoint {
    uint64_t component = 0;
    size_t leaf = 0;
  };

  /// Verifies `snap`'s components in ascending id from `*at`, adding to
  /// `*tally`, until `max_bytes` are verified or `stop` is set. Returns
  /// true once no component is left, false when the budget or `stop`
  /// ended the walk first. A transient (non-damage) read error is
  /// returned with `*at` on the leaf that failed, so a later walk
  /// retries it; damage ends that component's walk.
  static Result<bool> Walk(const Snapshot& snap, uint64_t max_bytes,
                           const std::atomic<bool>* stop, ResumePoint* at,
                           ScrubPassResult* tally);

  /// The scheduled task: scrub up to max_slice_bytes, then reschedule.
  void RunSlice() LSMCOL_EXCLUDES(mu_);
  void ScheduleNext(std::chrono::steady_clock::time_point not_before)
      LSMCOL_REQUIRES(mu_);

  FlushMergeScheduler* const scheduler_;
  const ScrubOptions options_;

  mutable Mutex mu_{MutexRank::kScrubber};
  CondVar cv_;
  std::vector<Dataset*> datasets_ LSMCOL_GUARDED_BY(mu_);
  /// Background rotation: datasets_[dataset_] is being walked from at_.
  size_t dataset_ LSMCOL_GUARDED_BY(mu_) = 0;
  ResumePoint at_ LSMCOL_GUARDED_BY(mu_);
  bool started_ LSMCOL_GUARDED_BY(mu_) = false;
  bool running_ LSMCOL_GUARDED_BY(mu_) = false;  ///< slice executing now
  uint64_t slices_ LSMCOL_GUARDED_BY(mu_) = 0;
  /// Checked between leaves mid-slice (outside mu_), so atomic.
  std::atomic<bool> stopping_{false};
};

}  // namespace lsmcol

#endif  // LSMCOL_LSM_SCRUBBER_H_
