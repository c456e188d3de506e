// FlushMergeScheduler: the task queue every flush and merge runs through
// (§6.3 measures ingestion with exactly this split: writers fill
// memtables, dedicated threads flush and merge).
//
// The scheduler itself is a deliberately small primitive — a FIFO of
// opaque closures, each tagged with the dataset that scheduled it. All
// LSM-specific policy (what to flush, when to merge, back-pressure)
// lives in Dataset, which enqueues at most one flush task per sealed
// memtable and one merge task at a time; the scheduler only decides who
// runs them. One scheduler is shared by every dataset of a Store
// (StoreOptions::background_threads), so a single pool bounds the
// background CPU/I/O of the whole node.
//
// Two forms, one queue:
//   * Worker form (threads >= 1): N worker threads drain the queue.
//   * Caller-runs form (threads == 0, or any pool after Stop()): no
//     thread drains the queue; the scheduling dataset runs its own tasks
//     on its calling thread through RunCallerTasks(owner). A caller only
//     ever runs tasks of the owner it names, so a shared pool never runs
//     a task for another dataset (one that may be mid-destruction).
// Schedule() accepts a task in either form; it never refuses.
//
// Two lanes: Schedule() is the normal (high-priority) FIFO used by
// flushes and merges; ScheduleLow() adds a low-priority, optionally
// delayed lane used by the background scrubber. Workers always prefer
// the high lane; a low task runs only when the high lane is empty AND
// its not_before time has passed — so scrub slices never delay a flush.
//
// Shutdown contract: Stop() (idempotent and safe to race with itself,
// called by the destructor) drains every high-lane task queued so far on
// the workers, joins them, and switches the pool to the caller-runs
// form: tasks scheduled afterwards wait for their owner's
// RunCallerTasks. Low-lane tasks are best-effort by design (a scrub
// slice that never runs costs nothing): Stop() discards them, and a pool
// without workers refuses them. Anything a task references (datasets,
// caches) must outlive the task; Dataset's destructor runs its own
// queued tasks and waits for its in-flight ones before tearing down, so
// a destroyed scheduler never holds a task anyone still needs.

#ifndef LSMCOL_LSM_SCHEDULER_H_
#define LSMCOL_LSM_SCHEDULER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace lsmcol {

class FlushMergeScheduler {
 public:
  /// Starts `threads` workers; 0 builds the caller-runs form.
  explicit FlushMergeScheduler(int threads);

  /// Stops and joins (see Stop()).
  ~FlushMergeScheduler();

  FlushMergeScheduler(const FlushMergeScheduler&) = delete;
  FlushMergeScheduler& operator=(const FlushMergeScheduler&) = delete;

  /// Enqueue one task on behalf of `owner` (the key RunCallerTasks
  /// matches). Always accepted: a worker runs it, or in the caller-runs
  /// form the owner's next RunCallerTasks does.
  void Schedule(const void* owner, std::function<void()> task)
      LSMCOL_EXCLUDES(mu_);

  /// In the caller-runs form, run every queued task of `owner` on the
  /// calling thread, oldest first — including tasks those tasks schedule
  /// — until none is left, and return how many ran. While workers are
  /// live it returns 0 at once: the workers own the queue. Never call it
  /// holding a lock a task takes.
  size_t RunCallerTasks(const void* owner) LSMCOL_EXCLUDES(mu_);

  /// Enqueue one low-priority task that must not run before
  /// `not_before`. Low tasks run only when the high lane is idle, and
  /// are DISCARDED by Stop() (best-effort — callers must not rely on a
  /// low task ever running). Returns false (task dropped) when no worker
  /// could run it: the pool has none, or was stopped.
  bool ScheduleLow(std::function<void()> task,
                   std::chrono::steady_clock::time_point not_before =
                       std::chrono::steady_clock::time_point{})
      LSMCOL_EXCLUDES(mu_);

  /// Run every already-queued task to completion on the workers, join
  /// them, and switch to the caller-runs form. Safe to call more than
  /// once, including concurrently: exactly one caller adopts the worker
  /// threads and joins them; the others return once their Stop request
  /// is visible.
  void Stop() LSMCOL_EXCLUDES(mu_);

  int thread_count() const { return thread_count_; }

  /// High-lane tasks executed so far, by workers or callers (monotonic;
  /// for tests).
  uint64_t tasks_run() const LSMCOL_EXCLUDES(mu_);

  /// Low-lane tasks executed so far (monotonic; for tests).
  uint64_t low_tasks_run() const LSMCOL_EXCLUDES(mu_);

 private:
  struct Task {
    const void* owner;
    std::function<void()> run;
  };

  void WorkerLoop() LSMCOL_EXCLUDES(mu_);

  /// Pool size, fixed at construction (readable without mu_).
  int thread_count_ = 0;

  mutable Mutex mu_{MutexRank::kScheduler};
  CondVar cv_;
  std::deque<Task> queue_ LSMCOL_GUARDED_BY(mu_);
  /// Low lane, keyed by earliest-allowed start time (multimap: several
  /// tasks may share a due time). Only consulted when queue_ is empty.
  std::multimap<std::chrono::steady_clock::time_point, std::function<void()>>
      low_queue_ LSMCOL_GUARDED_BY(mu_);
  /// Set by Stop(); with thread_count_ == 0 it marks the caller-runs form.
  bool stopping_ LSMCOL_GUARDED_BY(mu_) = false;
  uint64_t tasks_run_ LSMCOL_GUARDED_BY(mu_) = 0;
  uint64_t low_tasks_run_ LSMCOL_GUARDED_BY(mu_) = 0;
  /// Worker handles. Moved out (claimed) by the one Stop() call that
  /// joins, so concurrent Stop()s never touch the same std::thread.
  std::vector<std::thread> threads_ LSMCOL_GUARDED_BY(mu_);
};

}  // namespace lsmcol

#endif  // LSMCOL_LSM_SCHEDULER_H_
