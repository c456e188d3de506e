#include "src/lsm/scheduler.h"

#include <algorithm>
#include <utility>

namespace lsmcol {

FlushMergeScheduler::FlushMergeScheduler(int threads) {
  if (threads < 0) threads = 0;
  thread_count_ = threads;
  // No worker can observe a half-built pool: workers only touch state
  // under mu_, and the vector is fully populated before the constructor
  // returns (the analysis skips constructors; nothing else runs yet).
  MutexLock lock(&mu_);
  threads_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

FlushMergeScheduler::~FlushMergeScheduler() { Stop(); }

void FlushMergeScheduler::Schedule(const void* owner,
                                   std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    queue_.push_back({owner, std::move(task)});
  }
  cv_.NotifyOne();
}

size_t FlushMergeScheduler::RunCallerTasks(const void* owner) {
  size_t ran = 0;
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      // Live workers own the queue. Once stopping_ is set a caller may
      // race a still-draining worker for the same task; the pop under
      // mu_ hands each task to exactly one of them.
      if (thread_count_ > 0 && !stopping_) return 0;
      auto it =
          std::find_if(queue_.begin(), queue_.end(),
                       [owner](const Task& t) { return t.owner == owner; });
      if (it == queue_.end()) return ran;
      task = std::move(it->run);
      queue_.erase(it);
      ++tasks_run_;
    }
    task();
    ++ran;
  }
}

bool FlushMergeScheduler::ScheduleLow(
    std::function<void()> task,
    std::chrono::steady_clock::time_point not_before) {
  {
    MutexLock lock(&mu_);
    if (thread_count_ == 0 || stopping_) return false;
    low_queue_.emplace(not_before, std::move(task));
  }
  // NotifyAll, not NotifyOne: a worker parked on an earlier low-task
  // deadline must re-evaluate which deadline is now the soonest.
  cv_.NotifyAll();
  return true;
}

void FlushMergeScheduler::Stop() {
  // Claim the worker handles under the lock so concurrent Stop() calls
  // never join (or even touch) the same std::thread — the loser of the
  // race gets an empty vector and returns after signalling. Joining
  // happens outside the lock: workers must reacquire mu_ to drain.
  std::vector<std::thread> workers;
  {
    MutexLock lock(&mu_);
    stopping_ = true;
    low_queue_.clear();  // low lane is best-effort; drop, don't drain
    workers = std::move(threads_);
    threads_.clear();
  }
  cv_.NotifyAll();
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
}

uint64_t FlushMergeScheduler::tasks_run() const {
  MutexLock lock(&mu_);
  return tasks_run_;
}

uint64_t FlushMergeScheduler::low_tasks_run() const {
  MutexLock lock(&mu_);
  return low_tasks_run_;
}

void FlushMergeScheduler::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (true) {
        if (!queue_.empty()) {
          // High lane always wins, even while stopping: tasks carry
          // flushes whose callers rely on them eventually running
          // (Stop's contract).
          task = std::move(queue_.front().run);
          queue_.pop_front();
          ++tasks_run_;
          break;
        }
        if (stopping_) return;  // low lane dropped on stop (best-effort)
        if (!low_queue_.empty()) {
          auto due = low_queue_.begin()->first;
          if (due <= std::chrono::steady_clock::now()) {
            task = std::move(low_queue_.begin()->second);
            low_queue_.erase(low_queue_.begin());
            ++low_tasks_run_;
            break;
          }
          cv_.WaitUntil(&mu_, due);
          continue;
        }
        cv_.Wait(&mu_);
      }
    }
    task();
  }
}

}  // namespace lsmcol
