#include "src/common/mutex.h"

#if LSMCOL_LOCK_ORDER_CHECKS
#include <cstdio>
#include <cstdlib>
#include <vector>
#endif

namespace lsmcol {

const char* MutexRankName(MutexRank rank) {
  switch (rank) {
    case MutexRank::kStore:
      return "Store";
    case MutexRank::kBackup:
      return "Backup";
    case MutexRank::kScrubber:
      return "Scrubber";
    case MutexRank::kDataset:
      return "Dataset";
    case MutexRank::kScheduler:
      return "Scheduler";
    case MutexRank::kWal:
      return "Wal";
    case MutexRank::kBufferCache:
      return "BufferCache";
    case MutexRank::kComponentFault:
      return "ComponentFault";
    case MutexRank::kFaultFs:
      return "FaultFs";
    case MutexRank::kLeaf:
      return "Leaf";
  }
  return "?";
}

#if LSMCOL_LOCK_ORDER_CHECKS

namespace {

// The per-thread stack of held mutexes, in acquisition order. Unlocks
// are LIFO throughout the codebase (every mid-section drop releases the
// most recently acquired mutex), so a stack — not a multiset — is the
// right shape, and lets CondVar pop/re-push the waited mutex cheaply.
std::vector<const Mutex*>& HeldStack() {
  thread_local std::vector<const Mutex*> held;
  return held;
}

[[noreturn]] void LockOrderAbort(const Mutex* holding, const Mutex* acquiring) {
  std::fprintf(
      stderr,
      "lsmcol lock-order violation: acquiring %s(%d) while holding %s(%d); "
      "ranks must strictly increase (see src/common/mutex.h)\n",
      MutexRankName(acquiring->rank()), static_cast<int>(acquiring->rank()),
      MutexRankName(holding->rank()), static_cast<int>(holding->rank()));
  std::abort();
}

void CheckAcquire(const Mutex* mu) {
  for (const Mutex* held : HeldStack()) {
    if (held == mu) {
      std::fprintf(stderr,
                   "lsmcol lock-order violation: recursive acquisition of "
                   "%s(%d)\n",
                   MutexRankName(mu->rank()), static_cast<int>(mu->rank()));
      std::abort();
    }
    if (held->rank() >= mu->rank()) LockOrderAbort(held, mu);
  }
}

void PushHeld(const Mutex* mu) { HeldStack().push_back(mu); }

void PopHeld(const Mutex* mu) {
  auto& held = HeldStack();
  if (held.empty() || held.back() != mu) {
    std::fprintf(stderr,
                 "lsmcol lock-order violation: releasing %s(%d) which is not "
                 "this thread's most recently acquired mutex\n",
                 MutexRankName(mu->rank()), static_cast<int>(mu->rank()));
    std::abort();
  }
  held.pop_back();
}

}  // namespace

void Mutex::Lock() {
  CheckAcquire(this);  // abort *before* blocking on a would-be deadlock
  native_.lock();
  PushHeld(this);
}

void Mutex::Unlock() {
  PopHeld(this);
  native_.unlock();
}

void CondVar::Wait(Mutex* mu) {
  // The wait releases and re-acquires mu atomically w.r.t. the condvar;
  // mirror that in the rank bookkeeping so other acquisitions made by
  // this thread while blocked-then-woken still see a consistent stack.
  PopHeld(mu);
  std::unique_lock<std::mutex> lk(mu->native_, std::adopt_lock);
  cv_.wait(lk);
  lk.release();
  CheckAcquire(mu);
  PushHeld(mu);
}

std::cv_status CondVar::WaitUntil(
    Mutex* mu, std::chrono::steady_clock::time_point deadline) {
  PopHeld(mu);
  std::unique_lock<std::mutex> lk(mu->native_, std::adopt_lock);
  std::cv_status status = cv_.wait_until(lk, deadline);
  lk.release();
  CheckAcquire(mu);
  PushHeld(mu);
  return status;
}

#else  // !LSMCOL_LOCK_ORDER_CHECKS

void Mutex::Lock() { native_.lock(); }

void Mutex::Unlock() { native_.unlock(); }

void CondVar::Wait(Mutex* mu) {
  std::unique_lock<std::mutex> lk(mu->native_, std::adopt_lock);
  cv_.wait(lk);
  lk.release();
}

std::cv_status CondVar::WaitUntil(
    Mutex* mu, std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lk(mu->native_, std::adopt_lock);
  std::cv_status status = cv_.wait_until(lk, deadline);
  lk.release();
  return status;
}

#endif  // LSMCOL_LOCK_ORDER_CHECKS

}  // namespace lsmcol
