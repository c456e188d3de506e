// Annotated locking primitives: lsmcol::Mutex, MutexLock, and CondVar
// wrap std::mutex / std::condition_variable with the clang
// thread-safety attributes (src/common/thread_annotations.h), so the
// locking discipline of every subsystem is machine-checked:
//
//  * statically — building with clang and -DLSMCOL_THREAD_SAFETY=ON
//    turns `-Wthread-safety -Wthread-safety-beta` into errors: every
//    LSMCOL_GUARDED_BY field access, LSMCOL_REQUIRES call, and declared
//    LSMCOL_ACQUIRED_BEFORE edge is proven at compile time;
//
//  * dynamically — every Mutex carries a MutexRank, and in debug /
//    sanitizer builds (LSMCOL_LOCK_ORDER_CHECKS) each thread keeps a
//    stack of held mutexes: acquiring a mutex whose rank is not
//    strictly greater than every held one aborts immediately with both
//    ranks named, turning would-be deadlocks into deterministic test
//    failures even on code paths the static analysis cannot see.
//
// The rank order is the system-wide acquisition order (see
// docs/ARCHITECTURE.md "Threading and locking model"): a thread may
// only acquire mutexes in strictly increasing rank, and never two of
// the same rank at once.

#ifndef LSMCOL_COMMON_MUTEX_H_
#define LSMCOL_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "src/common/thread_annotations.h"

// Runtime lock-order (rank) checking. Off by default in optimized
// builds (zero overhead); on when NDEBUG is absent, or forced from the
// build system (-DLSMCOL_LOCK_ORDER_CHECKS=1 — the sanitizer presets
// and the ASan/UBSan and TSan CI jobs do this so dynamic coverage backs
// the static proof).
#if !defined(LSMCOL_LOCK_ORDER_CHECKS)
#if !defined(NDEBUG)
#define LSMCOL_LOCK_ORDER_CHECKS 1
#else
#define LSMCOL_LOCK_ORDER_CHECKS 0
#endif
#endif

namespace lsmcol {

/// The global lock-acquisition order, sparse so future subsystems slot
/// in. A thread holding a mutex of rank R may only acquire mutexes of
/// rank strictly greater than R. The ACQUIRED_BEFORE annotations on the
/// mutexes themselves declare the statically-checked subset of these
/// edges (clang checks order only between mutexes that can name each
/// other); the runtime checker enforces the full total order.
enum class MutexRank : int {
  kStore = 10,            ///< Store::mu_ (dataset map)
  kBackup = 12,           ///< Store::backup_mu_ (one backup at a time)
  kScrubber = 15,         ///< Scrubber::mu_ (scrub schedule and cursor)
  kDataset = 20,          ///< Dataset::mu_ (all mutable dataset state)
  kScheduler = 30,        ///< FlushMergeScheduler::mu_ (task queue)
  kWal = 40,              ///< WriteAheadLog::mu_ (pending batch, LSNs)
  kBufferCache = 50,      ///< BufferCache::mu_ (entry table)
  kComponentFault = 70,   ///< Component::fault_mu_ (quarantine reason)
  kFaultFs = 900,         ///< FaultInjectionFs::mu_ (acquired during any I/O)
  kLeaf = 1000,           ///< never holds another mutex underneath
};

/// Diagnostic name of a rank ("Dataset", "Wal", ...).
const char* MutexRankName(MutexRank rank);

/// True when this build enforces lock ranks at runtime (tests skip the
/// abort expectations otherwise).
constexpr bool LockOrderChecksEnabled() {
  return LSMCOL_LOCK_ORDER_CHECKS != 0;
}

/// \brief Annotated mutex. Non-recursive; aborts on rank inversion in
/// checked builds.
class LSMCOL_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(MutexRank rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LSMCOL_ACQUIRE();
  void Unlock() LSMCOL_RELEASE();

  MutexRank rank() const { return rank_; }

 private:
  friend class CondVar;

  std::mutex native_;
  const MutexRank rank_;
};

/// \brief RAII lock, relockable: Unlock()/Lock() bracket a section that
/// must run without the mutex (component builds, fsyncs); the
/// destructor releases only if currently held. The analysis tracks the
/// scoped state, so an unbalanced temporary drop is a compile error.
class LSMCOL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) LSMCOL_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~MutexLock() LSMCOL_RELEASE() {
    if (held_) mu_->Unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily drop the mutex (e.g. around I/O).
  void Unlock() LSMCOL_RELEASE() {
    held_ = false;
    mu_->Unlock();
  }
  /// Re-acquire after Unlock().
  void Lock() LSMCOL_ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

 private:
  Mutex* const mu_;
  bool held_ = true;
};

/// \brief Condition variable bound to lsmcol::Mutex. No predicate
/// overloads on purpose: explicit `while (!cond) cv.Wait(&mu);` loops
/// keep the guarded-field accesses inside the annotated function body
/// where the analysis can see them (a predicate lambda would be
/// analyzed as an unannotated function).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mu`, wait, re-acquire. As with std::condition
  /// variable, spurious wakeups happen: always wait in a loop.
  void Wait(Mutex* mu) LSMCOL_REQUIRES(mu);

  /// Wait with a deadline; std::cv_status::timeout when it passed.
  std::cv_status WaitUntil(Mutex* mu,
                           std::chrono::steady_clock::time_point deadline)
      LSMCOL_REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace lsmcol

#endif  // LSMCOL_COMMON_MUTEX_H_
