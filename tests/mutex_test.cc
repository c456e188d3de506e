// Unit tests for the annotated mutex wrappers (src/common/mutex.h): basic
// lock/condvar behavior, and — when the runtime rank checker is compiled
// in — death tests proving that rank-order violations abort with a
// diagnostic instead of deadlocking silently.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/common/mutex.h"

namespace lsmcol {
namespace {

TEST(MutexTest, LockUnlockAndScopedLock) {
  Mutex mu(MutexRank::kLeaf);
  mu.Lock();
  mu.Unlock();
  {
    MutexLock lock(&mu);
    // Relockable scoped lock: drop and retake inside the scope (the
    // pattern FlushOneImmutableLocked uses around component builds).
    lock.Unlock();
    lock.Lock();
  }
  // The destructor released it: a fresh acquire must succeed.
  mu.Lock();
  mu.Unlock();
}

TEST(MutexTest, MutualExclusionUnderContention) {
  Mutex mu(MutexRank::kLeaf);
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, 40000);
}

TEST(MutexTest, CondVarWaitAndNotify) {
  Mutex mu(MutexRank::kLeaf);
  CondVar cv;
  bool ready = false;
  std::thread signaler([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
    EXPECT_TRUE(ready);
  }
  signaler.join();
}

TEST(MutexTest, RanksAreOrderedAsDocumented) {
  // The acquisition order the subsystems rely on; see src/common/mutex.h.
  EXPECT_LT(static_cast<int>(MutexRank::kStore),
            static_cast<int>(MutexRank::kDataset));
  EXPECT_LT(static_cast<int>(MutexRank::kDataset),
            static_cast<int>(MutexRank::kScheduler));
  EXPECT_LT(static_cast<int>(MutexRank::kScheduler),
            static_cast<int>(MutexRank::kWal));
  EXPECT_LT(static_cast<int>(MutexRank::kWal),
            static_cast<int>(MutexRank::kBufferCache));
  EXPECT_LT(static_cast<int>(MutexRank::kBufferCache),
            static_cast<int>(MutexRank::kLeaf));
}

TEST(MutexDeathTest, RankInversionAborts) {
  if (!LockOrderChecksEnabled()) {
    GTEST_SKIP() << "lock-order checks compiled out in this build";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The exact inversion the annotations forbid: Dataset::mu_ (kDataset)
  // must be acquired before any WAL mutex (kWal), never after.
  EXPECT_DEATH(
      {
        Mutex wal_rank(MutexRank::kWal);
        Mutex dataset_rank(MutexRank::kDataset);
        wal_rank.Lock();
        dataset_rank.Lock();  // rank decreases: must abort
      },
      "lock-order violation");
}

TEST(MutexDeathTest, RecursiveAcquisitionAborts) {
  if (!LockOrderChecksEnabled()) {
    GTEST_SKIP() << "lock-order checks compiled out in this build";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mu(MutexRank::kLeaf);
        mu.Lock();
        mu.Lock();  // self-deadlock: must abort, not hang
      },
      "lock-order violation");
}

TEST(MutexDeathTest, EqualRankAborts) {
  if (!LockOrderChecksEnabled()) {
    GTEST_SKIP() << "lock-order checks compiled out in this build";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two distinct mutexes of the same rank: the strict ordering makes
  // same-rank nesting a violation too (no defined order between them).
  EXPECT_DEATH(
      {
        Mutex a(MutexRank::kLeaf);
        Mutex b(MutexRank::kLeaf);
        a.Lock();
        b.Lock();
      },
      "lock-order violation");
}

}  // namespace
}  // namespace lsmcol
