// Compaction-policy suite (src/lsm/compaction_policy.h):
//
//  * deterministic plan-selection simulations — each policy driven
//    through scripted component stacks (injected descriptors, no I/O),
//    asserting the exact merge counts chosen, the per-policy structural
//    invariants (tiered: size-ratio prefix grouping; lazy-leveling: a
//    tiered young part above one last-level run), and that quarantined
//    components are never selected;
//  * randomized cross-policy equivalence x4 layouts: one seeded
//    ingest/update/delete schedule under tiered and lazy-leveling must
//    produce identical Scan and Lookup results, including across
//    close/reopen under the other policy;
//  * lazy-leveling's quiescent invariant on a real component stack;
//  * amplification accounting: exact write-amp on a hand-computed
//    scenario, counter monotonicity under a random schedule, and the
//    Store::Health() rollup;
//  * the policy-derived writer-stall threshold: lazy-leveling
//    back-pressure must surface a background flush fault and fully
//    recover, never wedge (extends the tiered re-arm regression in
//    wal_test.cc).
//
// Everything here is deterministic — fixed seeds, no worker threads except
// the single-threaded back-pressure regression, no timing dependence.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/json/parser.h"
#include "src/lsm/compaction_policy.h"
#include "src/lsm/dataset.h"
#include "src/storage/fault_injection_fs.h"
#include "src/store/store.h"

namespace lsmcol {
namespace {

constexpr size_t kPage = 8192;

// ------------------------------------------------- plan-selection helpers

/// Newest-first descriptor stack from plain sizes.
std::vector<CompactionComponentView> Views(
    const std::vector<uint64_t>& sizes) {
  std::vector<CompactionComponentView> views;
  for (uint64_t size : sizes) views.push_back({size, false});
  return views;
}

DatasetOptions Tiered(double size_ratio = 1.2, int max_components = 5) {
  DatasetOptions options;
  options.size_ratio = size_ratio;
  options.max_components = max_components;
  return options;
}

DatasetOptions LazyLeveling(double size_ratio = 1.2, int max_components = 5) {
  DatasetOptions options = Tiered(size_ratio, max_components);
  options.compaction = CompactionStrategy::kLazyLeveling;
  return options;
}

/// Independent reimplementation of the historical tiering rule (§6.3),
/// the oracle the default policy must match bit-for-bit.
size_t ReferenceTieredCount(const std::vector<uint64_t>& sizes,
                            double size_ratio, int max_components) {
  const size_t n = sizes.size();
  if (n < 2) return 0;
  size_t merge_count = 0;
  uint64_t younger_total = 0;
  for (size_t i = 0; i + 1 <= n; ++i) {
    if (i > 0) younger_total += sizes[i - 1];
    if (i >= 1 && static_cast<double>(younger_total) >=
                      size_ratio * static_cast<double>(sizes[i])) {
      merge_count = i + 1;
    }
  }
  if (merge_count < 2 && n > static_cast<size_t>(max_components)) {
    merge_count = 2;
  }
  return merge_count < 2 ? 0 : merge_count;
}

/// Apply a merge of the newest `count` components to a simulated stack:
/// they are replaced by one component of the summed size (no
/// annihilation — the conservative upper bound a size-only simulation
/// can know).
void ApplyMerge(std::vector<uint64_t>* sizes, size_t count) {
  ASSERT_GE(count, 2u);
  ASSERT_LE(count, sizes->size());
  uint64_t out = 0;
  for (size_t i = 0; i < count; ++i) out += (*sizes)[i];
  sizes->erase(sizes->begin(), sizes->begin() + static_cast<long>(count));
  sizes->insert(sizes->begin(), out);
}

// ------------------------------------------------------- tiered policy

TEST(TieredPolicyTest, HandComputedPlans) {
  const DatasetOptions policy = Tiered(1.2, 5);
  // Singleton and empty stacks: nothing to merge.
  EXPECT_EQ(PickMergeCount(policy, Views({})), 0u);
  EXPECT_EQ(PickMergeCount(policy, Views({100})), 0u);
  // Two equal components miss the 1.2 ratio (100 < 120).
  EXPECT_EQ(PickMergeCount(policy, Views({100, 100})), 0u);
  // Ratio trigger: 100 >= 1.2 * 80.
  EXPECT_EQ(PickMergeCount(policy, Views({100, 80})), 2u);
  // The *longest* qualifying prefix wins: [100,100,100] accumulates
  // 200 >= 120 at i=2, then 300 >= 120 at... (n=3) -> whole prefix.
  EXPECT_EQ(PickMergeCount(policy, Views({100, 100, 100})), 3u);
  // Steeply descending sizes never meet the ratio; under the component
  // cap that means no merge at all.
  EXPECT_EQ(
      PickMergeCount(policy, Views({10, 100, 1000, 10000, 100000})), 0u);
  // Over the cap the historical fallback merges exactly the two newest.
  EXPECT_EQ(PickMergeCount(
                policy, Views({10, 100, 1000, 10000, 100000, 1000000})),
            2u);
}

TEST(TieredPolicyTest, ScriptedSequenceMatchesHistoricalRule) {
  // Drive a 200-flush scripted sequence through the policy and assert
  // every plan equals the independent reimplementation of the
  // historical rule — the bit-for-bit compatibility the default policy
  // promises (plans are always newest-prefixes of the same length).
  const DatasetOptions policy = Tiered(1.2, 5);
  std::vector<uint64_t> sizes;
  for (int flush = 0; flush < 200; ++flush) {
    sizes.insert(sizes.begin(), 100 + (static_cast<uint64_t>(flush) * 37) % 211);
    for (;;) {
      const size_t count = PickMergeCount(policy, Views(sizes));
      const size_t want =
          ReferenceTieredCount(sizes, /*size_ratio=*/1.2, /*max_components=*/5);
      ASSERT_EQ(count, want) << "flush " << flush;
      if (want == 0) break;
      ApplyMerge(&sizes, count);
    }
    // Size-ratio grouping invariant: once the policy is satisfied, no
    // newest-prefix reaches size_ratio x its oldest member.
    uint64_t younger = 0;
    for (size_t i = 1; i < sizes.size(); ++i) {
      younger += sizes[i - 1];
      ASSERT_LT(static_cast<double>(younger),
                1.2 * static_cast<double>(sizes[i]))
          << "flush " << flush << " prefix " << i;
    }
    ASSERT_LE(sizes.size(), 5u) << "flush " << flush;
  }
}

TEST(TieredPolicyTest, QuarantineSuspendsMerging) {
  const DatasetOptions policy = Tiered(1.2, 2);
  // Without damage this stack merges (over the cap).
  std::vector<CompactionComponentView> views =
      Views({10, 100, 1000, 10000});
  ASSERT_NE(PickMergeCount(policy, views), 0u);
  // Any quarantined component suspends the tiered policy entirely (the
  // historical behavior: quarantine is an operator decision point).
  for (size_t i = 0; i < views.size(); ++i) {
    auto damaged = views;
    damaged[i].quarantined = true;
    EXPECT_EQ(PickMergeCount(policy, damaged), 0u) << "quarantined " << i;
  }
}

// ------------------------------------------------ lazy-leveling policy

TEST(LazyLevelingPolicyTest, YoungPartTiersOldestStaysSingle) {
  const DatasetOptions policy = LazyLeveling(1.2, 5);
  // The young part obeys the tiered rule among themselves: three equal
  // young components group (200 >= 1.2 * 100) without touching the
  // last-level run (2000 > 4 * 300).
  EXPECT_EQ(PickMergeCount(policy, Views({100, 100, 100, 2000})), 3u);
  // Steeply descending young sizes satisfy the tiered rule, and the
  // young part (11100 bytes) is under 1/4 of the big run: no merge.
  EXPECT_EQ(PickMergeCount(policy, Views({100, 1000, 10000, 100000})), 0u);
}

TEST(LazyLevelingPolicyTest, AbsorbsWhenYoungReachesFractionOfOldest) {
  const DatasetOptions policy = LazyLeveling(1.2, 5);
  // Young total 41000; 41000 * 4 >= 100000 — absorb everything into a
  // single new last-level run.
  EXPECT_EQ(PickMergeCount(policy, Views({30000, 1000, 10000, 100000})), 4u);
}

TEST(LazyLevelingPolicyTest, QuarantineHidesOldestAndYoungStillTiers) {
  const DatasetOptions policy = LazyLeveling(1.2, 5);
  std::vector<CompactionComponentView> views =
      Views({100, 100, 100, 500, 100000});
  views[3].quarantined = true;
  // The quarantined component hides the last-level run: the healthy
  // young prefix tiers among itself and never selects index 3 or 4.
  EXPECT_EQ(PickMergeCount(policy, views), 3u);
}

TEST(LazyLevelingPolicyTest, SimulatedIngestKeepsSingleLastLevelRun) {
  // Quiescent-state invariant: one big run at the bottom, a tiered
  // young part above it that never exceeds max_components.
  const DatasetOptions policy = LazyLeveling(1.2, 4);
  Rng rng(97);
  std::vector<uint64_t> sizes;
  for (int flush = 0; flush < 300; ++flush) {
    sizes.insert(sizes.begin(), 200 + rng.Uniform(801));
    for (;;) {
      const size_t count = PickMergeCount(policy, Views(sizes));
      if (count == 0) break;
      ApplyMerge(&sizes, count);
    }
    if (sizes.size() < 2) continue;
    // Young components stay under max_components, and their combined
    // size stays under 1/fanout of the last-level run.
    ASSERT_LE(sizes.size() - 1, 4u) << "flush " << flush;
    uint64_t young = 0;
    for (size_t i = 0; i + 1 < sizes.size(); ++i) young += sizes[i];
    ASSERT_LT(young * 4, sizes.back()) << "flush " << flush;
  }
}

// ------------------------------------------------- stall-limit contract

TEST(CompactionPolicyTest, StallLimitsDeriveFromThePolicy) {
  // Tiered keeps the historical hardcoded bound exactly (bit-for-bit
  // behavioral compatibility includes back-pressure).
  EXPECT_EQ(StallComponentLimit(Tiered(1.2, 5)), 10u);
  EXPECT_EQ(StallComponentLimit(Tiered(1.2, 3)), 6u);
  // Lazy-leveling leaves room for the tiered young part, the last-level
  // run and a merge output in flight.
  EXPECT_EQ(StallComponentLimit(LazyLeveling(1.2, 5)), 12u);
}

TEST(CompactionPolicyTest, OptionsAreValidated) {
  BufferCache cache(64 * kPage, kPage);
  DatasetOptions options;
  options.dir = testing::TempDir() + "/compaction_validate";
  // The policy arrives from outside the library, so an out-of-range
  // value is rejected, not run as some policy.
  options.compaction = static_cast<CompactionStrategy>(7);
  auto ds = Dataset::Open(options, &cache);
  ASSERT_FALSE(ds.ok());
  EXPECT_TRUE(ds.status().IsInvalidArgument()) << ds.status().ToString();
  EXPECT_NE(ds.status().ToString().find("DatasetOptions.compaction"),
            std::string::npos)
      << ds.status().ToString();
  std::filesystem::remove_all(options.dir);
}

// ------------------------------------- cross-policy result equivalence

Value MakeRecord(int64_t id, uint64_t version) {
  Value v = Value::MakeObject();
  v.Set("id", Value::Int(id));
  v.Set("name", Value::String("user_" + std::to_string(id) + "_v" +
                              std::to_string(version)));
  v.Set("score", Value::Double(static_cast<double>(id) * 0.25 +
                               static_cast<double>(version)));
  Value nested = Value::MakeObject();
  nested.Set("level", Value::Int(id % 5));
  v.Set("meta", std::move(nested));
  return v;
}

class CompactionEquivalenceTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/compaction_" +
           std::string(LayoutKindName(GetParam())) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(1024 * kPage, kPage);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  DatasetOptions BaseOptions(CompactionStrategy strategy) {
    DatasetOptions options;
    options.layout = GetParam();
    options.dir = dir_;
    options.name = std::string("ds_") + CompactionStrategyName(strategy);
    options.page_size = kPage;
    // Tiny memtable: the schedule below forces dozens of automatic
    // flushes, so each policy runs many real (inline, deterministic)
    // merges over genuinely overlapping components.
    options.memtable_bytes = 4 * 1024;
    options.compaction = strategy;
    options.amax_max_records = 64;
    return options;
  }

  static std::unique_ptr<Dataset> MustOpen(const DatasetOptions& options,
                                           BufferCache* cache) {
    auto ds = Dataset::Open(options, cache);
    EXPECT_TRUE(ds.ok()) << ds.status().ToString();
    return std::move(*ds);
  }

  static std::map<int64_t, std::string> ScanAll(Dataset* ds) {
    std::map<int64_t, std::string> out;
    auto cursor = ds->Scan(Projection::All());
    EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
    while (true) {
      auto ok = (*cursor)->Next();
      EXPECT_TRUE(ok.ok()) << ok.status().ToString();
      if (!*ok) break;
      Value v;
      Status st = (*cursor)->Record(&v);
      EXPECT_TRUE(st.ok()) << st.ToString();
      const int64_t key = (*cursor)->key();
      EXPECT_EQ(out.count(key), 0u) << "duplicate key " << key;
      out[key] = ToJson(v);
    }
    return out;
  }

  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
};

TEST_P(CompactionEquivalenceTest, PoliciesAgreeOnSeededSchedule) {
  constexpr CompactionStrategy kStrategies[] = {
      CompactionStrategy::kTiered, CompactionStrategy::kLazyLeveling};
  constexpr int64_t kKeySpace = 150;

  // One seeded schedule, replayed identically per policy (fresh Rng per
  // dataset so the op streams are byte-identical).
  std::vector<std::map<int64_t, std::string>> scans;
  for (CompactionStrategy strategy : kStrategies) {
    auto ds = MustOpen(BaseOptions(strategy), cache_.get());
    Rng rng(0xC0FFEE);
    for (int op = 0; op < 600; ++op) {
      const int64_t key = static_cast<int64_t>(rng.Uniform(kKeySpace));
      if (rng.Bernoulli(0.3)) {
        ASSERT_TRUE(ds->Delete(key).ok());
      } else {
        ASSERT_TRUE(
            ds->Insert(MakeRecord(key, static_cast<uint64_t>(op))).ok());
      }
    }
    ASSERT_TRUE(ds->Flush().ok());
    scans.push_back(ScanAll(ds.get()));
    // Point lookups across the whole key space must agree with the scan
    // (and therefore across policies).
    for (int64_t key = 0; key < kKeySpace; ++key) {
      Value v;
      Status st = ds->Lookup(key, &v);
      if (scans.back().count(key) == 0) {
        EXPECT_TRUE(st.IsNotFound()) << "key " << key << ": " << st.ToString();
      } else {
        ASSERT_TRUE(st.ok()) << "key " << key << ": " << st.ToString();
        EXPECT_EQ(ToJson(v), scans.back()[key]) << "key " << key;
      }
    }
    // The merge cadence must differ per policy, but stats stay sane.
    const DatasetStats stats = ds->stats();
    EXPECT_GT(stats.flushes, 0u);
    EXPECT_GE(stats.write_amplification(), 1.0);
  }
  ASSERT_EQ(scans.size(), 2u);
  EXPECT_EQ(scans[0], scans[1]) << "tiered vs lazy-leveling";
  EXPECT_FALSE(scans[0].empty());

  // Reopen every dataset (fresh manifest recovery) — and reopen each
  // under the other policy, which must be legal (the
  // policy is a runtime knob) and change nothing about the contents.
  for (size_t i = 0; i < 2; ++i) {
    DatasetOptions options = BaseOptions(kStrategies[i]);
    options.compaction = kStrategies[(i + 1) % 2];
    auto ds = MustOpen(options, cache_.get());
    EXPECT_EQ(ScanAll(ds.get()), scans[i])
        << "reopen of " << CompactionStrategyName(kStrategies[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, CompactionEquivalenceTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

// ------------------------------------------- lazy-leveling on real data

TEST(LazyLevelingDatasetTest, RealIngestKeepsSingleLastLevelRun) {
  const std::string dir = testing::TempDir() + "/compaction_lazy_real";
  std::filesystem::remove_all(dir);
  BufferCache cache(1024 * kPage, kPage);
  DatasetOptions options = LazyLeveling();
  options.layout = LayoutKind::kAmax;
  options.dir = dir;
  options.page_size = kPage;
  options.memtable_bytes = 8 * 1024;
  options.amax_max_records = 64;
  auto ds = Dataset::Open(options, &cache);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();

  Rng rng(7);
  for (int op = 0; op < 3000; ++op) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(900));
    ASSERT_TRUE(
        (*ds)->Insert(MakeRecord(key, static_cast<uint64_t>(op))).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());

  // Quiescent lazy-leveling invariant on the real component stack: the
  // young part (all but the oldest component) is tiered-quiet, and
  // together it is under a quarter of the oldest, last-level run.
  const size_t n = (*ds)->component_count();
  ASSERT_GE(n, 1u);
  std::vector<uint64_t> young;
  uint64_t young_bytes = 0;
  for (size_t i = 0; i + 1 < n; ++i) {
    young.push_back((*ds)->component(i).size_bytes());
    young_bytes += young.back();
  }
  EXPECT_EQ(ReferenceTieredCount(young, options.size_ratio,
                                 options.max_components),
            0u);
  EXPECT_LT(young_bytes * 4, (*ds)->component(n - 1).size_bytes());
  // The policy actually merged (this workload flushes dozens of times).
  EXPECT_GT((*ds)->stats().merges, 0u);
  ds->reset();
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- amplification stats

TEST(AmplificationStatsTest, ExactWriteAmpOnHandComputedScenario) {
  const std::string dir = testing::TempDir() + "/compaction_amp_exact";
  std::filesystem::remove_all(dir);
  BufferCache cache(512 * kPage, kPage);
  DatasetOptions options;
  options.layout = LayoutKind::kVb;
  options.dir = dir;
  options.page_size = kPage;
  options.memtable_bytes = 1u << 20;
  options.auto_merge = false;  // N flushes + exactly one full merge
  auto ds = Dataset::Open(options, &cache);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();

  int64_t key = 0;
  for (int flush = 0; flush < 3; ++flush) {
    for (int i = 0; i < 50; ++i, ++key) {
      ASSERT_TRUE((*ds)->Insert(MakeRecord(key, 1)).ok());
    }
    ASSERT_TRUE((*ds)->Flush().ok());
  }
  DatasetStats stats = (*ds)->stats();
  EXPECT_EQ(stats.flushes, 3u);
  EXPECT_EQ(stats.merges, 0u);
  EXPECT_EQ(stats.merged_bytes_in, 0u);
  EXPECT_EQ(stats.merge_bytes_out, 0u);
  // Before any merge, every byte on disk was written exactly once.
  uint64_t component_bytes = 0;
  for (size_t i = 0; i < (*ds)->component_count(); ++i) {
    component_bytes += (*ds)->component(i).size_bytes();
  }
  EXPECT_EQ((*ds)->component_count(), 3u);
  EXPECT_EQ(stats.flush_bytes_out, component_bytes);
  EXPECT_EQ(stats.on_disk_bytes, component_bytes);
  EXPECT_DOUBLE_EQ(stats.write_amplification(), 1.0);
  EXPECT_DOUBLE_EQ(stats.space_amplification(), 0.0);  // no baseline yet
  const uint64_t flush_bytes = stats.flush_bytes_out;

  ASSERT_TRUE((*ds)->MergeAll().ok());
  stats = (*ds)->stats();
  EXPECT_EQ(stats.merges, 1u);
  ASSERT_EQ((*ds)->component_count(), 1u);
  const uint64_t merged_size = (*ds)->component(0).size_bytes();
  // Hand-computable bookkeeping: the merge read the three flushed
  // components and wrote the single surviving one.
  EXPECT_EQ(stats.merged_bytes_in, flush_bytes);
  EXPECT_EQ(stats.merge_bytes_out, merged_size);
  EXPECT_EQ(stats.last_full_merge_bytes, merged_size);
  EXPECT_EQ(stats.on_disk_bytes, merged_size);
  EXPECT_EQ(stats.flush_bytes_out, flush_bytes);
  EXPECT_DOUBLE_EQ(
      stats.write_amplification(),
      static_cast<double>(flush_bytes + merged_size) /
          static_cast<double>(flush_bytes));
  // Fully merged: on-disk == live, space amplification exactly 1.
  EXPECT_DOUBLE_EQ(stats.space_amplification(), 1.0);
  ds->reset();
  std::filesystem::remove_all(dir);
}

TEST(AmplificationStatsTest, CountersMonotoneUnderRandomSchedule) {
  const std::string dir = testing::TempDir() + "/compaction_amp_monotone";
  std::filesystem::remove_all(dir);
  BufferCache cache(512 * kPage, kPage);
  DatasetOptions options;
  options.layout = LayoutKind::kAmax;
  options.dir = dir;
  options.page_size = kPage;
  options.memtable_bytes = 4 * 1024;
  options.amax_max_records = 64;
  options.compaction = CompactionStrategy::kLazyLeveling;
  auto ds = Dataset::Open(options, &cache);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();

  Rng rng(1234);
  DatasetStats previous = (*ds)->stats();
  for (int round = 0; round < 40; ++round) {
    for (int op = 0; op < 50; ++op) {
      const int64_t key = static_cast<int64_t>(rng.Uniform(400));
      if (rng.Bernoulli(0.2)) {
        ASSERT_TRUE((*ds)->Delete(key).ok());
      } else {
        ASSERT_TRUE(
            (*ds)->Insert(MakeRecord(key, static_cast<uint64_t>(round))).ok());
      }
    }
    if (rng.Bernoulli(0.25)) {
      ASSERT_TRUE((*ds)->Flush().ok());
    }
    const DatasetStats stats = (*ds)->stats();
    // Byte *counters* never move backwards, whatever the merge cadence.
    EXPECT_GE(stats.flush_bytes_out, previous.flush_bytes_out);
    EXPECT_GE(stats.merge_bytes_out, previous.merge_bytes_out);
    EXPECT_GE(stats.merged_bytes_in, previous.merged_bytes_in);
    EXPECT_GE(stats.flushes, previous.flushes);
    EXPECT_GE(stats.merges, previous.merges);
    if (stats.flush_bytes_out > 0) {
      EXPECT_GE(stats.write_amplification(), 1.0);
    }
    previous = stats;
  }
  ds->reset();
  std::filesystem::remove_all(dir);
}

TEST(AmplificationStatsTest, SurvivesStoreHealthRollup) {
  const std::string dir = testing::TempDir() + "/compaction_amp_health";
  std::filesystem::remove_all(dir);
  StoreOptions store_options;
  store_options.dir = dir;
  store_options.page_size = kPage;
  store_options.cache_bytes = 512 * kPage;
  auto store = Store::Open(store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  DatasetOptions options;
  options.layout = LayoutKind::kAmax;
  options.memtable_bytes = 4 * 1024;
  options.amax_max_records = 64;
  options.compaction = CompactionStrategy::kLazyLeveling;
  auto ds = (*store)->OpenDataset("docs", options);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  // The dataset's own policy survives OpenDataset.
  EXPECT_EQ((*ds)->options().compaction, CompactionStrategy::kLazyLeveling);
  for (int64_t key = 0; key < 600; ++key) {
    ASSERT_TRUE((*ds)->Insert(MakeRecord(key, 1)).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());
  ASSERT_TRUE((*ds)->MergeAll().ok());

  const DatasetStats stats = (*ds)->stats();
  const std::vector<DatasetHealth> health = (*store)->Health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].name, "docs");
  EXPECT_EQ(health[0].stats.flush_bytes_out, stats.flush_bytes_out);
  EXPECT_EQ(health[0].stats.merged_bytes_in, stats.merged_bytes_in);
  EXPECT_EQ(health[0].stats.merge_bytes_out, stats.merge_bytes_out);
  EXPECT_GT(health[0].stats.flush_bytes_out, 0u);
  EXPECT_GT(health[0].stats.merge_bytes_out, 0u);
  EXPECT_DOUBLE_EQ(health[0].stats.write_amplification(),
                   stats.write_amplification());
  EXPECT_DOUBLE_EQ(health[0].stats.space_amplification(), 1.0);
  ASSERT_TRUE((*store)->Close().ok());
  store->reset();
  std::filesystem::remove_all(dir);
}

// -------------------------------- lazy-leveling back-pressure regression

// The writer-stall threshold derives from the active policy. Extends the
// tiered re-arm regression (wal_test.cc): under lazy-leveling, with its
// larger stall bound, a background flush fault must surface to a writer
// (never wedge on the policy-derived component bound) and the dataset
// must fully recover once the fault clears.
TEST(DatasetBackpressureTest, LazyLevelingPolicyRecoversAfterFlushFault) {
  const std::string dir =
      testing::TempDir() + "/compaction_backpressure_lazy";
  std::filesystem::remove_all(dir);
  FaultInjectionFs fault_fs;
  StoreOptions store_options;
  store_options.dir = dir;
  store_options.page_size = kPage;
  store_options.cache_bytes = 512 * kPage;
  store_options.background_threads = 1;
  store_options.fs = &fault_fs;
  store_options.io_retry.max_retries = 1;
  store_options.io_retry.initial_backoff_micros = 100;
  auto store = Store::Open(store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  DatasetOptions options;
  options.layout = LayoutKind::kAmax;
  options.memtable_bytes = 2 * 1024;  // a handful of records per memtable
  options.max_immutable_memtables = 1;
  options.amax_max_records = 200;
  // A small young part: merges are frequent and the stall bound is
  // StallComponentLimit = 2 * 2 + 2 = 6 components.
  options.max_components = 2;
  options.compaction = CompactionStrategy::kLazyLeveling;
  auto ds = (*store)->OpenDataset("docs", options);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ((*ds)->options().compaction, CompactionStrategy::kLazyLeveling);

  {
    FaultRule rule;
    rule.path_substring = ".cmp.tmp";
    rule.op = FaultOp::kCreate;
    fault_fs.AddRule(rule);
  }

  Value record = Value::MakeObject();
  std::vector<int64_t> acked;
  Status seen_error;
  int64_t key = 0;
  for (int i = 0; i < 5000 && seen_error.ok(); ++i, ++key) {
    record.Set("id", Value::Int(key));
    record.Set("name", Value::String("k" + std::to_string(key)));
    Status st = (*ds)->Insert(record);
    if (st.ok()) {
      acked.push_back(key);
    } else {
      seen_error = st;  // must surface here — not hang in the stall
    }
  }
  ASSERT_FALSE(seen_error.ok()) << "flush fault never surfaced to a writer";

  fault_fs.ClearRules();
  EXPECT_GT(fault_fs.injected_errors(), 0u);
  int post_failures = 0;
  for (int i = 0; i < 400; ++i, ++key) {
    record.Set("id", Value::Int(key));
    record.Set("name", Value::String("k" + std::to_string(key)));
    Status st = (*ds)->Insert(record);
    if (st.ok()) {
      acked.push_back(key);
    } else {
      ++post_failures;  // at most the already-recorded error drains here
    }
  }
  EXPECT_LE(post_failures, 2);
  ASSERT_TRUE((*ds)->Flush().ok());
  ASSERT_TRUE((*ds)->WaitForBackgroundWork().ok());

  {
    auto snapshot = (*ds)->GetSnapshot();
    auto cursor = snapshot->Scan(Projection::All());
    ASSERT_TRUE(cursor.ok());
    size_t scanned = 0;
    while (true) {
      auto ok = (*cursor)->Next();
      ASSERT_TRUE(ok.ok());
      if (!*ok) break;
      ++scanned;
    }
    EXPECT_EQ(scanned, acked.size());
  }
  // The policy kept merging through the run (its write-amp
  // bookkeeping confirms real merges happened under back-pressure).
  EXPECT_GT((*ds)->stats().merges, 0u);
  ASSERT_TRUE((*store)->Close().ok());
  store->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lsmcol
