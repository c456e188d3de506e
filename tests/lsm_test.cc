// Integration tests for the LSM engine across all four layouts: flush,
// tiering merges (including the columnar vertical merge), reconciliation
// of upserts/deletes/anti-matter, seeks, and batched point lookups.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "src/common/rng.h"
#include "src/json/parser.h"
#include "src/lsm/dataset.h"

namespace lsmcol {
namespace {

constexpr size_t kPage = 8192;  // small pages exercise leaf machinery

class LsmTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/lsm_" +
           std::string(LayoutKindName(GetParam())) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(512 * kPage, kPage);
  }

  void TearDown() override {
    dataset_.reset();
    std::filesystem::remove_all(dir_);
  }

  DatasetOptions DefaultOptions() {
    DatasetOptions options;
    options.layout = GetParam();
    options.dir = dir_;
    options.page_size = kPage;
    options.memtable_bytes = 64 * 1024;
    options.amax_max_records = 500;
    return options;
  }

  void Open(const DatasetOptions& options) {
    auto ds = Dataset::Open(options, cache_.get());
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = std::move(*ds);
  }

  Value MakeRecord(int64_t id, Rng* rng) {
    Value v = Value::MakeObject();
    v.Set("id", Value::Int(id));
    v.Set("name", Value::String("user_" + std::to_string(id)));
    v.Set("score", Value::Double(static_cast<double>(id) * 0.5));
    v.Set("active", Value::Bool(id % 2 == 0));
    Value tags = Value::MakeArray();
    for (uint64_t t = 0; t < rng->Uniform(4); ++t) {
      tags.Push(Value::String("tag" + std::to_string(rng->Uniform(10))));
    }
    v.Set("tags", std::move(tags));
    Value nested = Value::MakeObject();
    nested.Set("level", Value::Int(static_cast<int64_t>(rng->Uniform(5))));
    v.Set("meta", std::move(nested));
    return v;
  }

  // Scan everything and return records keyed by id.
  std::map<int64_t, Value> ScanAll() { return ScanAllOf(dataset_.get()); }
  std::map<int64_t, Value> ScanAllOf(Dataset* dataset) {
    std::map<int64_t, Value> out;
    auto cursor = dataset->Scan(Projection::All());
    EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
    while (true) {
      auto ok = (*cursor)->Next();
      EXPECT_TRUE(ok.ok()) << ok.status().ToString();
      if (!*ok) break;
      Value v;
      Status st = (*cursor)->Record(&v);
      EXPECT_TRUE(st.ok()) << st.ToString();
      int64_t key = (*cursor)->key();
      EXPECT_EQ(out.count(key), 0u) << "duplicate key " << key;
      out[key] = std::move(v);
    }
    return out;
  }

  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
  std::unique_ptr<Dataset> dataset_;
};

TEST_P(LsmTest, InsertScanWithoutFlush) {
  Open(DefaultOptions());
  Rng rng(1);
  std::map<int64_t, Value> expected;
  for (int64_t i = 0; i < 50; ++i) {
    Value v = MakeRecord(i, &rng);
    expected[i] = v;
    ASSERT_TRUE(dataset_->Insert(v).ok());
  }
  EXPECT_EQ(dataset_->component_count(), 0u);
  auto got = ScanAll();
  ASSERT_EQ(got.size(), expected.size());
  for (const auto& [k, v] : expected) {
    EXPECT_TRUE(ValueEquivalent(got[k], v))
        << k << ": " << ToJson(got[k]) << " vs " << ToJson(v);
  }
}

TEST_P(LsmTest, FlushPersistsRecords) {
  Open(DefaultOptions());
  Rng rng(2);
  std::map<int64_t, Value> expected;
  for (int64_t i = 0; i < 200; ++i) {
    Value v = MakeRecord(i * 3, &rng);
    expected[i * 3] = v;
    ASSERT_TRUE(dataset_->Insert(v).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  EXPECT_GE(dataset_->component_count(), 1u);
  EXPECT_TRUE(dataset_->GetSnapshot()->memtable().empty());
  EXPECT_GT(dataset_->OnDiskBytes(), 0u);
  auto got = ScanAll();
  ASSERT_EQ(got.size(), expected.size());
  for (const auto& [k, v] : expected) {
    EXPECT_TRUE(ValueEquivalent(got[k], v)) << k;
  }
}

TEST_P(LsmTest, UpsertAcrossComponentsNewestWins) {
  Open(DefaultOptions());
  Rng rng(3);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(dataset_->Insert(MakeRecord(i, &rng)).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  // Overwrite even ids with a marker field.
  for (int64_t i = 0; i < 100; i += 2) {
    Value v = MakeRecord(i, &rng);
    v.Set("version", Value::Int(2));
    ASSERT_TRUE(dataset_->Insert(v).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  auto got = ScanAll();
  ASSERT_EQ(got.size(), 100u);
  for (int64_t i = 0; i < 100; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(got[i].Get("version").int_value(), 2) << i;
    } else {
      EXPECT_TRUE(got[i].Get("version").is_missing()) << i;
    }
  }
}

TEST_P(LsmTest, DeleteAnnihilatesAcrossComponents) {
  Open(DefaultOptions());
  Rng rng(4);
  for (int64_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(dataset_->Insert(MakeRecord(i, &rng)).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  for (int64_t i = 0; i < 60; i += 3) {
    ASSERT_TRUE(dataset_->Delete(i).ok());
  }
  // Half the deletes stay in the memtable, half get flushed.
  ASSERT_TRUE(dataset_->Flush().ok());
  auto got = ScanAll();
  EXPECT_EQ(got.size(), 40u);
  for (int64_t i = 0; i < 60; ++i) {
    EXPECT_EQ(got.count(i), i % 3 == 0 ? 0u : 1u) << i;
  }
  Value out;
  EXPECT_TRUE(dataset_->Lookup(0, &out).IsNotFound());
  EXPECT_TRUE(dataset_->Lookup(1, &out).ok());
}

TEST_P(LsmTest, MergeAllCompactsToOneComponent) {
  auto options = DefaultOptions();
  options.auto_merge = false;
  Open(options);
  Rng rng(5);
  std::map<int64_t, Value> expected;
  for (int round = 0; round < 4; ++round) {
    for (int64_t i = round * 50; i < (round + 1) * 50; ++i) {
      Value v = MakeRecord(i, &rng);
      expected[i] = v;
      ASSERT_TRUE(dataset_->Insert(v).ok());
    }
    ASSERT_TRUE(dataset_->Flush().ok());
  }
  EXPECT_EQ(dataset_->component_count(), 4u);
  ASSERT_TRUE(dataset_->MergeAll().ok());
  EXPECT_EQ(dataset_->component_count(), 1u);
  auto got = ScanAll();
  ASSERT_EQ(got.size(), expected.size());
  for (const auto& [k, v] : expected) {
    EXPECT_TRUE(ValueEquivalent(got[k], v))
        << k << "\n got: " << ToJson(got[k]) << "\n exp: " << ToJson(v);
  }
}

TEST_P(LsmTest, MergeDropsAnnihilatedPairsAndKeepsAntiMatterOtherwise) {
  auto options = DefaultOptions();
  options.auto_merge = false;
  Open(options);
  Rng rng(6);
  // Component 1 (oldest): ids 0..29.
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(dataset_->Insert(MakeRecord(i, &rng)).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  // Component 2: deletes of 0..9.
  for (int64_t i = 0; i < 10; ++i) ASSERT_TRUE(dataset_->Delete(i).ok());
  ASSERT_TRUE(dataset_->Flush().ok());
  // Component 3: re-insert 0..4.
  for (int64_t i = 0; i < 5; ++i) {
    Value v = MakeRecord(i, &rng);
    v.Set("rebirth", Value::Bool(true));
    ASSERT_TRUE(dataset_->Insert(v).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  ASSERT_EQ(dataset_->component_count(), 3u);
  ASSERT_TRUE(dataset_->MergeAll().ok());
  auto got = ScanAll();
  EXPECT_EQ(got.size(), 25u);  // 30 - 10 deleted + 5 reborn
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(got[i].Get("rebirth").bool_value()) << i;
  }
  for (int64_t i = 5; i < 10; ++i) EXPECT_EQ(got.count(i), 0u) << i;
}

TEST_P(LsmTest, PartialMergeKeepsAntiMatterForOlderComponents) {
  auto options = DefaultOptions();
  options.auto_merge = false;
  Open(options);
  Rng rng(7);
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(dataset_->Insert(MakeRecord(i, &rng)).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());  // oldest: 0..19
  for (int64_t i = 0; i < 10; ++i) ASSERT_TRUE(dataset_->Delete(i).ok());
  ASSERT_TRUE(dataset_->Flush().ok());
  for (int64_t i = 100; i < 110; ++i) {
    ASSERT_TRUE(dataset_->Insert(MakeRecord(i, &rng)).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  ASSERT_EQ(dataset_->component_count(), 3u);
  // Merge only the two NEWEST components; anti-matter must survive so the
  // oldest component's records stay deleted.
  // (MaybeMerge would decide on sizes; force the range via MergeAll of a
  // sub-range is internal, so emulate by checking the policy result.)
  auto scan1 = ScanAll();
  EXPECT_EQ(scan1.size(), 20u);  // 10 survivors + 10 new
  ASSERT_TRUE(dataset_->MaybeMerge().ok());
  auto scan2 = ScanAll();
  EXPECT_EQ(scan2.size(), 20u);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(scan2.count(i), 0u) << i;
}

TEST_P(LsmTest, AutoFlushAndPolicyKeepComponentCountBounded) {
  auto options = DefaultOptions();
  options.memtable_bytes = 16 * 1024;
  Open(options);
  Rng rng(8);
  for (int64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(dataset_->Insert(MakeRecord(i, &rng)).ok());
  }
  EXPECT_GT(dataset_->stats().flushes, 2u);
  EXPECT_LE(dataset_->component_count(),
            static_cast<size_t>(options.max_components) + 1);
  auto got = ScanAll();
  EXPECT_EQ(got.size(), 3000u);
}

TEST_P(LsmTest, SeekForwardSkipsLeaves) {
  Open(DefaultOptions());
  Rng rng(9);
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(dataset_->Insert(MakeRecord(i, &rng)).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  auto cursor = dataset_->Scan(Projection::All());
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE((*cursor)->SeekForward(1500).ok());
  auto ok = (*cursor)->Next();
  ASSERT_TRUE(ok.ok());
  ASSERT_TRUE(*ok);
  EXPECT_EQ((*cursor)->key(), 1500);
  // Seek again further ahead.
  ASSERT_TRUE((*cursor)->SeekForward(1999).ok());
  ok = (*cursor)->Next();
  ASSERT_TRUE(ok.ok());
  ASSERT_TRUE(*ok);
  EXPECT_EQ((*cursor)->key(), 1999);
  ok = (*cursor)->Next();
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(*ok);
}

TEST_P(LsmTest, LookupBatchAscending) {
  Open(DefaultOptions());
  Rng rng(10);
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(dataset_->Insert(MakeRecord(i * 2, &rng)).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  auto batch = dataset_->NewLookupBatch(Projection::All());
  ASSERT_TRUE(batch.ok());
  int found_count = 0;
  for (int64_t key = 0; key < 1000; key += 7) {
    bool found = false;
    Value v;
    ASSERT_TRUE((*batch)->Find(key, &found, &v).ok());
    EXPECT_EQ(found, key % 2 == 0) << key;
    if (found) {
      ++found_count;
      EXPECT_EQ(v.Get("id").int_value(), key);
    }
  }
  EXPECT_GT(found_count, 50);
}

TEST_P(LsmTest, ProjectionScanReturnsOnlyRequestedFields) {
  Open(DefaultOptions());
  Rng rng(11);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(dataset_->Insert(MakeRecord(i, &rng)).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  auto cursor = dataset_->Scan(Projection::Of({{"name"}}));
  ASSERT_TRUE(cursor.ok());
  size_t n = 0;
  while (true) {
    auto ok = (*cursor)->Next();
    ASSERT_TRUE(ok.ok());
    if (!*ok) break;
    Value name;
    ASSERT_TRUE((*cursor)->Path({"name"}, &name).ok());
    EXPECT_TRUE(name.is_string());
    EXPECT_EQ(name.string_value(),
              "user_" + std::to_string((*cursor)->key()));
    ++n;
  }
  EXPECT_EQ(n, 100u);
}

TEST_P(LsmTest, SchemaEvolutionAcrossFlushes) {
  Open(DefaultOptions());
  // First flush: minimal records. Later flushes add fields and change a
  // field's type (string -> object union).
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(dataset_->InsertJson(
        "{\"id\": " + std::to_string(i) + ", \"v\": \"s" +
        std::to_string(i) + "\"}").ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  for (int64_t i = 20; i < 40; ++i) {
    ASSERT_TRUE(dataset_->InsertJson(
        "{\"id\": " + std::to_string(i) + ", \"v\": {\"deep\": " +
        std::to_string(i) + "}, \"fresh\": [1, 2]}").ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  auto got = ScanAll();
  ASSERT_EQ(got.size(), 40u);
  EXPECT_EQ(got[5].Get("v").string_value(), "s5");
  EXPECT_EQ(got[25].Get("v").Get("deep").int_value(), 25);
  EXPECT_TRUE(got[5].Get("fresh").is_missing());
  ASSERT_TRUE(got[25].Get("fresh").is_array());
  // Merging mixed-schema components must also work.
  ASSERT_TRUE(dataset_->MergeAll().ok());
  auto merged = ScanAll();
  ASSERT_EQ(merged.size(), 40u);
  EXPECT_EQ(merged[5].Get("v").string_value(), "s5");
  EXPECT_EQ(merged[25].Get("v").Get("deep").int_value(), 25);
}

TEST_P(LsmTest, RandomizedWorkloadMatchesReferenceModel) {
  auto options = DefaultOptions();
  options.memtable_bytes = 24 * 1024;
  Open(options);
  Rng rng(12345);
  std::map<int64_t, Value> model;
  for (int op = 0; op < 4000; ++op) {
    int64_t key = static_cast<int64_t>(rng.Uniform(600));
    if (rng.Bernoulli(0.2) && !model.empty()) {
      ASSERT_TRUE(dataset_->Delete(key).ok());
      model.erase(key);
    } else {
      Value v = MakeRecord(key, &rng);
      v.Set("op", Value::Int(op));
      model[key] = v;
      ASSERT_TRUE(dataset_->Insert(v).ok());
    }
  }
  auto got = ScanAll();
  ASSERT_EQ(got.size(), model.size());
  for (const auto& [k, v] : model) {
    ASSERT_EQ(got.count(k), 1u) << k;
    EXPECT_TRUE(ValueEquivalent(got[k], v))
        << k << "\n got: " << ToJson(got[k]) << "\n exp: " << ToJson(v);
  }
  // Point lookups agree with the model too.
  for (int64_t key = 0; key < 600; key += 13) {
    Value out;
    Status st = dataset_->Lookup(key, &out);
    if (model.count(key)) {
      EXPECT_TRUE(st.ok()) << key << ": " << st.ToString();
    } else {
      EXPECT_TRUE(st.IsNotFound()) << key;
    }
  }
}

// Merge inputs are read around the cache: merging a dataset larger than
// the whole cache leaves another dataset's warm units resident, so its
// reads stay hits.
TEST_P(LsmTest, MergeLeavesHotDecodedUnitsResident) {
  BufferCache cache(32 * kPage, kPage);
  DatasetOptions hot_options = DefaultOptions();
  hot_options.dir = dir_ + "/hot";
  DatasetOptions big_options = DefaultOptions();
  big_options.dir = dir_ + "/big";
  big_options.auto_merge = false;
  std::filesystem::create_directories(hot_options.dir);
  std::filesystem::create_directories(big_options.dir);
  auto hot = Dataset::Open(hot_options, &cache);
  ASSERT_TRUE(hot.ok()) << hot.status().ToString();
  auto big = Dataset::Open(big_options, &cache);
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  Rng rng(12);
  for (int64_t id = 0; id < 100; ++id) {
    ASSERT_TRUE((*hot)->Insert(MakeRecord(id, &rng)).ok());
  }
  ASSERT_TRUE((*hot)->Flush().ok());
  // Overlapping rewrites, so the merge reads every input leaf.
  for (int round = 0; round < 3; ++round) {
    for (int64_t id = round; id < 9000; id += 2) {
      ASSERT_TRUE((*big)->Insert(MakeRecord(id, &rng)).ok());
    }
    ASSERT_TRUE((*big)->Flush().ok());
  }
  uint64_t big_pages = 0;
  {
    auto snapshot = (*big)->GetSnapshot();
    for (size_t c = 0; c < snapshot->component_count(); ++c) {
      for (const auto& leaf : snapshot->component(c).reader().leaves()) {
        big_pages += leaf.page_count;
      }
    }
  }
  ASSERT_GT(big_pages, 48u);  // installing them would evict the rest

  auto read_hot = [&] {
    Value out;
    for (int64_t id = 0; id < 100; ++id) {
      ASSERT_TRUE((*hot)->Lookup(id, &out).ok()) << id;
    }
    ASSERT_EQ(ScanAllOf(hot->get()).size(), 100u);
  };
  read_hot();
  ASSERT_LT(cache.cached_bytes(), 16 * kPage);
  cache.ResetStats();
  read_hot();
  ASSERT_EQ(cache.stats().misses, 0u);

  ASSERT_TRUE((*big)->MergeAll().ok());
  ASSERT_EQ((*big)->component_count(), 1u);
  cache.ResetStats();
  read_hot();
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().pages_read, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, LsmTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

// AMAX megapages share physical pages. A cold read of every column loads
// each megapage as its own cached unit, yet reads each page at most once;
// the warm re-read is served from the decoded units without any I/O.
TEST(AmaxIoTest, ColdFullReadReadsEachPageOnce) {
  const std::string dir = testing::TempDir() + "/amax_pages_once";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  BufferCache cache(4096 * kPage, kPage);
  DatasetOptions options;
  options.layout = LayoutKind::kAmax;
  options.dir = dir;
  options.page_size = kPage;
  options.amax_max_records = 2000;
  auto ds = Dataset::Open(options, &cache);
  ASSERT_TRUE(ds.ok());
  Rng rng(3);
  for (int64_t i = 0; i < 3000; ++i) {
    Value v = Value::MakeObject();
    v.Set("id", Value::Int(i));
    for (int f = 0; f < 24; ++f) {  // many small megapages
      v.Set("f" + std::to_string(f), Value::Int(rng.Uniform(1000)));
    }
    v.Set("text", Value::String(rng.Word(20, 60)));
    ASSERT_TRUE((*ds)->Insert(v).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());
  uint64_t leaf_pages = 0;
  {
    auto snapshot = (*ds)->GetSnapshot();
    for (size_t c = 0; c < snapshot->component_count(); ++c) {
      for (const auto& leaf : snapshot->component(c).reader().leaves()) {
        leaf_pages += leaf.page_count;
      }
    }
  }
  auto read_all = [&] {
    auto cursor = (*ds)->Scan(Projection::All());
    ASSERT_TRUE(cursor.ok());
    Value v;
    while (true) {
      auto ok = (*cursor)->Next();
      ASSERT_TRUE(ok.ok());
      if (!*ok) break;
      ASSERT_TRUE((*cursor)->Record(&v).ok());
    }
  };
  cache.Clear();
  cache.ResetStats();
  read_all();
  EXPECT_GT(cache.stats().pages_read, 0u);
  EXPECT_LE(cache.stats().pages_read, leaf_pages);
  cache.ResetStats();
  read_all();
  EXPECT_EQ(cache.stats().pages_read, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  ds->reset();
  std::filesystem::remove_all(dir);
}

// Layout-specific behaviour: AMAX column reads touch only needed pages.
TEST(AmaxIoTest, ProjectionLimitsBytesRead) {
  const std::string dir = testing::TempDir() + "/amax_io";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  BufferCache cache(4096 * kPage, kPage);
  DatasetOptions options;
  options.layout = LayoutKind::kAmax;
  options.dir = dir;
  options.page_size = kPage;
  options.memtable_bytes = 8u << 20;
  options.amax_max_records = 2000;
  options.compress = false;  // keep megapages wide
  auto ds = Dataset::Open(options, &cache);
  ASSERT_TRUE(ds.ok());
  // A fat text column and a small int column.
  Rng rng(1);
  for (int64_t i = 0; i < 4000; ++i) {
    Value v = Value::MakeObject();
    v.Set("id", Value::Int(i));
    v.Set("small", Value::Int(i % 97));
    v.Set("fat", Value::String(rng.Word(300, 400)));
    ASSERT_TRUE((*ds)->Insert(v).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());

  auto count_bytes = [&](const Projection& projection, bool touch) {
    cache.Clear();  // cold-cache measurement
    cache.ResetStats();
    auto cursor = (*ds)->Scan(projection);
    EXPECT_TRUE(cursor.ok());
    while (true) {
      auto ok = (*cursor)->Next();
      EXPECT_TRUE(ok.ok());
      if (!*ok) break;
      if (touch) {
        Value v;
        EXPECT_TRUE((*cursor)->Record(&v).ok());
      }
    }
    return cache.stats().bytes_read;
  };

  // COUNT(*)-style: keys only — reads Page 0s only.
  uint64_t keys_only = count_bytes(Projection::Of({}), false);
  uint64_t small_col = count_bytes(Projection::Of({{"small"}}), true);
  uint64_t fat_col = count_bytes(Projection::Of({{"fat"}}), true);
  EXPECT_LT(keys_only, small_col);
  EXPECT_LT(small_col, fat_col / 2);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lsmcol
