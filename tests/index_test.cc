// Tests for the secondary index, primary-key index, and the §4.6
// maintenance/read protocols of IndexedDataset.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "src/common/rng.h"
#include "src/index/indexed_dataset.h"

namespace lsmcol {
namespace {

constexpr size_t kPage = 8192;

class SecondaryIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/sidx_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(256 * kPage, kPage);
    SecondaryIndexOptions options;
    options.dir = dir_;
    options.page_size = kPage;
    options.memtable_entries = 100;
    auto index = SecondaryIndex::Create(options, cache_.get());
    ASSERT_TRUE(index.ok());
    index_ = std::move(*index);
  }
  void TearDown() override {
    index_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::set<std::pair<int64_t, int64_t>> Range(int64_t lo, int64_t hi) {
    std::vector<IndexEntry> entries;
    Status st = index_->ScanRange(lo, hi, &entries);
    EXPECT_TRUE(st.ok()) << st.ToString();
    std::set<std::pair<int64_t, int64_t>> out;
    for (const auto& e : entries) out.insert({e.secondary_key, e.primary_key});
    return out;
  }

  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
  std::unique_ptr<SecondaryIndex> index_;
};

TEST_F(SecondaryIndexTest, InsertAndRangeScanInMemory) {
  ASSERT_TRUE(index_->Insert(10, 1).ok());
  ASSERT_TRUE(index_->Insert(20, 2).ok());
  ASSERT_TRUE(index_->Insert(20, 3).ok());
  ASSERT_TRUE(index_->Insert(30, 4).ok());
  auto got = Range(15, 25);
  EXPECT_EQ(got, (std::set<std::pair<int64_t, int64_t>>{{20, 2}, {20, 3}}));
  EXPECT_EQ(Range(INT64_MIN, INT64_MAX).size(), 4u);
}

TEST_F(SecondaryIndexTest, DeleteHidesEntryAcrossFlush) {
  ASSERT_TRUE(index_->Insert(10, 1).ok());
  ASSERT_TRUE(index_->Insert(10, 2).ok());
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(index_->Delete(10, 1).ok());
  auto got = Range(10, 10);
  EXPECT_EQ(got, (std::set<std::pair<int64_t, int64_t>>{{10, 2}}));
  ASSERT_TRUE(index_->Flush().ok());
  EXPECT_EQ(Range(10, 10),
            (std::set<std::pair<int64_t, int64_t>>{{10, 2}}));
}

TEST_F(SecondaryIndexTest, FlushAndAutoMergeKeepCorrectness) {
  Rng rng(1);
  std::set<std::pair<int64_t, int64_t>> model;
  for (int64_t pk = 0; pk < 1500; ++pk) {
    int64_t sk = static_cast<int64_t>(rng.Uniform(200));
    if (model.count({sk, pk}) == 0 && rng.Bernoulli(0.9)) {
      ASSERT_TRUE(index_->Insert(sk, pk).ok());
      model.insert({sk, pk});
    }
  }
  // memtable_entries=100 → many flushes and auto-merges happened.
  EXPECT_LE(index_->component_count(), 6u);
  EXPECT_EQ(Range(INT64_MIN, INT64_MAX), model);
  // Spot ranges.
  for (int64_t lo = 0; lo < 200; lo += 37) {
    std::set<std::pair<int64_t, int64_t>> expected;
    for (const auto& e : model) {
      if (e.first >= lo && e.first <= lo + 10) expected.insert(e);
    }
    EXPECT_EQ(Range(lo, lo + 10), expected) << lo;
  }
}

TEST_F(SecondaryIndexTest, ReinsertAfterDelete) {
  ASSERT_TRUE(index_->Insert(5, 100).ok());
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(index_->Delete(5, 100).ok());
  ASSERT_TRUE(index_->Flush().ok());
  ASSERT_TRUE(index_->Insert(5, 100).ok());
  EXPECT_EQ(Range(5, 5),
            (std::set<std::pair<int64_t, int64_t>>{{5, 100}}));
  ASSERT_TRUE(index_->MergeAll().ok());
  EXPECT_EQ(Range(5, 5),
            (std::set<std::pair<int64_t, int64_t>>{{5, 100}}));
  EXPECT_EQ(index_->component_count(), 1u);
}

TEST_F(SecondaryIndexTest, ContainsProbe) {
  ASSERT_TRUE(index_->Insert(42, 0).ok());
  ASSERT_TRUE(index_->Flush().ok());
  EXPECT_TRUE(*index_->Contains(42));
  EXPECT_FALSE(*index_->Contains(41));
}

TEST_F(SecondaryIndexTest, FailedMergeAllKeepsMemtableEntries) {
  for (int64_t i = 0; i < 10; ++i) ASSERT_TRUE(index_->Insert(i, i).ok());
  ASSERT_TRUE(index_->Flush().ok());  // index_1.idx
  ASSERT_TRUE(index_->Insert(50, 50).ok());
  // The merge's output path is taken by a directory: it cannot be created.
  const std::string blocker = dir_ + "/index_2.idx";
  std::filesystem::create_directory(blocker);
  EXPECT_FALSE(index_->MergeAll().ok());
  std::filesystem::remove_all(blocker);
  EXPECT_EQ(Range(50, 50),
            (std::set<std::pair<int64_t, int64_t>>{{50, 50}}));
  ASSERT_TRUE(index_->MergeAll().ok());
  EXPECT_EQ(Range(INT64_MIN, INT64_MAX).size(), 11u);
}

TEST_F(SecondaryIndexTest, WarmScanReadsNoPages) {
  for (int64_t i = 0; i < 50; ++i) ASSERT_TRUE(index_->Insert(i, i).ok());
  ASSERT_TRUE(index_->Flush().ok());
  EXPECT_EQ(Range(10, 20).size(), 11u);
  cache_->ResetStats();
  EXPECT_EQ(Range(10, 20).size(), 11u);
  EXPECT_EQ(cache_->stats().misses, 0u);
  EXPECT_EQ(cache_->stats().pages_read, 0u);
  EXPECT_GT(cache_->stats().hits, 0u);
}

TEST_F(SecondaryIndexTest, MergeAllCachesNoInputUnit) {
  // Room for a warm unit of another index plus about one merge input, so
  // installing the inputs would evict the warm unit.
  BufferCache cache(3 * kPage, kPage);
  SecondaryIndexOptions options;
  options.dir = dir_;
  options.page_size = kPage;
  options.name = "warm";
  auto warm = SecondaryIndex::Create(options, &cache);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE((*warm)->Insert(1, 1).ok());
  ASSERT_TRUE((*warm)->Flush().ok());
  ASSERT_TRUE((*warm)->Contains(1).ok());
  const size_t warm_bytes = cache.cached_bytes();
  ASSERT_GT(warm_bytes, 0u);

  options.name = "merged";
  auto merged = SecondaryIndex::Create(options, &cache);
  ASSERT_TRUE(merged.ok());
  Rng rng(3);
  for (int component = 0; component < 4; ++component) {
    for (int i = 0; i < 600; ++i) {
      ASSERT_TRUE((*merged)
                      ->Insert(static_cast<int64_t>(rng.Next()),
                               static_cast<int64_t>(rng.Next()))
                      .ok());
    }
    ASSERT_TRUE((*merged)->Flush().ok());
  }
  ASSERT_GT((*merged)->OnDiskBytes(), 3 * kPage);
  cache.ResetStats();
  ASSERT_TRUE((*merged)->MergeAll().ok());
  EXPECT_EQ(cache.stats().misses, 4u);  // one leaf per input, read once
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.cached_bytes(), warm_bytes);
  ASSERT_TRUE((*warm)->Contains(1).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(SecondaryIndexTest, CorruptLeafIsChecksumMismatch) {
  for (int64_t i = 0; i < 50; ++i) ASSERT_TRUE(index_->Insert(i, i).ok());
  ASSERT_TRUE(index_->Flush().ok());
  EXPECT_EQ(Range(0, 100).size(), 50u);
  {
    // Flip one byte of the leaf's first page.
    std::fstream file(dir_ + "/index_1.idx",
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(10);
    char byte = 0;
    file.get(byte);
    file.seekp(10);
    file.put(static_cast<char>(byte ^ 0x20));
  }
  cache_->Clear();
  std::vector<IndexEntry> entries;
  const Status st = index_->ScanRange(0, 100, &entries);
  EXPECT_TRUE(st.IsChecksumMismatch()) << st.ToString();
}

class IndexedDatasetTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/idxds_" +
           std::string(LayoutKindName(GetParam())) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(1024 * kPage, kPage);
    DatasetOptions options;
    options.layout = GetParam();
    options.dir = dir_;
    options.page_size = kPage;
    options.memtable_bytes = 48 * 1024;
    options.amax_max_records = 400;
    auto ds = IndexedDataset::Create(options, cache_.get());
    ASSERT_TRUE(ds.ok());
    dataset_ = std::move(*ds);
    ASSERT_TRUE(dataset_->DeclarePrimaryKeyIndex().ok());
    ASSERT_TRUE(dataset_->DeclareIndex("ts", {"timestamp"}).ok());
  }
  void TearDown() override {
    dataset_.reset();
    std::filesystem::remove_all(dir_);
  }

  Value MakeRecord(int64_t id, int64_t ts) {
    Value v = Value::MakeObject();
    v.Set("id", Value::Int(id));
    v.Set("timestamp", Value::Int(ts));
    v.Set("text", Value::String("body_" + std::to_string(id)));
    return v;
  }

  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
  std::unique_ptr<IndexedDataset> dataset_;
};

TEST_P(IndexedDatasetTest, IndexScanReturnsMatchingRecords) {
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(dataset_->Insert(MakeRecord(i, 1000 + i)).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  std::vector<int64_t> pks;
  ASSERT_TRUE(dataset_
                  ->IndexScan("ts", 1100, 1199, Projection::All(),
                              [&](int64_t pk, const Value& v) {
                                pks.push_back(pk);
                                EXPECT_EQ(v.Get("timestamp").int_value(),
                                          1000 + pk);
                              })
                  .ok());
  ASSERT_EQ(pks.size(), 100u);
  EXPECT_EQ(pks.front(), 100);
  EXPECT_EQ(pks.back(), 199);
  auto count = dataset_->IndexCount("ts", 1100, 1199);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 100u);
}

TEST_P(IndexedDatasetTest, UpdateMovesIndexEntry) {
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(dataset_->Insert(MakeRecord(i, i)).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  // Move record 50's timestamp from 50 to 5000.
  ASSERT_TRUE(dataset_->Insert(MakeRecord(50, 5000)).ok());
  ASSERT_TRUE(dataset_->Flush().ok());
  auto low = dataset_->IndexCount("ts", 50, 50);
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(*low, 0u);
  auto high = dataset_->IndexCount("ts", 5000, 5000);
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(*high, 1u);
}

TEST_P(IndexedDatasetTest, DeleteCleansIndex) {
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(dataset_->Insert(MakeRecord(i, i * 10)).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  ASSERT_TRUE(dataset_->Delete(30).ok());
  ASSERT_TRUE(dataset_->Flush().ok());
  auto count = dataset_->IndexCount("ts", 300, 300);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
  // Neighbours unaffected.
  EXPECT_EQ(*dataset_->IndexCount("ts", 290, 310), 2u);
}

TEST_P(IndexedDatasetTest, UpdateIntensiveWorkloadStaysConsistent) {
  Rng rng(77);
  std::map<int64_t, int64_t> ts_of;  // model: pk -> timestamp
  for (int64_t i = 0; i < 600; ++i) {
    int64_t ts = static_cast<int64_t>(rng.Uniform(10000));
    ts_of[i] = ts;
    ASSERT_TRUE(dataset_->Insert(MakeRecord(i, ts)).ok());
  }
  // 50% random updates (uniform), as in §6.3.2.
  for (int round = 0; round < 300; ++round) {
    int64_t pk = static_cast<int64_t>(rng.Uniform(600));
    int64_t ts = static_cast<int64_t>(rng.Uniform(10000));
    ts_of[pk] = ts;
    ASSERT_TRUE(dataset_->Insert(MakeRecord(pk, ts)).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  // Compare index-driven counts with the model for several ranges.
  for (int64_t lo = 0; lo < 10000; lo += 1700) {
    const int64_t hi = lo + 800;
    uint64_t expected = 0;
    for (const auto& [pk, ts] : ts_of) {
      if (ts >= lo && ts <= hi) ++expected;
    }
    auto got = dataset_->IndexCount("ts", lo, hi);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, expected) << "[" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, IndexedDatasetTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

}  // namespace
}  // namespace lsmcol
