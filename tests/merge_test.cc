// Merge suite for the columnar vertical merge (batched PK plan, run-copy
// column stitching, whole-leaf adoption) and the row merge:
//
//  * randomized workloads — overlapping key ranges, upserts, deletes with
//    anti-matter both at and away from the oldest component, dropped-run
//    boundaries straddling leaf edges — asserting that every scan after a
//    merge equals both the scan before it and an in-memory model of the
//    records written, across all four layouts;
//  * exact ComponentMeta::entry_count on merged components;
//  * merge observability counters (records in/out, runs, adopted leaves);
//  * the whole-leaf adoption fast path on disjoint (append-style) inputs,
//    and its guard against splicing leaves of another compression setting;
//  * a cold merge of wide inputs reads each input page at most once and
//    installs nothing in the buffer cache;
//  * a leaf whose index claims more records than its key column holds is
//    refused by scans and merges alike.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/json/parser.h"
#include "src/lsm/dataset.h"

namespace lsmcol {
namespace {

constexpr size_t kPage = 8192;  // small pages exercise leaf machinery

bool IsColumnar(LayoutKind layout) {
  return layout == LayoutKind::kApax || layout == LayoutKind::kAmax;
}

Value MakeRecord(int64_t id, uint64_t version) {
  Value v = Value::MakeObject();
  v.Set("id", Value::Int(id));
  v.Set("name", Value::String("user_" + std::to_string(id) + "_v" +
                              std::to_string(version)));
  v.Set("score", Value::Double(static_cast<double>(id) * 0.25 +
                               static_cast<double>(version)));
  v.Set("active",
        Value::Bool((id + static_cast<int64_t>(version)) % 2 == 0));
  Value tags = Value::MakeArray();
  for (int64_t t = 0; t < (id + static_cast<int64_t>(version)) % 4; ++t) {
    tags.Push(Value::String("tag" + std::to_string((id + t) % 7)));
  }
  v.Set("tags", std::move(tags));
  Value nested = Value::MakeObject();
  nested.Set("level", Value::Int(id % 5));
  v.Set("meta", std::move(nested));
  return v;
}

class MergeTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/merge_" +
           std::string(LayoutKindName(GetParam())) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(1024 * kPage, kPage);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  DatasetOptions BaseOptions(const std::string& name) {
    DatasetOptions options;
    options.layout = GetParam();
    options.dir = dir_;
    options.name = name;
    options.page_size = kPage;
    options.memtable_bytes = 1u << 20;  // flush manually
    options.auto_merge = false;
    options.amax_max_records = 64;  // many small leaves per component
    return options;
  }

  static std::unique_ptr<Dataset> MustOpen(const DatasetOptions& options,
                                           BufferCache* cache) {
    auto ds = Dataset::Open(options, cache);
    EXPECT_TRUE(ds.ok()) << ds.status().ToString();
    return std::move(*ds);
  }

  /// Scan everything; records serialized to JSON keyed by id.
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

  /// Total entries (records + anti-matter) across all on-disk components,
  /// from the exact per-component metadata.
  static uint64_t TotalMetaEntries(Dataset* ds) {
    uint64_t total = 0;
    for (size_t i = 0; i < ds->component_count(); ++i) {
      total += ds->component(i).meta().entry_count;
    }
    return total;
  }

  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
};

/// What a full scan must return: each live key's latest record, as
/// ScanAll serializes it. Writes go through Put/Erase to keep it current.
using Model = std::map<int64_t, std::string>;

void Put(Dataset* ds, Model* model, int64_t key, uint64_t version) {
  const Value record = MakeRecord(key, version);
  ASSERT_TRUE(ds->Insert(record).ok());
  (*model)[key] = ToJson(record);
}

void Erase(Dataset* ds, Model* model, int64_t key) {
  ASSERT_TRUE(ds->Delete(key).ok());
  model->erase(key);
}

// A randomized op script: overlapping inserts, upserts, deletes of live
// keys in older components (anti-matter away from the oldest) and deletes
// of absent keys (anti-matter that only annihilates when the oldest is
// included).
struct Op {
  enum Kind { kInsert, kDelete, kFlush } kind;
  int64_t key = 0;
  uint64_t version = 0;
};

std::vector<Op> MakeScript(uint64_t seed, int64_t key_space, size_t ops) {
  Rng rng(seed);
  std::vector<Op> script;
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t roll = rng.Uniform(100);
    if (roll < 8 && i > 0) {
      script.push_back({Op::kFlush, 0, 0});
    } else if (roll < 30) {
      // Deletes: half target the live range, half likely-absent keys.
      const int64_t key = roll < 19
                              ? rng.UniformRange(0, key_space - 1)
                              : rng.UniformRange(key_space, 2 * key_space);
      script.push_back({Op::kDelete, key, 0});
    } else {
      script.push_back(
          {Op::kInsert, rng.UniformRange(0, key_space - 1), i});
    }
  }
  script.push_back({Op::kFlush, 0, 0});
  return script;
}

void ApplyScript(Dataset* ds, const std::vector<Op>& script, Model* model) {
  for (const Op& op : script) {
    switch (op.kind) {
      case Op::kInsert:
        Put(ds, model, op.key, op.version);
        break;
      case Op::kDelete:
        Erase(ds, model, op.key);
        break;
      case Op::kFlush:
        ASSERT_TRUE(ds->Flush().ok());
        break;
    }
  }
}

TEST_P(MergeTest, RandomizedMergeMatchesModel) {
  for (uint64_t seed : {7u, 21u, 99u}) {
    auto ds = MustOpen(BaseOptions("ds_" + std::to_string(seed)),
                       cache_.get());
    Model model;
    ApplyScript(ds.get(), MakeScript(seed, /*key_space=*/600, /*ops=*/900),
                &model);
    ASSERT_GE(ds->component_count(), 2u) << "script produced no merge work";

    const auto before = ScanAll(ds.get());
    EXPECT_EQ(before, model) << "seed " << seed;
    ASSERT_TRUE(ds->MergeAll().ok());
    EXPECT_EQ(ds->component_count(), 1u);

    // The merge must not change query results: the scan before it
    // reconciled the unmerged components, and the model saw none.
    const auto after = ScanAll(ds.get());
    EXPECT_EQ(before, after) << "seed " << seed;
    EXPECT_EQ(model, after) << "seed " << seed;

    // MergeAll includes the oldest component: every anti-matter entry
    // annihilates, so the exact entry count equals the surviving records.
    EXPECT_EQ(ds->component(0).meta().entry_count, after.size());

    const auto stats = ds->stats();
    EXPECT_GT(stats.merge_records_in, 0u);
    EXPECT_EQ(stats.merge_records_out, ds->component(0).meta().entry_count);
    if (IsColumnar(GetParam())) {
      EXPECT_GT(stats.merge_runs_copied + stats.merge_leaves_adopted, 0u);
    }
  }
}

TEST_P(MergeTest, DroppedRunsStraddlingLeafEdges) {
  // Component 1: keys 0..799 (many leaves). Component 2: updates 300..579
  // and deletes 580..699 — both stretches cross several leaf boundaries,
  // so the survivor plan drops runs that start and end mid-leaf.
  auto ds = MustOpen(BaseOptions("ds"), cache_.get());
  Model model;
  for (int64_t i = 0; i < 800; ++i) Put(ds.get(), &model, i, 1);
  ASSERT_TRUE(ds->Flush().ok());
  for (int64_t i = 300; i < 580; ++i) Put(ds.get(), &model, i, 2);
  for (int64_t i = 580; i < 700; ++i) Erase(ds.get(), &model, i);
  ASSERT_TRUE(ds->Flush().ok());
  ASSERT_EQ(ds->component_count(), 2u);

  const auto before = ScanAll(ds.get());
  EXPECT_EQ(before.size(), 800u - 120u);
  EXPECT_EQ(before, model);
  ASSERT_TRUE(ds->MergeAll().ok());
  const auto after = ScanAll(ds.get());
  EXPECT_EQ(before, after);
  EXPECT_EQ(model, after);
  EXPECT_EQ(ds->component(0).meta().entry_count, 680u);
}

TEST_P(MergeTest, PartialMergePreservesAntiMatter) {
  // Oldest component: keys 0..199. Middle: keys 200..299. Newest: deletes
  // of 0..59 (anti-matter for records that live in the *oldest*). A merge
  // of the two newest components must preserve the anti-matter entries;
  // the final full merge annihilates them.
  auto options = BaseOptions("ds");
  options.max_components = 2;  // policy: over the limit, merge two newest
  options.size_ratio = 100.0;  // keep the size rule out of the way
  auto ds = MustOpen(options, cache_.get());
  Model model;
  for (int64_t i = 0; i < 200; ++i) Put(ds.get(), &model, i, 1);
  ASSERT_TRUE(ds->Flush().ok());
  for (int64_t i = 200; i < 300; ++i) Put(ds.get(), &model, i, 1);
  ASSERT_TRUE(ds->Flush().ok());
  for (int64_t i = 0; i < 60; ++i) Erase(ds.get(), &model, i);
  ASSERT_TRUE(ds->Flush().ok());
  ASSERT_EQ(ds->component_count(), 3u);

  const auto before = ScanAll(ds.get());
  EXPECT_EQ(before.size(), 240u);
  EXPECT_EQ(before, model);

  ASSERT_TRUE(ds->MaybeMerge().ok());
  ASSERT_EQ(ds->component_count(), 2u);
  // Newest merged component = 100 records + 60 preserved anti-matter.
  EXPECT_EQ(ds->component(0).meta().entry_count, 160u);
  const auto partial = ScanAll(ds.get());
  EXPECT_EQ(before, partial);
  EXPECT_EQ(model, partial);

  ASSERT_TRUE(ds->MergeAll().ok());
  ASSERT_EQ(ds->component_count(), 1u);
  EXPECT_EQ(ds->component(0).meta().entry_count, 240u);
  const auto full = ScanAll(ds.get());
  EXPECT_EQ(before, full);
  EXPECT_EQ(model, full);
}

TEST_P(MergeTest, AdoptionOnDisjointComponents) {
  // Append-style ingest: each component covers a disjoint key range, so
  // the survivor plan is a handful of runs and (for columnar layouts with
  // matching settings) most leaves should be adopted undecoded.
  auto ds = MustOpen(BaseOptions("ds"), cache_.get());
  Model model;
  constexpr int64_t kPerComponent = 400;
  for (int64_t c = 0; c < 4; ++c) {
    for (int64_t i = 0; i < kPerComponent; ++i) {
      Put(ds.get(), &model, c * kPerComponent + i, 1);
    }
    ASSERT_TRUE(ds->Flush().ok());
  }
  ASSERT_EQ(ds->component_count(), 4u);
  const auto before = ScanAll(ds.get());
  ASSERT_TRUE(ds->MergeAll().ok());
  const auto after = ScanAll(ds.get());
  EXPECT_EQ(before, after);
  EXPECT_EQ(model, after);
  EXPECT_EQ(ds->component(0).meta().entry_count, 4u * kPerComponent);
  const auto stats = ds->stats();
  EXPECT_EQ(stats.merge_records_in, 4u * kPerComponent);
  EXPECT_EQ(stats.merge_records_out, 4u * kPerComponent);
  if (IsColumnar(GetParam())) {
    // Disjoint inputs: every full input leaf is spliced through whole.
    EXPECT_GT(stats.merge_leaves_adopted, 0u);
  }
}

TEST_P(MergeTest, MixedCompressionAdoptsOnlyMatchingLeaves) {
  // Disjoint components written compressed, then more after a reopen
  // with compression off. The merged component is uncompressed, so only
  // the uncompressed inputs' leaves may be spliced through whole; a
  // compressed leaf adopted into it would be unreadable.
  constexpr int64_t kPerComponent = 400;
  Model model;
  auto options = BaseOptions("ds");
  int64_t next_key = 0;
  auto write_components = [&](Dataset* ds, int count) {
    for (int c = 0; c < count; ++c) {
      for (int64_t i = 0; i < kPerComponent; ++i) {
        Put(ds, &model, next_key++, 1);
      }
      ASSERT_TRUE(ds->Flush().ok());
    }
  };
  {
    options.compress = true;
    auto ds = MustOpen(options, cache_.get());
    write_components(ds.get(), 2);
  }
  options.compress = false;
  uint64_t uncompressed_leaves = 0;
  {
    auto ds = MustOpen(options, cache_.get());
    write_components(ds.get(), 2);
    ASSERT_EQ(ds->component_count(), 4u);
    for (size_t i = 0; i < ds->component_count(); ++i) {
      const Component& component = ds->component(i);
      if (!component.meta().compressed) {
        uncompressed_leaves += component.reader().leaves().size();
      }
    }
    ASSERT_GT(uncompressed_leaves, 0u);
    ASSERT_TRUE(ds->MergeAll().ok());
    ASSERT_EQ(ds->component_count(), 1u);
    EXPECT_FALSE(ds->component(0).meta().compressed);
    const auto stats = ds->stats();
    if (IsColumnar(GetParam())) {
      EXPECT_GT(stats.merge_leaves_adopted, 0u);
      EXPECT_LE(stats.merge_leaves_adopted, uncompressed_leaves);
    }
    EXPECT_EQ(model, ScanAll(ds.get()));
  }
  auto ds = MustOpen(options, cache_.get());
  EXPECT_EQ(model, ScanAll(ds.get()));
}

TEST_P(MergeTest, FullDeletionMergesToEmpty) {
  auto ds = MustOpen(BaseOptions("ds"), cache_.get());
  Model model;
  for (int64_t i = 0; i < 300; ++i) Put(ds.get(), &model, i, 1);
  ASSERT_TRUE(ds->Flush().ok());
  for (int64_t i = 0; i < 300; ++i) Erase(ds.get(), &model, i);
  ASSERT_TRUE(ds->Flush().ok());
  ASSERT_TRUE(ds->MergeAll().ok());
  EXPECT_EQ(ds->component(0).meta().entry_count, 0u);
  EXPECT_TRUE(model.empty());
  EXPECT_TRUE(ScanAll(ds.get()).empty());
}

TEST_P(MergeTest, EntryCountSurvivesReopen) {
  auto options = BaseOptions("ds");
  Model model;
  uint64_t expected = 0;
  {
    auto ds = MustOpen(options, cache_.get());
    for (int64_t i = 0; i < 500; ++i) {
      Put(ds.get(), &model, i, 1);
      if (i % 200 == 199) {
        ASSERT_TRUE(ds->Flush().ok());
      }
    }
    for (int64_t i = 100; i < 150; ++i) Erase(ds.get(), &model, i);
    ASSERT_TRUE(ds->Flush().ok());
    ASSERT_TRUE(ds->MergeAll().ok());
    expected = ds->component(0).meta().entry_count;
    EXPECT_EQ(expected, 450u);
    EXPECT_EQ(model, ScanAll(ds.get()));
  }
  auto ds = MustOpen(options, cache_.get());
  EXPECT_EQ(TotalMetaEntries(ds.get()), expected);
  const auto after = ScanAll(ds.get());
  EXPECT_EQ(after.size(), 450u);
  EXPECT_EQ(model, after);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, MergeTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

// A columnar leaf whose index entry claims one record more than its PK
// chunk holds, every page checksum intact. Scans and merges walk a leaf's
// decoded keys up to the claimed count, so both must refuse the leaf
// instead of reading past the keys.
class LeafKeyCountTest : public MergeTest {};

TEST_P(LeafKeyCountTest, ScanAndMergeReturnCorruption) {
  const DatasetOptions options = BaseOptions("ds");
  std::string victim;
  {
    auto ds = MustOpen(options, cache_.get());
    Model model;
    for (int64_t i = 0; i < 20; ++i) Put(ds.get(), &model, i, 1);
    ASSERT_TRUE(ds->Flush().ok());
    for (int64_t i = 10; i < 30; ++i) Put(ds.get(), &model, i, 2);
    ASSERT_TRUE(ds->Flush().ok());
    ASSERT_EQ(ds->component_count(), 2u);
    victim = ds->component(0).path();  // the newer component
  }
  {
    // Re-append the victim's one leaf, payload untouched, under a record
    // count one too high.
    BufferCache cache(64 * kPage, kPage);
    auto component = Component::Open(victim, &cache, kPage);
    ASSERT_TRUE(component.ok()) << component.status().ToString();
    const ComponentReader& reader = (*component)->reader();
    ASSERT_EQ(reader.leaves().size(), 1u);
    const LeafEntry leaf = reader.leaves()[0];
    Buffer payload;
    ASSERT_TRUE(reader.ReadLeaf(0, &payload).ok());
    Buffer meta;
    (*component)->meta().SerializeTo(&meta, (*component)->schema());
    const std::string rebuilt = victim + ".rebuilt";
    auto out = ComponentWriter::Create(rebuilt, &cache, kPage);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_TRUE((*out)
                    ->AppendLeaf(payload.slice(), leaf.min_key, leaf.max_key,
                                 leaf.record_count + 1)
                    .ok());
    ASSERT_TRUE((*out)->Finish(meta.slice()).ok());
    out->reset();
    component->reset();
    std::filesystem::rename(rebuilt, victim);
  }
  BufferCache cache(1024 * kPage, kPage);
  auto ds = MustOpen(options, &cache);
  auto cursor = ds->Scan(Projection::All());
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  Status scan;
  while (scan.ok()) {
    Result<bool> more = (*cursor)->Next();
    scan = more.status();
    if (scan.ok() && !*more) break;
  }
  EXPECT_TRUE(scan.IsCorruption()) << scan.ToString();
  const Status merge = ds->MergeAll();
  EXPECT_TRUE(merge.IsCorruption()) << merge.ToString();
}

// The vertical merge's column streams share one read of each input leaf:
// a cold MergeAll over wide, interleaved inputs (nothing adoptable) reads
// each input page at most once, however many columns reach it, and, as a
// one-shot reader, leaves nothing in the cache. The inputs are small
// enough (a few leaves each) that the merge's per-input leaf cache still
// holds every leaf the PK phase opened when the columns are copied.
class MergeIoTest : public MergeTest {};

TEST_P(MergeIoTest, ColdMergeAllReadsEachInputPageOnceAndCachesNothing) {
  auto ds = MustOpen(BaseOptions("ds"), cache_.get());
  constexpr int kFields = 60;
  constexpr int kInputs = 3;
  Rng rng(7);
  for (int64_t input = 0; input < kInputs; ++input) {
    for (int64_t id = input; id < 450; id += kInputs) {
      Value v = Value::MakeObject();
      v.Set("id", Value::Int(id));
      for (int f = 0; f < kFields; ++f) {
        v.Set("f" + std::to_string(f),
              Value::Int(static_cast<int64_t>(rng.Uniform(1000))));
      }
      ASSERT_TRUE(ds->Insert(v).ok());
    }
    ASSERT_TRUE(ds->Flush().ok());
  }
  ASSERT_EQ(ds->component_count(), static_cast<size_t>(kInputs));
  ASSERT_GT(ds->component(0).schema()->column_count(), 50);
  uint64_t input_pages = 0;
  size_t input_leaves = 0;
  for (size_t c = 0; c < ds->component_count(); ++c) {
    for (const LeafEntry& leaf : ds->component(c).reader().leaves()) {
      input_pages += leaf.page_count;
      ++input_leaves;
    }
  }
  ASSERT_GT(input_leaves, static_cast<size_t>(kInputs));
  const std::map<int64_t, std::string> before = ScanAll(ds.get());

  // The snapshot keeps the inputs open, so a unit of theirs the merge
  // installed would stay in the cache.
  auto inputs = ds->GetSnapshot();
  cache_->Clear();
  cache_->ResetStats();
  ASSERT_TRUE(ds->MergeAll().ok());
  EXPECT_GT(cache_->stats().pages_read, 0u);
  EXPECT_LE(cache_->stats().pages_read, input_pages);
  EXPECT_EQ(cache_->cached_bytes(), 0u);
  EXPECT_EQ(ds->stats().merge_leaves_adopted, 0u);
  ASSERT_EQ(ds->component_count(), 1u);
  EXPECT_EQ(ScanAll(ds.get()), before);
}

INSTANTIATE_TEST_SUITE_P(Columnar, MergeIoTest,
                         ::testing::Values(LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

INSTANTIATE_TEST_SUITE_P(Columnar, LeafKeyCountTest,
                         ::testing::Values(LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

}  // namespace
}  // namespace lsmcol
