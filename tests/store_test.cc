// Integration tests for the Store facade: durable manifests and
// Open()-time recovery across all four layouts, crash-leftover cleanup,
// option validation, and snapshot isolation under flushes and merges.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "src/common/rng.h"
#include "src/json/parser.h"
#include "src/query/engine.h"
#include "src/store/store.h"

namespace lsmcol {
namespace {

constexpr size_t kPage = 8192;  // small pages exercise leaf machinery

class StoreTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/store_" +
           std::string(LayoutKindName(GetParam())) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  StoreOptions Options() {
    StoreOptions options;
    options.dir = dir_;
    options.page_size = kPage;
    options.cache_bytes = 512 * kPage;
    return options;
  }

  DatasetOptions DocOptions() {
    DatasetOptions options;
    options.layout = GetParam();
    options.memtable_bytes = 16 * 1024;  // many flushes, hence merges
    options.amax_max_records = 200;
    return options;
  }

  std::unique_ptr<Store> OpenStore() {
    auto store = Store::Open(Options());
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(*store);
  }

  static Value MakeRecord(int64_t id, Rng* rng) {
    Value v = Value::MakeObject();
    v.Set("id", Value::Int(id));
    v.Set("name", Value::String("user_" + std::to_string(id)));
    v.Set("score", Value::Double(static_cast<double>(id) * 0.25));
    Value tags = Value::MakeArray();
    for (uint64_t t = 0; t < rng->Uniform(3); ++t) {
      tags.Push(Value::String("tag" + std::to_string(rng->Uniform(8))));
    }
    v.Set("tags", std::move(tags));
    return v;
  }

  static std::map<int64_t, std::string> ScanAll(const Snapshot& snapshot) {
    std::map<int64_t, std::string> out;
    auto cursor = snapshot.Scan(Projection::All());
    EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
    while (true) {
      auto ok = (*cursor)->Next();
      EXPECT_TRUE(ok.ok()) << ok.status().ToString();
      if (!*ok) break;
      Value v;
      Status st = (*cursor)->Record(&v);
      EXPECT_TRUE(st.ok()) << st.ToString();
      out[(*cursor)->key()] = ToJson(v);
    }
    return out;
  }

  static std::string ResultToString(const QueryResult& result) {
    std::string out;
    for (const auto& row : result.rows) {
      for (const auto& v : row) {
        out += ToJson(v);
        out.push_back('|');
      }
      out.push_back('\n');
    }
    return out;
  }

  static QueryPlan CountByTagPlan() {
    QueryPlan plan;
    plan.unnests.push_back({Expr::Field({"tags"}), "t"});
    plan.group_keys.push_back(Expr::Var("t"));
    plan.aggregates.push_back(AggSpec::CountStar());
    plan.order_by = 0;
    plan.order_desc = false;
    return plan;
  }

  std::string dir_;
};

TEST_P(StoreTest, ReopenPreservesScanLookupAndQueries) {
  std::map<int64_t, std::string> expected_scan;
  std::string expected_query;
  size_t component_count = 0;
  uint64_t on_disk_bytes = 0;
  {
    auto store = OpenStore();
    auto ds = store->OpenDataset("docs", DocOptions());
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    Rng rng(7);
    for (int64_t i = 0; i < 600; ++i) {
      ASSERT_TRUE((*ds)->Insert(MakeRecord(i, &rng)).ok());
    }
    ASSERT_TRUE((*ds)->Flush().ok());
    ASSERT_TRUE((*ds)->MaybeMerge().ok());
    EXPECT_GT((*ds)->stats().flushes, 1u);  // memtable budget forced flushes
    expected_scan = ScanAll(*(*ds)->GetSnapshot());
    auto q = RunQuery(*(*ds)->GetSnapshot(), CountByTagPlan(), true);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    expected_query = ResultToString(*q);
    component_count = (*ds)->component_count();
    on_disk_bytes = (*ds)->OnDiskBytes();
    ASSERT_GE(component_count, 1u);
  }  // store destroyed: everything flushed must survive

  auto store = OpenStore();
  auto names = store->ListDatasets();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "docs");
  auto ds = store->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ((*ds)->component_count(), component_count);
  EXPECT_EQ((*ds)->OnDiskBytes(), on_disk_bytes);
  EXPECT_EQ(ScanAll(*(*ds)->GetSnapshot()), expected_scan);
  // Point lookups and both engines agree with the pre-restart state.
  Value record;
  ASSERT_TRUE((*ds)->Lookup(123, &record).ok());
  EXPECT_EQ(ToJson(record), expected_scan[123]);
  for (bool compiled : {false, true}) {
    auto q = RunQuery(*(*ds)->GetSnapshot(), CountByTagPlan(), compiled);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(ResultToString(*q), expected_query);
  }
}

TEST_P(StoreTest, ReopenAfterDeleteKeepsAntiMatter) {
  {
    auto store = OpenStore();
    DatasetOptions options = DocOptions();
    options.auto_merge = false;  // keep the anti-matter in its own component
    auto ds = store->OpenDataset("docs", options);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    Rng rng(11);
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE((*ds)->Insert(MakeRecord(i, &rng)).ok());
    }
    ASSERT_TRUE((*ds)->Flush().ok());
    ASSERT_TRUE((*ds)->Delete(10).ok());
    ASSERT_TRUE((*ds)->Delete(55).ok());
    ASSERT_TRUE((*ds)->InsertJson(R"({"id": 77, "name": "replaced"})").ok());
    ASSERT_TRUE((*ds)->Flush().ok());
    ASSERT_GE((*ds)->component_count(), 2u);
  }

  auto store = OpenStore();
  auto ds = store->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Value record;
  // Anti-matter survives the restart: deleted keys stay deleted even
  // though an older component still holds their records.
  EXPECT_TRUE((*ds)->Lookup(10, &record).IsNotFound());
  EXPECT_TRUE((*ds)->Lookup(55, &record).IsNotFound());
  ASSERT_TRUE((*ds)->Lookup(77, &record).ok());
  EXPECT_EQ(record.Get("name").string_value(), "replaced");
  ASSERT_TRUE((*ds)->Lookup(11, &record).ok());
}

TEST_P(StoreTest, OpenSweepsStaleTempAndOrphanFiles) {
  {
    auto store = OpenStore();
    auto ds = store->OpenDataset("docs", DocOptions());
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    Rng rng(3);
    for (int64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE((*ds)->Insert(MakeRecord(i, &rng)).ok());
    }
    ASSERT_TRUE((*ds)->Flush().ok());
  }
  // Simulate a crash between component write and manifest rewrite: a
  // leftover temp file and a fully-renamed component the manifest never
  // recorded. A similarly named file of another dataset must survive.
  const std::string ds_dir = dir_ + "/docs";
  const std::string tmp = ds_dir + "/docs_999.cmp.tmp";
  const std::string orphan = ds_dir + "/docs_777.cmp";
  const std::string foreign = ds_dir + "/docs_extra_3.cmp";
  for (const std::string& path : {tmp, orphan, foreign}) {
    std::ofstream(path) << "garbage";
  }

  auto store = OpenStore();
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_TRUE(std::filesystem::exists(foreign));
  auto ds = store->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Value record;
  EXPECT_TRUE((*ds)->Lookup(25, &record).ok());
}

TEST_P(StoreTest, SnapshotIsolationAcrossFlushAndMerge) {
  auto store = OpenStore();
  auto ds_or = store->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  Rng rng(19);
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i, &rng)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  // Unflushed writes land in the snapshot too (memtable is part of the
  // pinned view).
  ASSERT_TRUE(ds->InsertJson(R"({"id": 500, "name": "pending"})").ok());

  Snapshot::Ref before = ds->GetSnapshot();
  const auto before_scan = ScanAll(*before);
  const size_t before_components = before->component_count();

  // Now rewrite history: delete, upsert, insert a new batch, flush, and
  // merge everything into one component.
  ASSERT_TRUE(ds->Delete(0).ok());
  ASSERT_TRUE(ds->InsertJson(R"({"id": 1, "name": "rewritten"})").ok());
  for (int64_t i = 200; i < 400; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i, &rng)).ok());
  }
  ASSERT_TRUE(ds->MergeAll().ok());
  ASSERT_EQ(ds->component_count(), 1u);

  // The pre-flush snapshot still serves the old view, byte for byte —
  // including components that were merged away underneath it.
  EXPECT_EQ(before->component_count(), before_components);
  EXPECT_EQ(ScanAll(*before), before_scan);
  Value record;
  ASSERT_TRUE(before->Lookup(0, &record).ok());
  ASSERT_TRUE(before->Lookup(500, &record).ok());
  EXPECT_EQ(record.Get("name").string_value(), "pending");
  EXPECT_TRUE(before->Lookup(300, &record).IsNotFound());
  for (bool compiled : {false, true}) {
    auto q = RunQuery(*before, CountByTagPlan(), compiled);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
  }

  // New snapshots see the post-merge state.
  Snapshot::Ref after = ds->GetSnapshot();
  EXPECT_EQ(after->component_count(), 1u);
  EXPECT_TRUE(after->Lookup(0, &record).IsNotFound());
  ASSERT_TRUE(after->Lookup(1, &record).ok());
  EXPECT_EQ(record.Get("name").string_value(), "rewritten");
  ASSERT_TRUE(after->Lookup(300, &record).ok());

  // Dropping the old snapshot finally deletes the merged-away files.
  const uintmax_t held = std::filesystem::file_size(
      std::filesystem::path(after->component(0).path()));
  (void)held;
  before.reset();
  size_t cmp_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/docs")) {
    if (entry.path().extension() == ".cmp") ++cmp_files;
  }
  EXPECT_EQ(cmp_files, 1u);
}

TEST_P(StoreTest, CursorSurvivesConcurrentMerge) {
  auto store = OpenStore();
  auto ds_or = store->OpenDataset("docs", DocOptions());
  ASSERT_TRUE(ds_or.ok()) << ds_or.status().ToString();
  Dataset* ds = *ds_or;
  Rng rng(23);
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(ds->Insert(MakeRecord(i, &rng)).ok());
  }
  ASSERT_TRUE(ds->Flush().ok());
  // Open a scan, then merge + mutate underneath it; the cursor pins its
  // snapshot and must keep returning the pre-merge view.
  auto cursor = ds->Scan(Projection::All());
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  ASSERT_TRUE(ds->Delete(150).ok());
  ASSERT_TRUE(ds->MergeAll().ok());
  size_t seen = 0;
  bool saw_150 = false;
  while (true) {
    auto ok = (*cursor)->Next();
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    if (!*ok) break;
    saw_150 |= (*cursor)->key() == 150;
    ++seen;
  }
  EXPECT_EQ(seen, 300u);
  EXPECT_TRUE(saw_150);
}

TEST_P(StoreTest, LayoutMismatchOnReopenIsInvalidArgument) {
  {
    auto store = OpenStore();
    auto ds = store->OpenDataset("docs", DocOptions());
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    ASSERT_TRUE((*ds)->InsertJson(R"({"id": 1})").ok());
    ASSERT_TRUE((*ds)->Flush().ok());
  }
  auto store = OpenStore();
  DatasetOptions wrong = DocOptions();
  wrong.layout = GetParam() == LayoutKind::kOpen ? LayoutKind::kVb
                                                 : LayoutKind::kOpen;
  auto ds = store->OpenDataset("docs", wrong);
  ASSERT_FALSE(ds.ok());
  EXPECT_TRUE(ds.status().IsInvalidArgument()) << ds.status().ToString();
  EXPECT_NE(ds.status().message().find("layout"), std::string::npos);
}

// The compaction policy is the caller's runtime knob: a dataset opened
// through a store runs the policy its DatasetOptions ask for, on the same
// merge schedule as a standalone dataset with the same options.
TEST_P(StoreTest, OpenDatasetKeepsTheCallersCompactionPolicy) {
  DatasetOptions options = DocOptions();
  options.compaction = CompactionStrategy::kLazyLeveling;
  auto store = OpenStore();
  auto ds = store->OpenDataset("docs", options);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ((*ds)->options().compaction, CompactionStrategy::kLazyLeveling);

  BufferCache cache(512 * kPage, kPage);
  DatasetOptions twin_options = options;
  twin_options.dir = dir_ + "_twin";
  twin_options.page_size = kPage;
  std::filesystem::remove_all(twin_options.dir);
  auto twin = Dataset::Open(twin_options, &cache);
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();

  // Both datasets run their flushes and merges on the writing thread, so
  // the same writes give the same component stack after every insert.
  Rng rng(11);
  Rng twin_rng(11);
  for (int64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE((*ds)->Insert(MakeRecord(i % 1000, &rng)).ok());
    ASSERT_TRUE((*twin)->Insert(MakeRecord(i % 1000, &twin_rng)).ok());
    ASSERT_EQ((*ds)->component_count(), (*twin)->component_count())
        << "after insert " << i;
    for (size_t c = 0; c < (*ds)->component_count(); ++c) {
      ASSERT_EQ((*ds)->component(c).size_bytes(),
                (*twin)->component(c).size_bytes())
          << "component " << c << " after insert " << i;
    }
  }
  EXPECT_GT((*ds)->stats().merges, 0u);
  EXPECT_EQ((*ds)->stats().merges, (*twin)->stats().merges);
  twin->reset();
  std::filesystem::remove_all(twin_options.dir);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, StoreTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

// ------------------------------------------------- non-parameterized

TEST(StoreOptionsTest, ValidationNamesTheBadField) {
  const std::string dir = testing::TempDir() + "/store_validate";
  std::filesystem::remove_all(dir);
  {
    StoreOptions options;  // empty dir
    auto store = Store::Open(options);
    ASSERT_FALSE(store.ok());
    EXPECT_TRUE(store.status().IsInvalidArgument());
    EXPECT_NE(store.status().message().find("dir"), std::string::npos);
  }
  {
    StoreOptions options;
    options.dir = dir;
    options.page_size = 100;
    auto store = Store::Open(options);
    ASSERT_FALSE(store.ok());
    EXPECT_NE(store.status().message().find("page_size"), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

TEST(StoreOptionsTest, DatasetValidationNamesTheBadField) {
  const std::string dir = testing::TempDir() + "/store_validate_ds";
  std::filesystem::remove_all(dir);
  StoreOptions store_options;
  store_options.dir = dir;
  store_options.page_size = kPage;
  store_options.cache_bytes = 64 * kPage;
  auto store = Store::Open(store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  struct Case {
    const char* field;
    DatasetOptions options;
  };
  std::vector<Case> cases;
  {
    DatasetOptions o;
    o.size_ratio = 1.0;
    cases.push_back({"size_ratio", o});
  }
  {
    DatasetOptions o;
    o.max_components = 1;
    cases.push_back({"max_components", o});
  }
  {
    DatasetOptions o;
    o.pk_field = "";
    cases.push_back({"pk_field", o});
  }
  {
    DatasetOptions o;
    o.memtable_bytes = 0;
    cases.push_back({"memtable_bytes", o});
  }
  for (const Case& c : cases) {
    auto ds = (*store)->OpenDataset("bad", c.options);
    ASSERT_FALSE(ds.ok()) << c.field;
    EXPECT_TRUE(ds.status().IsInvalidArgument()) << ds.status().ToString();
    EXPECT_NE(ds.status().message().find(c.field), std::string::npos)
        << ds.status().ToString();
  }
  // A '/' in the name must be rejected, not treated as a path.
  auto ds = (*store)->OpenDataset("a/b", DatasetOptions());
  ASSERT_FALSE(ds.ok());
  EXPECT_TRUE(ds.status().IsInvalidArgument());
  std::filesystem::remove_all(dir);
}

TEST(StoreMultiDatasetTest, TwoDatasetsRecoverIndependently) {
  const std::string dir = testing::TempDir() + "/store_multi";
  std::filesystem::remove_all(dir);
  StoreOptions options;
  options.dir = dir;
  options.page_size = kPage;
  options.cache_bytes = 256 * kPage;
  {
    auto store = Store::Open(options);
    ASSERT_TRUE(store.ok());
    DatasetOptions row;
    row.layout = LayoutKind::kVb;
    auto a = (*store)->OpenDataset("rows", row);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    DatasetOptions col;
    col.layout = LayoutKind::kAmax;
    auto b = (*store)->OpenDataset("cols", col);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_TRUE((*a)->InsertJson(R"({"id": 1, "k": "row"})").ok());
    ASSERT_TRUE((*b)->InsertJson(R"({"id": 1, "k": "col"})").ok());
    ASSERT_TRUE((*a)->Flush().ok());
    ASSERT_TRUE((*b)->Flush().ok());
    EXPECT_EQ((*store)->GetDataset("rows"), *a);
    EXPECT_EQ((*store)->GetDataset("missing"), nullptr);
    // Re-opening an open dataset with a contradictory identity fails the
    // same way it would after a restart.
    DatasetOptions wrong;
    wrong.layout = LayoutKind::kAmax;
    auto dup = (*store)->OpenDataset("rows", wrong);
    ASSERT_FALSE(dup.ok());
    EXPECT_TRUE(dup.status().IsInvalidArgument());
    EXPECT_NE(dup.status().message().find("layout"), std::string::npos);
    // Matching identity returns the same instance.
    auto same = (*store)->OpenDataset("rows", row);
    ASSERT_TRUE(same.ok());
    EXPECT_EQ(*same, *a);
  }
  auto store = Store::Open(options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->ListDatasets(),
            (std::vector<std::string>{"cols", "rows"}));
  DatasetOptions row;
  row.layout = LayoutKind::kVb;
  auto a = (*store)->OpenDataset("rows", row);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  DatasetOptions col;
  col.layout = LayoutKind::kAmax;
  auto b = (*store)->OpenDataset("cols", col);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  Value record;
  ASSERT_TRUE((*a)->Lookup(1, &record).ok());
  EXPECT_EQ(record.Get("k").string_value(), "row");
  ASSERT_TRUE((*b)->Lookup(1, &record).ok());
  EXPECT_EQ(record.Get("k").string_value(), "col");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lsmcol
