// Compiled vs interpreted engine equivalence on seeded random documents.
//
// The compiled engine unnests some arrays straight from the columns and
// falls back to assembling them elsewhere (see src/query/engine.h); the
// interpreted engine always assembles. The documents mix arrays of objects
// with missing fields, null elements, empty and single-null arrays, item
// fields whose type flips between int, double and string, fields that
// appear only in later documents, nested arrays, and a record-level union,
// and reach all four layouts through random flushes, merges, upserts and
// deletes, with the last writes left in the memtable. Every plan must give
// identical rows (value types included) in both engines, with pushdown on
// and off.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/datagen/datagen.h"
#include "src/json/parser.h"
#include "src/lsm/dataset.h"
#include "src/query/engine.h"

namespace lsmcol {
namespace {

constexpr size_t kPage = 8192;

/// One element of "readings". Flushed documents pass era 0, 1 or 2, the
/// unflushed tail era 3. temp is an int, then a double, then sometimes a
/// string (item-level unions); "late" appears from era 1 on, so its column
/// is created after older records; "i" holds ints on disk and equal-valued
/// doubles in the memtable, so MIN/MAX ties cross the two paths; "big"
/// (ints that compare equal as doubles) and "z" (+0.0 and -0.0) make ties
/// within one record whose first value must win.
Value MakeReading(int era, Rng* rng) {
  Value r = Value::MakeObject();
  if (rng->Bernoulli(0.8)) {
    if (era == 0) {
      r.Set("temp", Value::Int(static_cast<int64_t>(rng->Uniform(40))));
    } else if (era == 2 && rng->Bernoulli(0.2)) {
      r.Set("temp", Value::String(rng->Word(1, 3)));
    } else {
      r.Set("temp", Value::Double(static_cast<double>(rng->Uniform(80)) / 2));
    }
  }
  if (rng->Bernoulli(0.7)) {
    const auto i = static_cast<int64_t>(rng->Uniform(30));
    r.Set("i", era == 3 ? Value::Double(static_cast<double>(i))
                        : Value::Int(i));
  }
  if (rng->Bernoulli(0.7)) r.Set("d", Value::Double(rng->NextDouble() * 10));
  if (rng->Bernoulli(0.5)) r.Set("s", Value::String(rng->Word(1, 4)));
  if (era >= 1 && rng->Bernoulli(0.6)) {
    r.Set("late", Value::Int(static_cast<int64_t>(rng->Uniform(1000))));
  }
  if (rng->Bernoulli(0.3)) {
    r.Set("big", Value::Int((int64_t{1} << 53) +
                            static_cast<int64_t>(rng->Uniform(2))));
  }
  if (rng->Bernoulli(0.3)) {
    r.Set("z", Value::Double(rng->Bernoulli(0.5) ? -0.0 : 0.0));
  }
  return r;
}

Value MakeDoc(int64_t id, int era, Rng* rng) {
  Value doc = Value::MakeObject();
  doc.Set("id", Value::Int(id));
  doc.Set("g", Value::Int(static_cast<int64_t>(rng->Uniform(4))));
  doc.Set("ts", Value::Int(static_cast<int64_t>(rng->Uniform(1000))));
  switch (rng->Uniform(12)) {
    case 0:
      break;  // readings missing
    case 1:
      doc.Set("readings", Value::Null());
      break;
    case 2:
      doc.Set("readings", Value::MakeArray());
      break;
    case 3: {
      Value single_null = Value::MakeArray();
      single_null.Push(Value::Null());
      doc.Set("readings", std::move(single_null));
      break;
    }
    default: {
      Value readings = Value::MakeArray();
      const uint64_t n = 1 + rng->Uniform(6);
      for (uint64_t i = 0; i < n; ++i) {
        readings.Push(rng->Bernoulli(0.1) ? Value::Null()
                                          : MakeReading(era, rng));
      }
      doc.Set("readings", std::move(readings));
      break;
    }
  }
  // A record-level union: "alt" is an array of objects, or from era 1 on
  // sometimes one object.
  if (era >= 1 && rng->Bernoulli(0.2)) {
    doc.Set("alt", MakeReading(era, rng));
  } else {
    Value alt = Value::MakeArray();
    alt.Push(MakeReading(era, rng));
    doc.Set("alt", std::move(alt));
  }
  if (rng->Bernoulli(0.5)) {  // nested arrays
    Value grid = Value::MakeArray();
    const uint64_t rows = rng->Uniform(3);
    for (uint64_t i = 0; i < rows; ++i) {
      Value row = Value::MakeArray();
      const uint64_t cells = rng->Uniform(3);
      for (uint64_t j = 0; j < cells; ++j) {
        row.Push(Value::Int(static_cast<int64_t>(rng->Uniform(9))));
      }
      grid.Push(std::move(row));
    }
    doc.Set("grid", std::move(grid));
  }
  return doc;
}

/// Rows as sorted strings that keep each value's type (5 and 5.0 differ):
/// the engines may break ORDER BY ties differently.
std::vector<std::string> Canonical(const QueryResult& result) {
  std::vector<std::string> rows;
  for (const auto& row : result.rows) {
    std::string s;
    for (const Value& v : row) {
      s += ValueTypeName(v.type());
      s += ':';
      s += ToJson(v);
      s += '|';
    }
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct NamedPlan {
  std::string name;
  QueryPlan plan;
};

ExprPtr R(const char* field) { return Expr::VarPath("r", {field}); }

QueryPlan UnnestReadings() {
  QueryPlan plan;
  plan.unnests.push_back({Expr::Field({"readings"}), "r"});
  return plan;
}

std::vector<NamedPlan> Plans() {
  std::vector<NamedPlan> plans;
  {
    QueryPlan plan = UnnestReadings();
    plan.aggregates.push_back(AggSpec::CountStar());
    plans.push_back({"count_star", plan});
  }
  for (const char* field : {"temp", "i", "d", "s", "late", "no_such_field"}) {
    QueryPlan plan = UnnestReadings();
    plan.aggregates.push_back(AggSpec::Max(R(field)));
    plan.aggregates.push_back(AggSpec::Min(R(field)));
    plan.aggregates.push_back(AggSpec::Sum(R(field)));
    plan.aggregates.push_back(AggSpec::Count(R(field)));
    plan.aggregates.push_back(AggSpec::CountStar());
    plans.push_back({std::string("aggregates_") + field, plan});
  }
  {
    QueryPlan plan = UnnestReadings();
    plan.aggregates.push_back(AggSpec::Max(R("big")));
    plan.aggregates.push_back(AggSpec::Min(R("big")));
    plan.aggregates.push_back(AggSpec::Max(R("z")));
    plan.aggregates.push_back(AggSpec::Min(R("z")));
    plans.push_back({"ties", plan});
  }
  {
    QueryPlan plan = UnnestReadings();
    plan.group_keys.push_back(Expr::Field({"g"}));
    plan.aggregates.push_back(AggSpec::Max(R("i")));
    plan.aggregates.push_back(AggSpec::Sum(R("d")));
    plan.aggregates.push_back(AggSpec::CountStar());
    plan.order_by = 1;
    plans.push_back({"grouped", plan});
  }
  {
    QueryPlan plan = UnnestReadings();
    plan.pre_filter =
        Expr::Compare(Expr::CmpOp::kLt, Expr::Field({"ts"}), Expr::Int(500));
    plan.group_keys.push_back(Expr::Field({"g"}));
    plan.aggregates.push_back(AggSpec::Min(R("d")));
    plan.aggregates.push_back(AggSpec::Max(R("late")));
    plans.push_back({"pre_filtered", plan});
  }
  {
    // A post-unnest filter on record fields only.
    QueryPlan plan = UnnestReadings();
    plan.filter =
        Expr::Compare(Expr::CmpOp::kGe, Expr::Field({"g"}), Expr::Int(2));
    plan.aggregates.push_back(AggSpec::Max(R("s")));
    plan.aggregates.push_back(AggSpec::CountStar());
    plans.push_back({"record_filter", plan});
  }
  // Fallbacks. Whole-element use of the variable:
  {
    QueryPlan plan = UnnestReadings();
    plan.aggregates.push_back(AggSpec::Count(Expr::Var("r")));
    plan.aggregates.push_back(AggSpec::Max(R("temp")));
    plans.push_back({"whole_element", plan});
  }
  {
    QueryPlan plan = UnnestReadings();
    plan.group_keys.push_back(R("s"));
    plan.aggregates.push_back(AggSpec::Max(R("temp")));
    plans.push_back({"grouped_by_element", plan});
  }
  {
    // SOME binding the unnest variable's name.
    QueryPlan plan = UnnestReadings();
    plan.filter = Expr::Some("r", Expr::Field({"grid"}),
                             Expr::IsArray(Expr::Var("r")));
    plan.aggregates.push_back(AggSpec::CountStar());
    plans.push_back({"some", plan});
  }
  {
    QueryPlan plan = UnnestReadings();
    plan.projections.push_back(Expr::Field({"id"}));
    plan.projections.push_back(R("temp"));
    plans.push_back({"projection", plan});
  }
  {
    // A union on the array's path.
    QueryPlan plan;
    plan.unnests.push_back({Expr::Field({"alt"}), "r"});
    plan.aggregates.push_back(AggSpec::Max(R("temp")));
    plan.aggregates.push_back(AggSpec::CountStar());
    plans.push_back({"union_path", plan});
  }
  {
    // Nested arrays: the item is itself an array.
    QueryPlan plan;
    plan.unnests.push_back({Expr::Field({"grid"}), "row"});
    plan.aggregates.push_back(AggSpec::CountStar());
    plans.push_back({"nested_arrays", plan});
  }
  return plans;
}

class EngineEquivalenceTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/engine_equivalence_" +
           std::string(LayoutKindName(GetParam()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_P(EngineEquivalenceTest, RandomDocumentsAgreeOnEveryPlan) {
  const std::vector<NamedPlan> plans = Plans();
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string dir = dir_ + "/" + std::to_string(seed);
    std::filesystem::create_directories(dir);
    BufferCache cache(1024 * kPage, kPage);
    DatasetOptions options;
    options.layout = GetParam();
    options.dir = dir;
    options.page_size = kPage;
    options.memtable_bytes = 16 * 1024;
    options.amax_max_records = 40;
    auto ds = Dataset::Open(options, &cache);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    Dataset* dataset = ds->get();

    Rng rng(seed);
    constexpr int64_t kOps = 600;
    int64_t next_id = 0;
    constexpr int64_t kTail = 20;  // the unflushed memtable
    for (int64_t op = 0; op < kOps; ++op) {
      const int era = op + kTail >= kOps
                          ? 3
                          : static_cast<int>(op * 3 / (kOps - kTail));
      const uint64_t action = rng.Uniform(100);
      if (action < 10 && next_id > 0) {
        const auto key = static_cast<int64_t>(
            rng.Uniform(static_cast<uint64_t>(next_id)));
        ASSERT_TRUE(dataset->Delete(key).ok());
      } else if (action < 20 && next_id > 0) {
        const auto key = static_cast<int64_t>(
            rng.Uniform(static_cast<uint64_t>(next_id)));
        ASSERT_TRUE(dataset->Insert(MakeDoc(key, era, &rng)).ok());
      } else {
        ASSERT_TRUE(dataset->Insert(MakeDoc(next_id++, era, &rng)).ok());
      }
      // Random flush and merge points.
      if (era < 3 && rng.Bernoulli(0.02)) {
        ASSERT_TRUE(dataset->Flush().ok());
      }
      if (era < 3 && rng.Bernoulli(0.004)) {
        ASSERT_TRUE(dataset->MergeAll().ok());
      }
    }
    const Snapshot::Ref snapshot = dataset->GetSnapshot();
    ASSERT_GT(snapshot->memtable().record_count(), 0u);

    for (const NamedPlan& named : plans) {
      SCOPED_TRACE(named.name);
      auto interpreted = RunInterpreted(*snapshot, named.plan);
      ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
      QueryPlan unpushed = named.plan;
      unpushed.pushdown = false;
      for (const QueryPlan& plan : {named.plan, unpushed}) {
        auto compiled = RunCompiled(*snapshot, plan);
        ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
        EXPECT_EQ(compiled->pipeline_tuples, interpreted->pipeline_tuples);
        EXPECT_EQ(Canonical(*compiled), Canonical(*interpreted));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, EngineEquivalenceTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

/// A document for the column-native paths. Its readings are dense (every
/// element holds c, v, z and e) or sparse (null elements, v missing or
/// null); c comes first, so it is the array's count column; z (+0.0 and
/// -0.0) and e (ints equal as doubles) tie within a record, where the
/// first value must win; `late` exists only when `with_late`, so older
/// components lack its column or, once merged, hold it backfilled.
Value MakeSpanDoc(int64_t id, bool with_late, Rng* rng) {
  Value doc = Value::MakeObject();
  doc.Set("id", Value::Int(id));
  doc.Set("g", Value::Int(id % 3));
  if (rng->Bernoulli(0.1)) return doc;  // readings missing
  Value readings = Value::MakeArray();
  const bool dense = rng->Bernoulli(0.6);
  const uint64_t n = rng->Bernoulli(0.3) ? 16 + rng->Uniform(30)
                                         : 1 + rng->Uniform(6);
  for (uint64_t i = 0; i < n; ++i) {
    if (!dense && rng->Bernoulli(0.1)) {
      readings.Push(Value::Null());
      continue;
    }
    Value r = Value::MakeObject();
    r.Set("c", Value::Int(static_cast<int64_t>(rng->Uniform(5))));
    if (dense || rng->Bernoulli(0.6)) {
      r.Set("v", !dense && rng->Bernoulli(0.2)
                     ? Value::Null()
                     : Value::Double(static_cast<double>(rng->Uniform(20)) /
                                     4));
    }
    r.Set("z", Value::Double(rng->Bernoulli(0.5) ? -0.0 : 0.0));
    r.Set("e", Value::Int((int64_t{1} << 53) +
                          static_cast<int64_t>(rng->Uniform(2))));
    if (with_late && (dense || rng->Bernoulli(0.5))) {
      r.Set("late", Value::Int(static_cast<int64_t>(rng->Uniform(100))));
    }
    readings.Push(std::move(r));
  }
  doc.Set("readings", std::move(readings));
  return doc;
}

std::vector<NamedPlan> SpanPlans() {
  std::vector<NamedPlan> plans;
  {
    QueryPlan plan = UnnestReadings();
    plan.aggregates.push_back(AggSpec::CountStar());
    plans.push_back({"count_star_defs_only", plan});
  }
  {
    // The count column is also an aggregate input.
    QueryPlan plan = UnnestReadings();
    plan.aggregates.push_back(AggSpec::CountStar());
    plan.aggregates.push_back(AggSpec::Max(R("c")));
    plan.aggregates.push_back(AggSpec::Min(R("c")));
    plan.aggregates.push_back(AggSpec::Sum(R("c")));
    plan.aggregates.push_back(AggSpec::Count(R("c")));
    plans.push_back({"count_column_as_input", plan});
  }
  for (const char* field : {"v", "late"}) {
    QueryPlan plan = UnnestReadings();
    plan.aggregates.push_back(AggSpec::Max(R(field)));
    plan.aggregates.push_back(AggSpec::Min(R(field)));
    plan.aggregates.push_back(AggSpec::Sum(R(field)));
    plan.aggregates.push_back(AggSpec::Count(R(field)));
    plan.aggregates.push_back(AggSpec::CountStar());
    plans.push_back({std::string("sparse_and_dense_") + field, plan});
  }
  {
    QueryPlan plan = UnnestReadings();
    plan.aggregates.push_back(AggSpec::Max(R("z")));
    plan.aggregates.push_back(AggSpec::Min(R("z")));
    plan.aggregates.push_back(AggSpec::Max(R("e")));
    plan.aggregates.push_back(AggSpec::Min(R("e")));
    plans.push_back({"first_best_ties", plan});
  }
  {
    QueryPlan plan = UnnestReadings();
    plan.group_keys.push_back(Expr::Field({"g"}));
    plan.aggregates.push_back(AggSpec::Max(R("v")));
    plan.aggregates.push_back(AggSpec::Min(R("z")));
    plan.aggregates.push_back(AggSpec::Sum(R("c")));
    plan.aggregates.push_back(AggSpec::CountStar());
    plan.order_by = 1;
    plan.limit = 2;
    plans.push_back({"grouped_top_k", plan});
  }
  return plans;
}

class ColumnSpanEquivalenceTest
    : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(ColumnSpanEquivalenceTest, DenseSparseAndBackfilledSpansAgree) {
  const std::string dir = testing::TempDir() + "/column_span_" +
                          std::string(LayoutKindName(GetParam()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  BufferCache cache(1024 * kPage, kPage);
  DatasetOptions options;
  options.layout = GetParam();
  options.dir = dir;
  options.page_size = kPage;
  options.memtable_bytes = 1 << 20;
  options.amax_max_records = 40;
  auto ds = Dataset::Open(options, &cache);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Dataset* dataset = ds->get();
  const std::vector<NamedPlan> plans = SpanPlans();
  auto check = [&](const std::string& stage) {
    SCOPED_TRACE(stage);
    const Snapshot::Ref snapshot = dataset->GetSnapshot();
    for (const NamedPlan& named : plans) {
      SCOPED_TRACE(named.name);
      auto interpreted = RunInterpreted(*snapshot, named.plan);
      ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
      auto compiled = RunCompiled(*snapshot, named.plan);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      EXPECT_EQ(compiled->pipeline_tuples, interpreted->pipeline_tuples);
      EXPECT_EQ(Canonical(*compiled), Canonical(*interpreted));
    }
  };
  Rng rng(17);
  int64_t id = 0;
  auto insert = [&](int64_t count, bool with_late) {
    for (int64_t i = 0; i < count; ++i, ++id) {
      ASSERT_TRUE(dataset->Insert(MakeSpanDoc(id, with_late, &rng)).ok());
    }
  };
  insert(150, false);
  ASSERT_TRUE(dataset->Flush().ok());
  insert(150, false);
  ASSERT_TRUE(dataset->Flush().ok());
  insert(100, true);
  ASSERT_TRUE(dataset->Flush().ok());
  check("late field in the newest component only");
  ASSERT_TRUE(dataset->MergeAll().ok());
  check("late field backfilled by a merge");
  {
    // The count column read defs-only, then with values, in every leaf
    // gives the spans and values a read with values alone gives.
    const Component& component = dataset->component(0);
    const Schema* schema = component.schema();
    const SchemaNode* item =
        schema->root().FindField("readings")->item()->FindField("c");
    ASSERT_NE(item, nullptr);
    const int column = item->column_id();
    ASSERT_EQ(column, Schema::ColumnsUnder(schema->root().FindField(
                          "readings"))[0]);  // the count column
    ColumnarComponentCursor lazy(&component, Projection::All());
    ColumnarComponentCursor eager(&component, Projection::All());
    size_t records = 0;
    while (true) {
      auto a = lazy.Next();
      auto b = eager.Next();
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(*a, *b);
      if (!*a) break;
      ++records;
      ColumnarComponentCursor::ColumnSpan defs_only, late_values, values;
      ASSERT_TRUE(lazy.RecordSpan(column, &defs_only, false).ok());
      ASSERT_TRUE(lazy.RecordSpan(column, &late_values, true).ok());
      ASSERT_TRUE(eager.RecordSpan(column, &values, true).ok());
      ASSERT_EQ(defs_only.begin, values.begin);
      ASSERT_EQ(defs_only.end, values.end);
      ASSERT_EQ(late_values.begin, values.begin);
      ASSERT_EQ(late_values.end, values.end);
      for (size_t e = values.begin; e < values.end; ++e) {
        const int32_t vi = values.batch->value_index[e];
        ASSERT_EQ(late_values.batch->value_index[e], vi);
        if (vi < 0) continue;
        EXPECT_EQ(late_values.batch->ints[static_cast<size_t>(vi)],
                  values.batch->ints[static_cast<size_t>(vi)]);
      }
    }
    EXPECT_GT(records, 0u);
  }
  insert(40, true);
  check("with a memtable");
  ds->reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(ColumnarLayouts, ColumnSpanEquivalenceTest,
                         ::testing::Values(LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

TEST(ColumnNativeUnnestTest, ReadsOnlyTheItemColumnsItAggregates) {
  // Cold AMAX cache: MAX(r.temp) fetches the readings.temp megapages only;
  // the same plan with a pre-filter on the whole array must also fetch
  // readings.ts and readings.hum.
  const std::string dir = testing::TempDir() + "/column_native_pages";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  BufferCache cache(4096 * kPage, kPage);
  DatasetOptions options;
  options.layout = LayoutKind::kAmax;
  options.dir = dir;
  options.page_size = kPage;
  options.amax_max_records = 100;
  auto ds = Dataset::Open(options, &cache);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Rng rng(7);
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE((*ds)->Insert(MakeRecord(Workload::kSensors, i, &rng)).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());

  QueryPlan narrow = UnnestReadings();
  narrow.aggregates.push_back(AggSpec::Max(R("temp")));
  QueryPlan whole = narrow;
  whole.pre_filter = Expr::IsArray(Expr::Field({"readings"}));
  auto cold_pages = [&](const QueryPlan& plan, QueryResult* result) {
    cache.Clear();
    cache.ResetStats();
    auto r = RunCompiled(*(*ds)->GetSnapshot(), plan);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) *result = std::move(*r);
    return cache.stats().pages_read;
  };
  QueryResult narrow_result, whole_result;
  const uint64_t narrow_pages = cold_pages(narrow, &narrow_result);
  const uint64_t whole_pages = cold_pages(whole, &whole_result);
  EXPECT_LT(narrow_pages, whole_pages);
  EXPECT_EQ(Canonical(narrow_result), Canonical(whole_result));
  ds->reset();
  std::filesystem::remove_all(dir);
}

/// A document for the plans whose operands the engines read by reference.
/// "k" is MISSING, null or an int, and "k2" null, MISSING or an int, each
/// from the first record on, so the one group MISSING and null share keeps
/// whichever the scan meets first; "s" is a string that later records
/// replace as the MIN and MAX; "tags" are objects SOME reads beside the
/// record's "lim"; "addr" holds countries under an array-mapped path
/// (wos Q3/Q4's shape) and "entities.hashtags" texts (tweet_1's).
Value MakeBorrowDoc(int64_t id, Rng* rng) {
  static const char* const kCountries[] = {"USA", "China", "Japan", "Peru"};
  static const char* const kTags[] = {"jobs", "news", "ai"};
  Value doc = Value::MakeObject();
  doc.Set("id", Value::Int(id));
  doc.Set("g", Value::Int(id % 3));
  switch (id % 5) {
    case 0:
      break;
    case 1:
      doc.Set("k", Value::Null());
      break;
    default:
      doc.Set("k", Value::Int(id % 2));
  }
  switch ((id + 1) % 4) {
    case 1:
      doc.Set("k2", Value::Null());
      break;
    case 2:
      break;
    default:
      doc.Set("k2", Value::Int(7));
  }
  if (rng->Bernoulli(0.9)) doc.Set("s", Value::String(rng->Word(1, 6)));
  doc.Set("lim", Value::Int(static_cast<int64_t>(rng->Uniform(10))));
  Value tags = Value::MakeArray();
  for (uint64_t i = 0, n = rng->Uniform(4); i < n; ++i) {
    Value tag = Value::MakeObject();
    tag.Set("n", Value::Int(static_cast<int64_t>(rng->Uniform(12))));
    if (rng->Bernoulli(0.8)) {
      tag.Set("t", Value::String(kTags[rng->Uniform(3)]));
    }
    tags.Push(std::move(tag));
  }
  doc.Set("tags", std::move(tags));
  if (rng->Bernoulli(0.85)) {
    Value addr = Value::MakeArray();
    for (uint64_t i = 0, n = rng->Uniform(4); i < n; ++i) {
      Value spec = Value::MakeObject();
      if (rng->Bernoulli(0.9)) {
        spec.Set("country", Value::String(kCountries[rng->Uniform(4)]));
      }
      Value a = Value::MakeObject();
      a.Set("spec", std::move(spec));
      addr.Push(std::move(a));
    }
    doc.Set("addr", std::move(addr));
  }
  Value hashtags = Value::MakeArray();
  for (uint64_t i = 0, n = rng->Uniform(3); i < n; ++i) {
    Value h = Value::MakeObject();
    h.Set("text", Value::String(kTags[rng->Uniform(3)]));
    hashtags.Push(std::move(h));
  }
  Value entities = Value::MakeObject();
  entities.Set("hashtags", std::move(hashtags));
  doc.Set("entities", std::move(entities));
  return doc;
}

std::vector<NamedPlan> BorrowPlans() {
  const std::vector<std::string> kCountry = {"addr", "spec", "country"};
  const std::vector<std::string> kHashtag = {"entities", "hashtags", "text"};
  std::vector<NamedPlan> plans;
  {
    QueryPlan plan;
    plan.group_keys.push_back(Expr::Field({"k"}));
    plan.group_keys.push_back(Expr::Field({"k2"}));
    plan.aggregates.push_back(AggSpec::CountStar());
    plans.push_back({"missing_and_null_keys", plan});
  }
  {
    QueryPlan plan;
    plan.pre_filter = Expr::And(
        Expr::Compare(Expr::CmpOp::kLt, Expr::Int(1),
                      Expr::Literal(Value::Double(1.5))),
        Expr::Compare(Expr::CmpOp::kLt, Expr::Field({"lim"}), Expr::Int(5)));
    plan.group_keys.push_back(
        Expr::Compare(Expr::CmpOp::kEq, Expr::Str("a"), Expr::Str("a")));
    plan.group_keys.push_back(
        Expr::Compare(Expr::CmpOp::kGt, Expr::Int(10), Expr::Str("ten")));
    plan.aggregates.push_back(AggSpec::CountStar());
    plans.push_back({"literal_compare", plan});
  }
  {
    QueryPlan plan;
    plan.pre_filter = Expr::Some(
        "t", Expr::Field({"tags"}),
        Expr::And(Expr::Compare(Expr::CmpOp::kGt, Expr::VarPath("t", {"n"}),
                                Expr::Field({"lim"})),
                  Expr::Not(Expr::IsMissing(Expr::VarPath("t", {"t"})))));
    plan.group_keys.push_back(Expr::Field({"g"}));
    plan.aggregates.push_back(AggSpec::CountStar());
    plan.aggregates.push_back(AggSpec::Max(Expr::Field({"lim"})));
    plans.push_back({"some_reads_var_and_field", plan});
  }
  {
    // wos Q3's shape.
    auto countries = [&] { return Expr::ArrayDistinct(Expr::Field(kCountry)); };
    QueryPlan plan;
    plan.pre_filter = Expr::And(
        Expr::IsArray(Expr::Field({"addr"})),
        Expr::And(Expr::Compare(Expr::CmpOp::kGt,
                                Expr::ArrayCount(countries()), Expr::Int(1)),
                  Expr::ArrayContains(countries(), Expr::Str("USA"))));
    plan.unnests.push_back({countries(), "country"});
    plan.filter = Expr::Compare(Expr::CmpOp::kNe, Expr::Var("country"),
                                Expr::Str("USA"));
    plan.group_keys.push_back(Expr::Var("country"));
    plan.aggregates.push_back(AggSpec::CountStar());
    plans.push_back({"array_contains_distinct", plan});
    // wos Q4's shape.
    QueryPlan pairs;
    pairs.pre_filter = Expr::Compare(
        Expr::CmpOp::kGt, Expr::ArrayCount(countries()), Expr::Int(1));
    pairs.unnests.push_back({Expr::ArrayPairs(countries()), "pair"});
    pairs.group_keys.push_back(Expr::Var("pair"));
    pairs.aggregates.push_back(AggSpec::CountStar());
    plans.push_back({"array_pairs", pairs});
  }
  {
    QueryPlan plan;
    plan.group_keys.push_back(Expr::Field({"g"}));
    plan.aggregates.push_back(AggSpec::Min(Expr::Field({"s"})));
    plan.aggregates.push_back(AggSpec::Max(Expr::Field({"s"})));
    plan.aggregates.push_back(AggSpec::Min(Expr::Lower(Expr::Field({"s"}))));
    plans.push_back({"string_min_max", plan});
  }
  {
    QueryPlan plan;
    plan.pre_filter = Expr::ArrayContains(Expr::Field(kHashtag),
                                          Expr::Str("jobs"));
    plan.group_keys.push_back(Expr::Field(kHashtag));
    plan.aggregates.push_back(AggSpec::CountStar());
    plans.push_back({"array_mapped_path", plan});
  }
  return plans;
}

/// The rows of BorrowPlans() on MakeBorrowDoc's documents, each plan's
/// rows as Canonical() prints them under its name, recorded before the
/// engines read operands by reference. The columnar layouts read a null
/// object field as MISSING, so only the first plan's rows differ between
/// the row and the columnar layouts.
std::string ExpectedBorrowTable(LayoutKind layout) {
  const bool columnar =
      layout == LayoutKind::kApax || layout == LayoutKind::kAmax;
  std::string table = "missing_and_null_keys:\n";
  table += columnar ? R"(int64:0|int64:7|int64:36|
int64:0|missing:null|int64:36|
int64:1|int64:7|int64:36|
int64:1|missing:null|int64:36|
missing:null|int64:7|int64:48|
missing:null|missing:null|int64:48|
)"
                    : R"(int64:0|int64:7|int64:36|
int64:0|null:null|int64:36|
int64:1|int64:7|int64:36|
int64:1|missing:null|int64:36|
missing:null|null:null|int64:48|
null:null|int64:7|int64:48|
)";
  return table + R"(literal_compare:
boolean:true|missing:null|int64:109|
some_reads_var_and_field:
int64:0|int64:35|int64:9|
int64:1|int64:39|int64:8|
int64:2|int64:32|int64:8|
array_contains_distinct:
string:"China"|int64:15|
string:"Japan"|int64:15|
string:"Peru"|int64:21|
array_pairs:
array:["China","Japan"]|int64:8|
array:["China","Peru"]|int64:11|
array:["China","USA"]|int64:15|
array:["Japan","Peru"]|int64:16|
array:["Japan","USA"]|int64:15|
array:["Peru","USA"]|int64:21|
string_min_max:
int64:0|string:"a"|string:"zoxh"|string:"a"|
int64:1|string:"a"|string:"znr"|string:"a"|
int64:2|string:"aic"|string:"zfn"|string:"aic"|
array_mapped_path:
array:["ai","jobs"]|int64:10|
array:["jobs","ai"]|int64:7|
array:["jobs","jobs"]|int64:12|
array:["jobs","news"]|int64:11|
array:["jobs"]|int64:22|
array:["news","jobs"]|int64:8|
)";
}

class BorrowedOperandTest : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(BorrowedOperandTest, EnginesAgreeWithRecordedRows) {
  const std::string dir = testing::TempDir() + "/borrowed_operands_" +
                          std::string(LayoutKindName(GetParam()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  BufferCache cache(1024 * kPage, kPage);
  DatasetOptions options;
  options.layout = GetParam();
  options.dir = dir;
  options.page_size = kPage;
  options.memtable_bytes = 1 << 20;
  options.amax_max_records = 40;
  auto ds = Dataset::Open(options, &cache);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Dataset* dataset = ds->get();
  Rng rng(33);
  for (int64_t id = 0; id < 240; ++id) {
    ASSERT_TRUE(dataset->Insert(MakeBorrowDoc(id, &rng)).ok());
    if (id == 99 || id == 179) {
      ASSERT_TRUE(dataset->Flush().ok());
    }
    if (id == 199) {
      ASSERT_TRUE(dataset->MergeAll().ok());
    }
  }
  const Snapshot::Ref snapshot = dataset->GetSnapshot();
  std::string table;
  for (const NamedPlan& named : BorrowPlans()) {
    SCOPED_TRACE(named.name);
    auto interpreted = RunInterpreted(*snapshot, named.plan);
    ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
    auto compiled = RunCompiled(*snapshot, named.plan);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_EQ(compiled->pipeline_tuples, interpreted->pipeline_tuples);
    const std::vector<std::string> rows = Canonical(*interpreted);
    EXPECT_EQ(Canonical(*compiled), rows);
    table += named.name + ":\n";
    for (const std::string& row : rows) table += row + "\n";
  }
  EXPECT_EQ(table, ExpectedBorrowTable(GetParam()));
  ds->reset();
  std::filesystem::remove_all(dir);
}

class IntegerOverflowTest : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(IntegerOverflowTest, SumAndArithmeticPromoteToDouble) {
  // ~1,100 values near 2^53 sum past INT64_MAX; SUM goes on in double from
  // the value that overflows, in scan order, over a record field (Fold)
  // and over an unnested column (the compiled engine's typed loop on the
  // columnar layouts). Int64 +, - and * that overflow give doubles.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::string dir = testing::TempDir() + "/int_overflow_" +
                          std::string(LayoutKindName(GetParam()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  BufferCache cache(1024 * kPage, kPage);
  DatasetOptions options;
  options.layout = GetParam();
  options.dir = dir;
  options.page_size = kPage;
  options.memtable_bytes = 1 << 20;
  options.amax_max_records = 100;
  auto ds = Dataset::Open(options, &cache);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Dataset* dataset = ds->get();
  Rng rng(9);
  std::vector<int64_t> bigs, readings;
  for (int64_t id = 0; id < 1100; ++id) {
    Value doc = Value::MakeObject();
    doc.Set("id", Value::Int(id));
    doc.Set("g", Value::Int(id % 2));
    bigs.push_back((int64_t{1} << 53) + static_cast<int64_t>(rng.Uniform(99)));
    doc.Set("big", Value::Int(bigs.back()));
    Value array = Value::MakeArray();
    for (uint64_t i = 0, n = 1 + rng.Uniform(3); i < n; ++i) {
      Value r = Value::MakeObject();
      readings.push_back((int64_t{1} << 53) +
                         static_cast<int64_t>(rng.Uniform(99)));
      r.Set("v", Value::Int(readings.back()));
      array.Push(std::move(r));
    }
    doc.Set("readings", std::move(array));
    if (id == 500) {
      doc.Set("max", Value::Int(kMax));
      doc.Set("min", Value::Int(kMin));
    }
    ASSERT_TRUE(dataset->Insert(doc).ok());
    if (id == 399 || id == 799) {
      ASSERT_TRUE(dataset->Flush().ok());
    }
    if (id == 999) {
      ASSERT_TRUE(dataset->MergeAll().ok());
    }
  }
  auto expected_sum = [](const std::vector<int64_t>& values) {
    int64_t isum = 0;
    size_t i = 0;
    for (; i < values.size() && isum <= kMax - values[i]; ++i) {
      isum += values[i];  // values are positive
    }
    if (i == values.size()) return Value::Int(isum);
    double sum = static_cast<double>(isum);
    for (; i < values.size(); ++i) sum += static_cast<double>(values[i]);
    return Value::Double(sum);
  };
  const double two63 = 9223372036854775808.0;
  QueryPlan field_sum;
  field_sum.aggregates.push_back(AggSpec::Sum(Expr::Field({"big"})));
  QueryPlan unnest_sum = UnnestReadings();
  unnest_sum.aggregates.push_back(AggSpec::Sum(R("v")));
  QueryPlan grouped_sum = unnest_sum;
  grouped_sum.group_keys.push_back(Expr::Field({"g"}));
  QueryPlan arith;
  arith.pre_filter = Expr::Not(Expr::IsMissing(Expr::Field({"max"})));
  arith.projections.push_back(
      Expr::Arith(Expr::ArithOp::kAdd, Expr::Field({"max"}), Expr::Int(1)));
  arith.projections.push_back(
      Expr::Arith(Expr::ArithOp::kSub, Expr::Field({"min"}), Expr::Int(1)));
  arith.projections.push_back(
      Expr::Arith(Expr::ArithOp::kMul, Expr::Field({"max"}), Expr::Int(2)));
  const std::vector<NamedPlan> plans = {
      {"field_sum", field_sum},
      {"unnest_sum", unnest_sum},
      {"grouped_unnest_sum", grouped_sum},
      {"arith", arith}};
  const std::vector<std::vector<Value>> expected = {
      {expected_sum(bigs)},
      {expected_sum(readings)},
      {},
      {Value::Double(two63), Value::Double(-two63), Value::Double(2 * two63)}};
  const Snapshot::Ref snapshot = dataset->GetSnapshot();
  for (size_t p = 0; p < plans.size(); ++p) {
    SCOPED_TRACE(plans[p].name);
    auto interpreted = RunInterpreted(*snapshot, plans[p].plan);
    ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
    auto compiled = RunCompiled(*snapshot, plans[p].plan);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_EQ(compiled->pipeline_tuples, interpreted->pipeline_tuples);
    EXPECT_EQ(Canonical(*compiled), Canonical(*interpreted));
    if (expected[p].empty()) continue;
    ASSERT_EQ(interpreted->rows.size(), 1u);
    const std::vector<Value>& row = interpreted->rows[0];
    ASSERT_EQ(row.size(), expected[p].size());
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_TRUE(row[c].is_double()) << ToJson(row[c]);
      EXPECT_TRUE(row[c].Equals(expected[p][c]))
          << ToJson(row[c]) << " vs " << ToJson(expected[p][c]);
    }
  }
  ds->reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, BorrowedOperandTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

INSTANTIATE_TEST_SUITE_P(AllLayouts, IntegerOverflowTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

}  // namespace
}  // namespace lsmcol
