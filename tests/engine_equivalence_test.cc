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
    ASSERT_GT(snapshot->memtable().entries().size(), 0u);

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

}  // namespace
}  // namespace lsmcol
