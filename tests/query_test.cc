// Query engine tests: expression semantics, and equivalence of the
// interpreted and compiled engines across all four layouts on the paper's
// query shapes (COUNT(*), filters, group-by, unnest, quantifiers, union-
// typed data).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <set>

#include "src/common/rng.h"
#include "src/json/parser.h"
#include "src/lsm/dataset.h"
#include "src/query/engine.h"

namespace lsmcol {
namespace {

constexpr size_t kPage = 8192;

TEST(ExprTest, CompareMismatchedTypesYieldsMissing) {
  // The paper's example: 10 > "ten" → NULL (§5).
  EvalContext ctx;
  Value v;
  auto e = Expr::Compare(Expr::CmpOp::kGt, Expr::Int(10), Expr::Str("ten"));
  ASSERT_TRUE(e->Eval(&ctx, &v).ok());
  EXPECT_TRUE(v.is_missing());
  EXPECT_FALSE(IsTrue(v));
}

TEST(ExprTest, NumericComparisonsAcrossIntAndDouble) {
  EvalContext ctx;
  Value v;
  auto lt = Expr::Compare(Expr::CmpOp::kLt, Expr::Int(3),
                          Expr::Literal(Value::Double(3.5)));
  ASSERT_TRUE(lt->Eval(&ctx, &v).ok());
  EXPECT_TRUE(v.bool_value());
  auto eq = Expr::Compare(Expr::CmpOp::kEq, Expr::Int(4),
                          Expr::Literal(Value::Double(4.0)));
  ASSERT_TRUE(eq->Eval(&ctx, &v).ok());
  EXPECT_TRUE(v.bool_value());
}

TEST(ExprTest, FieldPathMapsOverArrays) {
  auto record = ParseJson(
      R"({"addr":[{"spec":{"c":"US"}},{"spec":{"c":"DE"}}]})");
  ValueFieldSource source(&*record);
  EvalContext ctx;
  ctx.record = &source;
  Value v;
  ASSERT_TRUE(Expr::Field({"addr", "spec", "c"})->Eval(&ctx, &v).ok());
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.array().size(), 2u);
  EXPECT_EQ(v.array()[0].string_value(), "US");
  EXPECT_EQ(v.array()[1].string_value(), "DE");
}

TEST(ExprTest, ArrayFunctions) {
  auto record = ParseJson(R"({"xs":["b","a","b","c"]})");
  ValueFieldSource source(&*record);
  EvalContext ctx;
  ctx.record = &source;
  Value v;
  ASSERT_TRUE(
      Expr::ArrayDistinct(Expr::Field({"xs"}))->Eval(&ctx, &v).ok());
  EXPECT_EQ(v.array().size(), 3u);
  ASSERT_TRUE(Expr::ArrayCount(Expr::Field({"xs"}))->Eval(&ctx, &v).ok());
  EXPECT_EQ(v.int_value(), 4);
  ASSERT_TRUE(Expr::ArrayContains(Expr::Field({"xs"}), Expr::Str("c"))
                  ->Eval(&ctx, &v)
                  .ok());
  EXPECT_TRUE(v.bool_value());
  ASSERT_TRUE(
      Expr::ArrayPairs(Expr::ArrayDistinct(Expr::Field({"xs"})))
          ->Eval(&ctx, &v)
          .ok());
  EXPECT_EQ(v.array().size(), 3u);  // C(3,2)
  // Pairs are canonically ordered.
  EXPECT_EQ(v.array()[0].array()[0].string_value(), "a");
}

TEST(ExprTest, SomeSatisfies) {
  auto record = ParseJson(R"({"tags":[{"t":"Jobs"},{"t":"news"}]})");
  ValueFieldSource source(&*record);
  EvalContext ctx;
  ctx.record = &source;
  Value v;
  auto some = Expr::Some(
      "ht", Expr::Field({"tags"}),
      Expr::Compare(Expr::CmpOp::kEq, Expr::Lower(Expr::VarPath("ht", {"t"})),
                    Expr::Str("jobs")));
  ASSERT_TRUE(some->Eval(&ctx, &v).ok());
  EXPECT_TRUE(v.bool_value());
}

TEST(ExprTest, BooleanConnectivesShortCircuit) {
  EvalContext ctx;
  Value v;
  auto t = Expr::Literal(Value::Bool(true));
  auto f = Expr::Literal(Value::Bool(false));
  ASSERT_TRUE(Expr::And(f, Expr::Field({"never"}))->Eval(&ctx, &v).ok());
  EXPECT_FALSE(v.bool_value());
  ASSERT_TRUE(Expr::Or(t, Expr::Field({"never"}))->Eval(&ctx, &v).ok());
  EXPECT_TRUE(v.bool_value());
  ASSERT_TRUE(Expr::Not(t)->Eval(&ctx, &v).ok());
  EXPECT_FALSE(v.bool_value());
}

TEST(ExprTest, ArithmeticAndDivByZero) {
  EvalContext ctx;
  Value v;
  ASSERT_TRUE(Expr::Arith(Expr::ArithOp::kAdd, Expr::Int(2), Expr::Int(3))
                  ->Eval(&ctx, &v)
                  .ok());
  EXPECT_EQ(v.int_value(), 5);
  ASSERT_TRUE(Expr::Arith(Expr::ArithOp::kDiv, Expr::Int(1), Expr::Int(0))
                  ->Eval(&ctx, &v)
                  .ok());
  EXPECT_TRUE(v.is_missing());
}

TEST(ExprTest, IntegerOverflowPromotesToDouble) {
  // An int64 result that overflows is computed in double, as when either
  // operand is a double; one that fits stays an int.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const double two63 = 9223372036854775808.0;
  struct Case {
    Expr::ArithOp op;
    int64_t a, b;
    Value expected;
  };
  const Case cases[] = {
      {Expr::ArithOp::kAdd, kMax, 1, Value::Double(two63)},
      {Expr::ArithOp::kSub, kMin, 1, Value::Double(-two63)},
      {Expr::ArithOp::kMul, kMax, 2, Value::Double(2 * two63)},
      {Expr::ArithOp::kMul, kMin, -1, Value::Double(two63)},
      {Expr::ArithOp::kAdd, kMax, 0, Value::Int(kMax)},
      {Expr::ArithOp::kSub, kMin, -1, Value::Int(kMin + 1)},
      {Expr::ArithOp::kMul, kMin, 1, Value::Int(kMin)},
  };
  EvalContext ctx;
  for (const Case& c : cases) {
    Value v;
    ASSERT_TRUE(
        Expr::Arith(c.op, Expr::Int(c.a), Expr::Int(c.b))->Eval(&ctx, &v).ok());
    EXPECT_TRUE(v.Equals(c.expected))
        << c.a << " op " << c.b << ": " << ToJson(v);
  }
}

// ------------------------------------------------ engine equivalence ---

class QueryEngineTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/query_" +
           std::string(LayoutKindName(GetParam())) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(1024 * kPage, kPage);
    DatasetOptions options;
    options.layout = GetParam();
    options.dir = dir_;
    options.page_size = kPage;
    options.memtable_bytes = 64 * 1024;
    options.amax_max_records = 300;
    auto ds = Dataset::Open(options, cache_.get());
    ASSERT_TRUE(ds.ok());
    dataset_ = std::move(*ds);
    LoadGamers();
  }
  void TearDown() override {
    dataset_.reset();
    std::filesystem::remove_all(dir_);
  }

  void LoadGamers() {
    Rng rng(42);
    const char* titles[] = {"NBA", "NFL", "FIFA", "PES", "Zelda"};
    const char* consoles[] = {"PS4", "PC", "XBOX", "Switch"};
    for (int64_t i = 0; i < 800; ++i) {
      Value v = Value::MakeObject();
      v.Set("id", Value::Int(i));
      if (rng.Bernoulli(0.9)) {
        Value name = Value::MakeObject();
        name.Set("first", Value::String(rng.Word(3, 8)));
        if (rng.Bernoulli(0.8)) {
          name.Set("last", Value::String(rng.Word(3, 8)));
        }
        v.Set("name", std::move(name));
      }
      v.Set("age", Value::Int(static_cast<int64_t>(18 + rng.Uniform(50))));
      v.Set("score", Value::Double(rng.NextDouble() * 100));
      Value games = Value::MakeArray();
      for (uint64_t g = 0; g < rng.Uniform(4); ++g) {
        Value game = Value::MakeObject();
        game.Set("title", Value::String(titles[rng.Uniform(5)]));
        Value cs = Value::MakeArray();
        for (uint64_t c = 0; c < rng.Uniform(3); ++c) {
          cs.Push(Value::String(consoles[rng.Uniform(4)]));
        }
        game.Set("consoles", std::move(cs));
        games.Push(std::move(game));
      }
      v.Set("games", std::move(games));
      ASSERT_TRUE(dataset_->Insert(v).ok());
    }
    ASSERT_TRUE(dataset_->Flush().ok());
  }

  // Run both engines and require identical results; return the rows.
  QueryResult RunBoth(const QueryPlan& plan) {
    auto interpreted = RunInterpreted(*dataset_->GetSnapshot(), plan);
    EXPECT_TRUE(interpreted.ok()) << interpreted.status().ToString();
    auto compiled = RunCompiled(*dataset_->GetSnapshot(), plan);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_EQ(interpreted->rows.size(), compiled->rows.size());
    EXPECT_EQ(interpreted->pipeline_tuples, compiled->pipeline_tuples);
    for (size_t i = 0;
         i < std::min(interpreted->rows.size(), compiled->rows.size()); ++i) {
      EXPECT_EQ(interpreted->rows[i].size(), compiled->rows[i].size());
      if (interpreted->rows[i].size() != compiled->rows[i].size()) continue;
      for (size_t j = 0; j < interpreted->rows[i].size(); ++j) {
        EXPECT_TRUE(
            ValueEquivalent(interpreted->rows[i][j], compiled->rows[i][j]))
            << "row " << i << " col " << j << ": "
            << ToJson(interpreted->rows[i][j]) << " vs "
            << ToJson(compiled->rows[i][j]);
      }
    }
    return std::move(*compiled);
  }

  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
  std::unique_ptr<Dataset> dataset_;
};

TEST_P(QueryEngineTest, CountStar) {
  QueryPlan plan;
  plan.aggregates.push_back(AggSpec::CountStar());
  auto result = RunBoth(plan);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].int_value(), 800);
}

TEST_P(QueryEngineTest, FilterCount) {
  QueryPlan plan;
  plan.pre_filter =
      Expr::Compare(Expr::CmpOp::kGe, Expr::Field({"age"}), Expr::Int(40));
  plan.aggregates.push_back(AggSpec::CountStar());
  auto result = RunBoth(plan);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_GT(result.rows[0][0].int_value(), 100);
  EXPECT_LT(result.rows[0][0].int_value(), 700);
}

TEST_P(QueryEngineTest, GlobalMinMax) {
  QueryPlan plan;
  plan.aggregates.push_back(AggSpec::Max(Expr::Field({"score"})));
  plan.aggregates.push_back(AggSpec::Min(Expr::Field({"score"})));
  auto result = RunBoth(plan);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_GT(result.rows[0][0].as_double(), result.rows[0][1].as_double());
}

TEST_P(QueryEngineTest, GroupByWithOrderAndLimit) {
  // Top-3 ages by count.
  QueryPlan plan;
  plan.group_keys.push_back(Expr::Field({"age"}));
  plan.aggregates.push_back(AggSpec::CountStar());
  plan.order_by = 1;
  plan.order_desc = true;
  plan.limit = 3;
  auto result = RunBoth(plan);
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_GE(result.rows[0][1].int_value(), result.rows[1][1].int_value());
  EXPECT_GE(result.rows[1][1].int_value(), result.rows[2][1].int_value());
}

TEST_P(QueryEngineTest, UnnestGroupBy) {
  // Figure 11's query: unnest games, count per title.
  QueryPlan plan;
  plan.unnests.push_back({Expr::Field({"games"}), "g"});
  plan.group_keys.push_back(Expr::VarPath("g", {"title"}));
  plan.aggregates.push_back(AggSpec::CountStar());
  plan.order_by = 1;
  plan.limit = 10;
  auto result = RunBoth(plan);
  EXPECT_GE(result.rows.size(), 4u);
  uint64_t total = 0;
  for (const auto& row : result.rows) {
    total += static_cast<uint64_t>(row[1].int_value());
  }
  EXPECT_EQ(total, result.pipeline_tuples);
}

TEST_P(QueryEngineTest, DoubleUnnest) {
  // Count console occurrences across all games.
  QueryPlan plan;
  plan.unnests.push_back({Expr::Field({"games"}), "g"});
  plan.unnests.push_back({Expr::VarPath("g", {"consoles"}), "c"});
  plan.group_keys.push_back(Expr::Var("c"));
  plan.aggregates.push_back(AggSpec::CountStar());
  plan.order_by = 1;
  auto result = RunBoth(plan);
  EXPECT_EQ(result.rows.size(), 4u);  // four console names
}

TEST_P(QueryEngineTest, SomeSatisfiesFilter) {
  QueryPlan plan;
  plan.pre_filter = Expr::Some(
      "g", Expr::Field({"games"}),
      Expr::Compare(Expr::CmpOp::kEq, Expr::Lower(Expr::VarPath("g", {"title"})),
                    Expr::Str("fifa")));
  plan.aggregates.push_back(AggSpec::CountStar());
  auto result = RunBoth(plan);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_GT(result.rows[0][0].int_value(), 0);
  EXPECT_LT(result.rows[0][0].int_value(), 800);
}

TEST_P(QueryEngineTest, ProjectionQueryNoAggregates) {
  QueryPlan plan;
  plan.pre_filter =
      Expr::Compare(Expr::CmpOp::kLt, Expr::Field({"id"}), Expr::Int(5));
  plan.projections.push_back(Expr::Field({"id"}));
  plan.projections.push_back(Expr::Field({"name", "first"}));
  plan.order_by = 0;
  plan.order_desc = false;
  auto result = RunBoth(plan);
  ASSERT_EQ(result.rows.size(), 5u);
  EXPECT_EQ(result.rows[0][0].int_value(), 0);
  EXPECT_EQ(result.rows[4][0].int_value(), 4);
}

TEST_P(QueryEngineTest, SumAggregate) {
  QueryPlan plan;
  plan.group_keys.push_back(Expr::Field({"age"}));
  plan.aggregates.push_back(AggSpec::Sum(Expr::Field({"score"})));
  plan.aggregates.push_back(AggSpec::Count(Expr::Field({"score"})));
  auto result = RunBoth(plan);
  EXPECT_GT(result.rows.size(), 10u);
}

TEST_P(QueryEngineTest, UnionSiblingColumnsStayFreshAcrossRecords) {
  // Regression: with a narrow projection, Path() may touch columns outside
  // the projection (union siblings); their cached per-record parses must
  // be invalidated on every cursor advance.
  QueryPlan plan;
  plan.pre_filter = Expr::Not(
      Expr::IsMissing(Expr::Field({"name", "first"})));
  plan.projections.push_back(Expr::Field({"id"}));
  plan.projections.push_back(Expr::Field({"name", "first"}));
  auto result = RunBoth(plan);
  EXPECT_GT(result.rows.size(), 500u);  // ~90% of 800 records have names
  for (const auto& row : result.rows) {
    EXPECT_TRUE(row[1].is_string());
  }
}

TEST_P(QueryEngineTest, FieldPastTheKeyIsMissing) {
  // A path that steps past the PK resolves to the PK node on the columnar
  // layouts: its value is MISSING, and reading it must neither fail nor
  // disturb the key later reads assemble.
  QueryPlan plan;
  plan.pre_filter =
      Expr::Compare(Expr::CmpOp::kLt, Expr::Field({"id"}), Expr::Int(5));
  plan.projections.push_back(Expr::Field({"id", "x"}));
  plan.projections.push_back(Expr::Field({"id"}));
  plan.order_by = 1;
  plan.order_desc = false;
  auto result = RunBoth(plan);
  ASSERT_EQ(result.rows.size(), 5u);
  for (size_t i = 0; i < result.rows.size(); ++i) {
    EXPECT_TRUE(result.rows[i][0].is_missing()) << ToJson(result.rows[i][0]);
    EXPECT_EQ(result.rows[i][1].int_value(), static_cast<int64_t>(i));
  }
  for (size_t c = 0; c < dataset_->component_count(); ++c) {
    EXPECT_FALSE(dataset_->component(c).quarantined()) << c;
  }
}

TEST_P(QueryEngineTest, TopKKeepsTheRowsAStableSortKeeps) {
  // ORDER BY ... LIMIT k keeps a top-k, not a sorted copy of every row.
  // It must keep exactly what a stable sort then a cut keeps, ties that
  // straddle the limit included: on a projection (rows in key order) and
  // on groups, in both engines and both directions.
  QueryPlan projection;
  projection.projections.push_back(Expr::Field({"id"}));
  projection.projections.push_back(Expr::Field({"age"}));
  QueryPlan grouped;
  grouped.group_keys.push_back(Expr::Field({"age"}));
  grouped.aggregates.push_back(AggSpec::CountStar());
  const Snapshot::Ref snapshot = dataset_->GetSnapshot();
  for (const QueryPlan& plan : {projection, grouped}) {
    for (bool compiled : {false, true}) {
      for (bool desc : {true, false}) {
        SCOPED_TRACE(std::string(plan.aggregates.empty() ? "projection"
                                                         : "grouped") +
                     (compiled ? ", compiled" : ", interpreted") +
                     (desc ? ", desc" : ", asc"));
        auto unordered = RunQuery(*snapshot, plan, compiled);
        ASSERT_TRUE(unordered.ok()) << unordered.status().ToString();
        std::vector<std::vector<Value>> sorted = unordered->rows;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [&](const auto& a, const auto& b) {
                           const int c = CompareValues(a[1], b[1]);
                           return desc ? c > 0 : c < 0;
                         });
        // The first limit past 2 that cuts a run of equal values.
        size_t k = 3;
        while (k < sorted.size() &&
               CompareValues(sorted[k - 1][1], sorted[k][1]) != 0) {
          ++k;
        }
        ASSERT_LT(k, sorted.size());
        for (size_t limit : {k, sorted.size(), size_t{0}}) {
          QueryPlan ordered = plan;
          ordered.order_by = 1;
          ordered.order_desc = desc;
          ordered.limit = limit;
          auto result = RunQuery(*snapshot, ordered, compiled);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          const size_t expected = limit == 0 ? sorted.size() : limit;
          ASSERT_EQ(result->rows.size(), expected);
          for (size_t r = 0; r < expected; ++r) {
            for (size_t c = 0; c < 2; ++c) {
              EXPECT_TRUE(ValueEquivalent(result->rows[r][c], sorted[r][c]))
                  << "limit " << limit << ", row " << r << ": "
                  << ToJson(result->rows[r][c]) << " vs "
                  << ToJson(sorted[r][c]);
            }
          }
        }
      }
    }
  }
}

TEST_P(QueryEngineTest, SumAndArithmeticPromoteToDoubleOnOverflow) {
  // ~1,100 values near 2^53 sum past INT64_MAX. SUM then goes on in
  // double from the value that overflows, in scan order: through Fold on a
  // record field, and through the compiled engine's typed loop on an
  // unnested column (the columnar layouts).
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  Rng rng(5);
  std::vector<int64_t> bigs, items;
  for (int64_t id = 1000; id < 2100; ++id) {
    Value v = Value::MakeObject();
    v.Set("id", Value::Int(id));
    bigs.push_back((int64_t{1} << 53) +
                   static_cast<int64_t>(rng.Uniform(1000)));
    v.Set("big", Value::Int(bigs.back()));
    Value array = Value::MakeArray();
    for (int i = 0; i < 3; ++i) {
      Value item = Value::MakeObject();
      items.push_back((int64_t{1} << 52) +
                      static_cast<int64_t>(rng.Uniform(1000)));
      item.Set("v", Value::Int(items.back()));
      array.Push(std::move(item));
    }
    v.Set("items", std::move(array));
    if (id == 1000) {
      v.Set("max", Value::Int(kMax));
      v.Set("min", Value::Int(kMin));
    }
    ASSERT_TRUE(dataset_->Insert(v).ok());
  }
  ASSERT_TRUE(dataset_->Flush().ok());
  // The expected sums, folded the same way.
  auto expected_sum = [](const std::vector<int64_t>& values) {
    int64_t isum = 0;
    size_t i = 0;
    for (; i < values.size(); ++i) {
      if (isum > kMax - values[i]) break;  // values are positive
      isum += values[i];
    }
    if (i == values.size()) return Value::Int(isum);
    double sum = static_cast<double>(isum);
    for (; i < values.size(); ++i) sum += static_cast<double>(values[i]);
    return Value::Double(sum);
  };

  QueryPlan field_sum;
  field_sum.aggregates.push_back(AggSpec::Sum(Expr::Field({"big"})));
  auto result = RunBoth(field_sum);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_TRUE(result.rows[0][0].is_double());
  EXPECT_TRUE(result.rows[0][0].Equals(expected_sum(bigs)))
      << ToJson(result.rows[0][0]);

  QueryPlan unnest_sum;
  unnest_sum.unnests.push_back({Expr::Field({"items"}), "it"});
  unnest_sum.aggregates.push_back(AggSpec::Sum(Expr::VarPath("it", {"v"})));
  result = RunBoth(unnest_sum);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_TRUE(result.rows[0][0].is_double());
  EXPECT_TRUE(result.rows[0][0].Equals(expected_sum(items)))
      << ToJson(result.rows[0][0]);

  QueryPlan arith;
  arith.pre_filter = Expr::Not(Expr::IsMissing(Expr::Field({"max"})));
  arith.projections.push_back(Expr::Arith(
      Expr::ArithOp::kAdd, Expr::Field({"max"}), Expr::Int(1)));
  arith.projections.push_back(Expr::Arith(
      Expr::ArithOp::kSub, Expr::Field({"min"}), Expr::Int(1)));
  arith.projections.push_back(Expr::Arith(
      Expr::ArithOp::kMul, Expr::Field({"max"}), Expr::Int(2)));
  result = RunBoth(arith);
  ASSERT_EQ(result.rows.size(), 1u);
  const double two63 = 9223372036854775808.0;
  EXPECT_TRUE(result.rows[0][0].Equals(Value::Double(two63)));
  EXPECT_TRUE(result.rows[0][1].Equals(Value::Double(-two63)));
  EXPECT_TRUE(result.rows[0][2].Equals(Value::Double(2 * two63)));
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, QueryEngineTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

// Heterogeneous (union-typed) data through both engines, as in wos (§6.4.4).
class HeteroQueryTest : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(HeteroQueryTest, UnionTypedFieldQueries) {
  const std::string dir = testing::TempDir() + "/hetero_" +
                          std::string(LayoutKindName(GetParam()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  BufferCache cache(256 * kPage, kPage);
  DatasetOptions options;
  options.layout = GetParam();
  options.dir = dir;
  options.page_size = kPage;
  auto ds = Dataset::Open(options, &cache);
  ASSERT_TRUE(ds.ok());
  // "address" is an object for single-author records, an array of objects
  // otherwise (the wos pattern).
  for (int64_t i = 0; i < 200; ++i) {
    std::string json = "{\"id\": " + std::to_string(i);
    if (i % 3 == 0) {
      json += R"(, "address": {"country": "US"}})";
    } else {
      json += R"(, "address": [{"country": "US"}, {"country": "DE"}]})";
    }
    ASSERT_TRUE((*ds)->InsertJson(json).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());

  // Count records whose address is an array (multi-author).
  QueryPlan plan;
  plan.pre_filter = Expr::IsArray(Expr::Field({"address"}));
  plan.aggregates.push_back(AggSpec::CountStar());
  auto interpreted = RunInterpreted(*(*ds)->GetSnapshot(), plan);
  auto compiled = RunCompiled(*(*ds)->GetSnapshot(), plan);
  ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(interpreted->rows[0][0].int_value(), 133);
  EXPECT_EQ(compiled->rows[0][0].int_value(), 133);

  // Group countries regardless of the container type (path maps arrays).
  QueryPlan group;
  group.unnests.push_back(
      {Expr::ArrayDistinct(Expr::Field({"address", "country"})), "c"});
  group.group_keys.push_back(Expr::Var("c"));
  group.aggregates.push_back(AggSpec::CountStar());
  group.order_by = 1;
  // For the object case address.country is a string, not an array; wrap it
  // the SQL++ way: filter arrays only.
  group.pre_filter = Expr::IsArray(Expr::Field({"address"}));
  auto r1 = RunInterpreted(*(*ds)->GetSnapshot(), group);
  auto r2 = RunCompiled(*(*ds)->GetSnapshot(), group);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1->rows.size(), 2u);
  EXPECT_EQ(r2->rows.size(), 2u);
  EXPECT_EQ(r1->rows[0][1].int_value(), 133);  // both US and DE appear 133x
  ds->reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, HeteroQueryTest,
                         ::testing::Values(LayoutKind::kOpen, LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

// ------------------------------------------------ group-key encoding ---

TEST_P(QueryEngineTest, GroupKeysWithSeparatorBytesNeverMerge) {
  // Regression for the aggregator's group-key encoding: with naive
  // separator-joined keys, ("a<sep>", "b") and ("a", "<sep>b") collide.
  // Length-prefixed encoding must keep every combination distinct,
  // including across a string/int type boundary ("5" vs 5).
  const std::string sep(1, '\x1f');
  struct KeyPair {
    Value k1, k2;
  };
  std::vector<KeyPair> pairs;
  pairs.push_back({Value::String("a" + sep), Value::String("b")});
  pairs.push_back({Value::String("a"), Value::String(sep + "b")});
  pairs.push_back({Value::String("a" + sep + "b"), Value::String("")});
  pairs.push_back({Value::String("5"), Value::String("x")});
  pairs.push_back({Value::Int(5), Value::String("x")});
  // A throwaway dataset: the group keys come from the records themselves.
  const std::string dir = testing::TempDir() + "/groupkeys";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  BufferCache cache(256 * kPage, kPage);
  DatasetOptions options;
  options.layout = GetParam();
  options.dir = dir;
  options.page_size = kPage;
  auto ds = Dataset::Open(options, &cache);
  ASSERT_TRUE(ds.ok());
  for (size_t i = 0; i < pairs.size(); ++i) {
    Value v = Value::MakeObject();
    v.Set("id", Value::Int(static_cast<int64_t>(i)));
    v.Set("k1", pairs[i].k1);
    v.Set("k2", pairs[i].k2);
    ASSERT_TRUE((*ds)->Insert(v).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());
  QueryPlan plan;
  plan.group_keys.push_back(Expr::Field({"k1"}));
  plan.group_keys.push_back(Expr::Field({"k2"}));
  plan.aggregates.push_back(AggSpec::CountStar());
  for (bool compiled : {false, true}) {
    auto result = RunQuery(*(*ds)->GetSnapshot(), plan, compiled);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->rows.size(), pairs.size())
        << "distinct key tuples merged (compiled=" << compiled << ")";
    for (const auto& row : result->rows) {
      EXPECT_EQ(row[2].int_value(), 1);
    }
  }
  ds->reset();
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------ zone-map pushdown ---

TEST(ScanPredicateTest, NaNValuesFollowEngineComparisonQuirks) {
  // CompareValues returns 0 for any NaN operand, so NaN passes inclusive
  // bounds (>=, <=, ==) and fails strict ones (<, >). Pushed predicates
  // must reproduce that, not apply IEEE semantics.
  ColumnInfo info;
  info.id = 1;
  info.type = AtomicType::kDouble;
  info.max_def = 1;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ScanPredicate strict;
  strict.path = {"x"};
  strict.lower = Value::Double(10.0);
  strict.lower_inclusive = false;  // x > 10
  EXPECT_FALSE(CompileScanPredicate(strict, info).MatchesDouble(nan));
  ScanPredicate inclusive;
  inclusive.path = {"x"};
  inclusive.lower = Value::Double(10.0);  // x >= 10
  EXPECT_TRUE(CompileScanPredicate(inclusive, info).MatchesDouble(nan));
  ScanPredicate eq;
  eq.path = {"x"};
  eq.lower = Value::Double(10.0);
  eq.upper = Value::Double(10.0);  // x == 10: NaN "equals" via c == 0
  EXPECT_TRUE(CompileScanPredicate(eq, info).MatchesDouble(nan));

  // A chunk containing NaN widens its zone to everything, so zone maps
  // can never veto a leaf the engine would match through the quirk.
  ColumnChunkWriter writer(info);
  writer.AddDouble(5.0);
  writer.AddDouble(nan);
  writer.AddDouble(7.0);
  EXPECT_EQ(writer.min_double(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(writer.max_double(), std::numeric_limits<double>::infinity());
}

TEST(ScanPredicateTest, HugeIntLiteralsMatchEngineDoubleSemantics) {
  // The engine compares ALL numerics through as_double (CompareValues),
  // so at |v| >= 2^53 distinct ints can compare equal. Compiled
  // predicates must reproduce that, not "fix" it.
  ColumnInfo info;
  info.id = 1;
  info.type = AtomicType::kInt64;
  info.max_def = 1;
  const int64_t big = int64_t{1} << 53;
  ScanPredicate eq;
  eq.path = {"x"};
  eq.lower = Value::Int(big + 1);
  eq.upper = Value::Int(big + 1);
  TypedPredicate typed = CompileScanPredicate(eq, info);
  // as_double(2^53) == as_double(2^53 + 1): the engine would keep the
  // record, so the pushed predicate must too.
  EXPECT_TRUE(typed.MatchesInt(big));
  // Small literals stay in the exact int domain.
  ScanPredicate small;
  small.path = {"x"};
  small.lower = Value::Int(5);
  small.upper = Value::Int(5);
  TypedPredicate small_typed = CompileScanPredicate(small, info);
  EXPECT_TRUE(small_typed.MatchesInt(5));
  EXPECT_FALSE(small_typed.MatchesInt(6));
}

/// Columnar layouts only: a monotone timestamp column gives every leaf a
/// tight zone, so selective range filters should skip pages (AMAX) and
/// decode work, without ever changing results.
class ZoneMapTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/zonemap_" +
           std::string(LayoutKindName(GetParam())) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache_ = std::make_unique<BufferCache>(4096 * kPage, kPage);
    DatasetOptions options;
    options.layout = GetParam();
    options.dir = dir_;
    options.page_size = kPage;
    options.memtable_bytes = 256 * 1024;  // several flushes
    options.amax_max_records = 500;
    auto ds = Dataset::Open(options, cache_.get());
    ASSERT_TRUE(ds.ok());
    dataset_ = std::move(*ds);
  }
  void TearDown() override {
    dataset_.reset();
    std::filesystem::remove_all(dir_);
  }

  void LoadMonotone(int64_t n) {
    Rng rng(5);
    for (int64_t i = 0; i < n; ++i) {
      Value v = Value::MakeObject();
      v.Set("id", Value::Int(i));
      v.Set("ts", Value::Int(i * 10));  // monotone, even multiples of 10
      v.Set("tag", Value::String("tag_" + std::to_string(rng.Uniform(50))));
      v.Set("payload", Value::String(rng.Word(20, 40)));
      ASSERT_TRUE(dataset_->Insert(v).ok());
    }
    ASSERT_TRUE(dataset_->Flush().ok());
  }

  // Cold-run `plan`, returning pages_read.
  uint64_t ColdPages(const QueryPlan& plan, QueryResult* result) {
    cache_->Clear();
    cache_->ResetStats();
    auto r = RunCompiled(*dataset_->GetSnapshot(), plan);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (result != nullptr) *result = std::move(*r);
    return cache_->stats().pages_read;
  }

  std::string dir_;
  std::unique_ptr<BufferCache> cache_;
  std::unique_ptr<Dataset> dataset_;
};

TEST_P(ZoneMapTest, SelectiveRangeReadsFewerPagesAndSameRows) {
  LoadMonotone(4000);
  QueryPlan plan;
  plan.pre_filter = Expr::And(
      Expr::Compare(Expr::CmpOp::kGe, Expr::Field({"ts"}), Expr::Int(10000)),
      Expr::Compare(Expr::CmpOp::kLt, Expr::Field({"ts"}), Expr::Int(10500)));
  plan.projections.push_back(Expr::Field({"id"}));
  plan.projections.push_back(Expr::Field({"tag"}));

  QueryResult pushed;
  const uint64_t pages_pushed = ColdPages(plan, &pushed);
  QueryPlan off = plan;
  off.pushdown = false;
  QueryResult unpushed;
  const uint64_t pages_unpushed = ColdPages(off, &unpushed);

  EXPECT_EQ(pushed.rows.size(), 50u);
  ASSERT_EQ(pushed.rows.size(), unpushed.rows.size());
  for (size_t i = 0; i < pushed.rows.size(); ++i) {
    EXPECT_TRUE(ValueEquivalent(pushed.rows[i][0], unpushed.rows[i][0]));
    EXPECT_TRUE(ValueEquivalent(pushed.rows[i][1], unpushed.rows[i][1]));
  }
  // AMAX skips untouched megapages outright; zone stats cost nothing.
  if (GetParam() == LayoutKind::kAmax) {
    EXPECT_LT(pages_pushed, pages_unpushed);
  } else {
    EXPECT_LE(pages_pushed, pages_unpushed);
  }
  // The interpreted engine agrees.
  auto interpreted = RunInterpreted(*dataset_->GetSnapshot(), plan);
  ASSERT_TRUE(interpreted.ok());
  EXPECT_EQ(interpreted->rows.size(), pushed.rows.size());
}

TEST_P(ZoneMapTest, OutOfRangePredicateReturnsZeroRows) {
  LoadMonotone(2000);
  QueryPlan plan;
  plan.pre_filter = Expr::Compare(Expr::CmpOp::kGt, Expr::Field({"ts"}),
                                  Expr::Int(1000 * 1000));
  plan.aggregates.push_back(AggSpec::CountStar());
  QueryResult result;
  const uint64_t pages = ColdPages(plan, &result);
  // A global aggregate over zero tuples yields no groups (both engines).
  EXPECT_EQ(result.rows.size(), 0u);
  EXPECT_EQ(result.pipeline_tuples, 0u);
  QueryPlan off = plan;
  off.pushdown = false;
  QueryResult unpushed;
  const uint64_t pages_off = ColdPages(off, &unpushed);
  EXPECT_EQ(unpushed.rows.size(), 0u);
  if (GetParam() == LayoutKind::kAmax) {
    EXPECT_LT(pages, pages_off);
  }
}

TEST_P(ZoneMapTest, FalsePositiveZonesStillFilterExactly) {
  LoadMonotone(2000);
  // ts values are multiples of 10, so ts == 10005 falls inside the zone
  // hull of some leaf (false positive) but matches no record.
  QueryPlan plan;
  plan.pre_filter = Expr::Compare(Expr::CmpOp::kEq, Expr::Field({"ts"}),
                                  Expr::Int(10005));
  plan.aggregates.push_back(AggSpec::CountStar());
  QueryResult result;
  ColdPages(plan, &result);
  EXPECT_EQ(result.pipeline_tuples, 0u);
  // And a double-literal bound on the int column rounds correctly.
  QueryPlan frac;
  frac.pre_filter = Expr::And(
      Expr::Compare(Expr::CmpOp::kGt, Expr::Field({"ts"}),
                    Expr::Literal(Value::Double(9994.5))),
      Expr::Compare(Expr::CmpOp::kLe, Expr::Field({"ts"}),
                    Expr::Literal(Value::Double(10010.0))));
  frac.aggregates.push_back(AggSpec::CountStar());
  ColdPages(frac, &result);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].int_value(), 2);  // ts = 10000, 10010
}

TEST_P(ZoneMapTest, ShadowedAndDeletedRecordsStayInvisible) {
  // A newer component's non-matching version must shadow an older
  // matching one even when pushdown skips the newer record — and an
  // anti-matter entry must keep a deleted (matching) record dead.
  LoadMonotone(1500);
  // Update: key 42's ts moves out of the filter range.
  Value updated = Value::MakeObject();
  updated.Set("id", Value::Int(42));
  updated.Set("ts", Value::Int(9999999));
  updated.Set("tag", Value::String("updated"));
  ASSERT_TRUE(dataset_->Insert(updated).ok());
  // Delete: key 43 (its old ts 430 matched the filter below).
  ASSERT_TRUE(dataset_->Delete(43).ok());
  ASSERT_TRUE(dataset_->Flush().ok());

  QueryPlan plan;
  plan.pre_filter = Expr::Compare(Expr::CmpOp::kLt, Expr::Field({"ts"}),
                                  Expr::Int(1000));  // keys 0..99 originally
  plan.projections.push_back(Expr::Field({"id"}));
  QueryResult result;
  ColdPages(plan, &result);
  std::set<int64_t> ids;
  for (const auto& row : result.rows) ids.insert(row[0].int_value());
  EXPECT_EQ(ids.size(), 98u);  // 100 minus updated(42) minus deleted(43)
  EXPECT_EQ(ids.count(42), 0u);
  EXPECT_EQ(ids.count(43), 0u);
  // Pushdown off agrees.
  QueryPlan off = plan;
  off.pushdown = false;
  QueryResult unpushed;
  ColdPages(off, &unpushed);
  EXPECT_EQ(unpushed.rows.size(), result.rows.size());
}

TEST_P(ZoneMapTest, StringEqualityUsesZones) {
  // String zone prefixes: an impossible tag skips everything without
  // losing the possible ones.
  LoadMonotone(1000);
  QueryPlan plan;
  plan.pre_filter = Expr::Compare(Expr::CmpOp::kEq, Expr::Field({"tag"}),
                                  Expr::Str("zzz_not_a_tag"));
  plan.aggregates.push_back(AggSpec::CountStar());
  QueryResult result;
  ColdPages(plan, &result);
  EXPECT_EQ(result.pipeline_tuples, 0u);

  QueryPlan hit;
  hit.pre_filter = Expr::Compare(Expr::CmpOp::kEq, Expr::Field({"tag"}),
                                 Expr::Str("tag_7"));
  hit.aggregates.push_back(AggSpec::CountStar());
  QueryResult on_result;
  ColdPages(hit, &on_result);
  QueryPlan hit_off = hit;
  hit_off.pushdown = false;
  QueryResult off_result;
  ColdPages(hit_off, &off_result);
  EXPECT_GT(on_result.rows[0][0].int_value(), 0);
  EXPECT_EQ(on_result.rows[0][0].int_value(), off_result.rows[0][0].int_value());
}

TEST_P(ZoneMapTest, MissingPathPredicateShortCircuitsComponent) {
  LoadMonotone(500);
  QueryPlan plan;
  plan.pre_filter = Expr::Compare(Expr::CmpOp::kGt,
                                  Expr::Field({"no", "such", "field"}),
                                  Expr::Int(0));
  plan.aggregates.push_back(AggSpec::CountStar());
  QueryResult result;
  ColdPages(plan, &result);
  EXPECT_EQ(result.pipeline_tuples, 0u);
}

// Zone stats veto exactly the leaves whose ts range misses the filter
// (ts = 10 * id, so a leaf's range follows from its key fences). APAX
// takes them from the predicate column's unit and AMAX from Page 0; a
// vetoed leaf's other columns are never fetched. So a cold run misses on
// every leaf's head, and per surviving leaf on each column it reads.
TEST_P(ZoneMapTest, VetoedLeavesFetchOnlyTheirZoneColumn) {
  LoadMonotone(4000);
  QueryPlan plan;
  plan.pre_filter = Expr::And(
      Expr::Compare(Expr::CmpOp::kGe, Expr::Field({"ts"}), Expr::Int(10000)),
      Expr::Compare(Expr::CmpOp::kLt, Expr::Field({"ts"}), Expr::Int(10500)));
  plan.projections.push_back(Expr::Field({"id"}));
  plan.projections.push_back(Expr::Field({"tag"}));
  QueryResult result;
  ColdPages(plan, &result);
  EXPECT_EQ(result.rows.size(), 50u);
  const uint64_t misses = cache_->stats().misses;

  uint64_t leaves = 0, surviving = 0;
  const Snapshot::Ref snapshot = dataset_->GetSnapshot();
  for (size_t c = 0; c < snapshot->component_count(); ++c) {
    for (const LeafEntry& leaf : snapshot->component(c).reader().leaves()) {
      ++leaves;
      if (leaf.max_key * 10 >= 10000 && leaf.min_key * 10 < 10500) {
        ++surviving;
      }
    }
  }
  ASSERT_GT(surviving, 0u);
  ASSERT_GT(leaves, surviving + 2);
  // APAX: a head and a ts unit per leaf, a tag unit per surviving leaf.
  // AMAX: a Page 0 per leaf, ts and tag megapages per surviving leaf.
  const uint64_t expected = GetParam() == LayoutKind::kApax
                                ? 2 * leaves + surviving
                                : leaves + 2 * surviving;
  EXPECT_EQ(misses, expected) << leaves << " leaves, " << surviving
                              << " surviving";
}

INSTANTIATE_TEST_SUITE_P(ColumnarLayouts, ZoneMapTest,
                         ::testing::Values(LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

}  // namespace
}  // namespace lsmcol
