// Heterogeneous values: a product catalog whose fields change type across
// documents — strings become objects, scalars become arrays (§3.2.2's
// union types). Shows the inferred union schema and queries that span the
// alternatives.
//
//   ./examples/heterogeneous_catalog

#include <cstdio>
#include <filesystem>

#include "src/json/parser.h"
#include "src/query/engine.h"
#include "src/store/store.h"

using namespace lsmcol;

int main() {
  const std::string dir = "/tmp/lsmcol_hetero";
  std::filesystem::remove_all(dir);

  StoreOptions store_options;
  store_options.dir = dir;
  store_options.cache_bytes = 128u << 20;
  auto store = Store::Open(store_options);
  LSMCOL_CHECK(store.ok());

  DatasetOptions options;
  options.layout = LayoutKind::kApax;
  auto dataset = (*store)->OpenDataset("catalog", options);
  LSMCOL_CHECK(dataset.ok());

  // Ingested from "a web API we don't control": the brand is sometimes a
  // string, sometimes an object; tags are strings or nested arrays; price
  // is an int or a double.
  const char* documents[] = {
      R"({"id": 1, "brand": "acme", "price": 10, "tags": ["tools"]})",
      R"({"id": 2, "brand": {"name": "Globex", "country": "DE"},
          "price": 19.5, "tags": [["home", "garden"], "sale"]})",
      R"({"id": 3, "brand": "initech", "price": 7})",
      R"({"id": 4, "brand": {"name": "Umbrella"}, "price": 12.25,
          "tags": ["lab", ["safety"]]})",
      R"({"id": 5, "price": "call us"})",
  };
  for (const char* doc : documents) {
    LSMCOL_CHECK_OK((*dataset)->InsertJson(doc));
  }
  LSMCOL_CHECK_OK((*dataset)->Flush());

  std::printf("inferred schema (note the union nodes):\n%s\n",
              (*dataset)->schema()->ToString().c_str());

  // Records assemble back with their original shapes.
  auto cursor = (*dataset)->Scan(Projection::All());
  LSMCOL_CHECK(cursor.ok());
  std::printf("assembled records:\n");
  while (true) {
    auto ok = (*cursor)->Next();
    LSMCOL_CHECK(ok.ok());
    if (!*ok) break;
    Value record;
    LSMCOL_CHECK_OK((*cursor)->Record(&record));
    std::printf("  %s\n", ToJson(record).c_str());
  }

  // Accessing brand.name only needs the object alternative's column
  // (§3.2.2: "processing column 3 is sufficient").
  QueryPlan names;
  names.pre_filter = Expr::Not(
      Expr::IsMissing(Expr::Field({"brand", "name"})));
  names.projections.push_back(Expr::Field({"id"}));
  names.projections.push_back(Expr::Field({"brand", "name"}));
  names.order_by = 0;
  names.order_desc = false;
  auto result = RunCompiled(*(*dataset)->GetSnapshot(), names);
  LSMCOL_CHECK(result.ok());
  std::printf("object-branded products:\n");
  for (const auto& row : result->rows) {
    std::printf("  id %lld: %s\n",
                static_cast<long long>(row[0].int_value()),
                row[1].string_value().c_str());
  }

  // SUM spans the int and double alternatives; the string price
  // ("call us") does not participate in the numeric aggregate. (MIN/MAX
  // use the total type order, so a string would win MAX — SQL++
  // semantics.)
  QueryPlan stats;
  stats.aggregates.push_back(AggSpec::Sum(Expr::Field({"price"})));
  stats.aggregates.push_back(AggSpec::Count(Expr::Field({"price"})));
  auto price = RunCompiled(*(*dataset)->GetSnapshot(), stats);
  LSMCOL_CHECK(price.ok());
  std::printf("price sum=%s (4 numeric) count=%s (all present)\n",
              ToJson(price->rows[0][0]).c_str(),
              ToJson(price->rows[0][1]).c_str());

  std::filesystem::remove_all(dir);
  return 0;
}
