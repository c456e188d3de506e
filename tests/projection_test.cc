// Projected reads checked against the store's own full records, on the
// columnar layouts. Seeded heterogeneous documents (nested objects, mixed
// arrays, arrays of objects, unions of objects with arrays and scalars,
// empty containers) are loaded into APAX and AMAX, flushed, merged and
// reopened. Then, for every schema path P and for random sets of 1-3
// paths:
//   - a scan's Record under Projection{paths} equals the Projection::All()
//     record of the same snapshot pruned to those paths;
//   - Path(P) equals WalkValuePath(full record, P).
// The reference is what the store returns for the whole record, not the
// input, so known round-trip losses neither mask nor fake a failure.
//
// Column units: a projected scan caches each leaf's head and the units of
// the columns it reads, and nothing else, so a second run reads no page;
// reads of other shapes after projected scans (full scans, lookups, with
// or without a projection, in a cache small enough to evict) return what
// a fresh store returns.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/json/parser.h"
#include "src/lsm/dataset.h"

namespace lsmcol {
namespace {

using FieldPath = std::vector<std::string>;

constexpr size_t kPage = 4096;

std::string RandomDoc(int64_t id, Rng* rng) {
  std::string j = "{\"id\": " + std::to_string(id);
  if (rng->Bernoulli(0.8)) {
    j += ", \"num\": " + std::to_string(rng->Uniform(100000));
  }
  if (rng->Bernoulli(0.5)) j += ", \"txt\": \"" + rng->Word(0, 12) + "\"";
  if (rng->Bernoulli(0.4)) {
    j += ", \"nested\": {\"a\": " + std::to_string(rng->Uniform(10));
    if (rng->Bernoulli(0.7)) {
      j += rng->Bernoulli(0.8)
               ? ", \"b\": {\"c\": \"" + rng->Word(1, 4) + "\"}"
               : ", \"b\": \"" + rng->Word(1, 4) + "\"";  // union
    }
    j += "}";
  }
  if (rng->Bernoulli(0.4)) {
    j += ", \"arr\": [";
    const uint64_t n = rng->Uniform(5);
    for (uint64_t k = 0; k < n; ++k) {
      if (k) j += ",";
      j += rng->Bernoulli(0.3) ? "[\"" + rng->Word(1, 3) + "\"]"
                               : std::to_string(rng->Uniform(100));
    }
    j += "]";
  }
  if (rng->Bernoulli(0.4)) {
    j += ", \"objs\": [";
    const uint64_t n = rng->Uniform(4);
    for (uint64_t k = 0; k < n; ++k) {
      if (k) j += ",";
      if (rng->Bernoulli(0.1)) {
        j += "7";  // a scalar among the objects
        continue;
      }
      j += "{";
      std::string sep;
      if (rng->Bernoulli(0.7)) {
        j += "\"p\": " + std::to_string(rng->Uniform(50));
        sep = ", ";
      }
      if (rng->Bernoulli(0.5)) {
        j += sep + "\"q\": [\"" + rng->Word(1, 3) + "\"]";
        sep = ", ";
      }
      if (rng->Bernoulli(0.4)) {
        j += sep + "\"r\": {\"s\": " +
             (rng->Bernoulli(0.5) ? "true" : "false") + "}";
      }
      j += "}";
    }
    j += "]";
  }
  if (rng->Bernoulli(0.2)) {
    j += ", \"deep\": {\"l1\": {\"l2\": [{\"v\": " +
         std::to_string(rng->NextDouble()) + "}]}}";
  }
  if (rng->Bernoulli(0.2)) {
    j += ", \"poly\": " + std::string(rng->Bernoulli(0.5) ? "\"s\"" : "17");
  }
  if (rng->Bernoulli(0.3)) {
    switch (rng->Uniform(3)) {
      case 0:
        j += ", \"flip\": {\"k\": " + std::to_string(rng->Uniform(9)) + "}";
        break;
      case 1:
        j += ", \"flip\": [{\"k\": " + std::to_string(rng->Uniform(9)) + "}]";
        break;
      default:
        j += ", \"flip\": \"" + rng->Word(1, 3) + "\"";
        break;
    }
  }
  j += "}";
  return j;
}

// Every field path Schema::ResolvePath accepts: object fields, reached
// through arrays and the object alternative of unions.
void CollectPaths(const SchemaNode& node, FieldPath* prefix,
                  std::vector<FieldPath>* out) {
  switch (node.kind()) {
    case SchemaNode::Kind::kObject:
      for (const auto& [name, child] : node.fields()) {
        prefix->push_back(name);
        out->push_back(*prefix);
        CollectPaths(*child, prefix, out);
        prefix->pop_back();
      }
      break;
    case SchemaNode::Kind::kArray:
      if (node.item() != nullptr) CollectPaths(*node.item(), prefix, out);
      break;
    case SchemaNode::Kind::kUnion:
      for (const auto& alt : node.alternatives()) {
        if (alt->is_object()) {
          CollectPaths(*alt, prefix, out);
          break;
        }
      }
      break;
    case SchemaNode::Kind::kAtomic:
      break;
  }
}

// `v` (at schema `node`) pruned to `paths`, the paths that continue below
// it. A path's steps name object fields, descending through arrays element
// by element and through a union's object alternative, as ResolvePath
// does. An object on a path is kept, with only its projected fields; an
// array keeps its length, an element that cannot hold the field becoming
// null; anything else on a path is dropped. A lone null element is the
// stored form of an empty array (docs/ARCHITECTURE.md), so it reads as [].
Value Prune(const Value& v, const SchemaNode* node,
            const std::vector<FieldPath>& paths, size_t depth) {
  while (node != nullptr && node->is_union()) {
    const SchemaNode* object_alt = nullptr;
    for (const auto& alt : node->alternatives()) {
      if (alt->is_object()) object_alt = alt.get();
    }
    node = object_alt;
  }
  if (node == nullptr) return Value::Missing();
  if (node->is_array() && v.is_array()) {
    Value arr = Value::MakeArray();
    for (const Value& element : v.array()) {
      Value pruned = Prune(element, node->item(), paths, depth);
      arr.Push(pruned.is_missing() ? Value::Null() : std::move(pruned));
    }
    if (arr.array().size() == 1 && arr.array()[0].is_null()) {
      arr.mutable_array().clear();
    }
    return arr;
  }
  if (!node->is_object() || !v.is_object()) return Value::Missing();
  Value obj = Value::MakeObject();
  for (const auto& [name, field] : v.object()) {
    bool whole = false;
    std::vector<FieldPath> below;
    for (const FieldPath& path : paths) {
      if (path[depth] != name) continue;
      if (path.size() == depth + 1) {
        whole = true;
      } else {
        below.push_back(path);
      }
    }
    Value kept = whole ? field
                 : below.empty()
                     ? Value::Missing()
                     : Prune(field, node->FindField(name), below, depth + 1);
    if (!kept.is_missing()) obj.Set(name, std::move(kept));
  }
  return obj;
}

class ProjectionTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/projection_" +
           std::string(LayoutKindName(GetParam()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  DatasetOptions Options() {
    DatasetOptions options;
    options.layout = GetParam();
    options.dir = dir_;
    options.page_size = kPage;
    options.memtable_bytes = 1 << 20;  // flushes only when asked
    options.amax_max_records = 64;     // several leaves per component
    options.auto_merge = false;
    return options;
  }

  // The checks above, on one snapshot of `ds` (one component, so one
  // schema decides every projection).
  void ExpectProjectionsMatchFullRecords(Dataset* ds, uint64_t seed) {
    ASSERT_EQ(ds->component_count(), 1u);
    const Schema& schema = *ds->component(0).schema();
    auto snapshot = ds->GetSnapshot();
    std::map<int64_t, Value> full;
    {
      auto cursor = snapshot->Scan(Projection::All());
      ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
      while (true) {
        auto next = (*cursor)->Next();
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        if (!*next) break;
        Value record;
        ASSERT_TRUE((*cursor)->Record(&record).ok());
        full[(*cursor)->key()] = std::move(record);
      }
    }
    ASSERT_GT(full.size(), 100u);

    std::vector<FieldPath> paths;
    FieldPath prefix;
    CollectPaths(schema.root(), &prefix, &paths);
    ASSERT_GE(paths.size(), 15u);
    std::vector<std::vector<FieldPath>> sets;
    for (const FieldPath& path : paths) sets.push_back({path});
    Rng rng(seed);
    for (int i = 0; i < 60; ++i) {
      std::vector<FieldPath> set;
      const uint64_t n = 1 + rng.Uniform(3);
      for (uint64_t k = 0; k < n; ++k) {
        set.push_back(paths[rng.Uniform(paths.size())]);
      }
      sets.push_back(std::move(set));
    }

    for (const std::vector<FieldPath>& set : sets) {
      std::string label;
      for (const FieldPath& path : set) {
        label += " {";
        for (const std::string& step : path) label += "." + step;
        label += "}";
      }
      SCOPED_TRACE("projection" + label);
      std::vector<FieldPath> with_pk = set;  // a record always has its key
      with_pk.push_back({schema.pk_field()});
      auto cursor = snapshot->Scan(Projection::Of(set));
      ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
      size_t seen = 0, mismatches = 0;
      while (true) {
        auto next = (*cursor)->Next();
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        if (!*next) break;
        ++seen;
        const int64_t key = (*cursor)->key();
        auto it = full.find(key);
        ASSERT_NE(it, full.end()) << "key " << key;
        Value got;
        ASSERT_TRUE((*cursor)->Record(&got).ok());
        const Value want = Prune(it->second, &schema.root(), with_pk, 0);
        if (ToJson(got) != ToJson(want) && mismatches++ < 3) {
          ADD_FAILURE() << "key " << key << ": Record " << ToJson(got)
                        << ", pruned full record " << ToJson(want);
        }
        for (const FieldPath& path : set) {
          Value at;
          ASSERT_TRUE((*cursor)->Path(path, &at).ok());
          const Value walked = WalkValuePath(it->second, path);
          if (ToJson(at) != ToJson(walked) && mismatches++ < 3) {
            ADD_FAILURE() << "key " << key << ": Path " << ToJson(at)
                          << ", full record " << ToJson(walked);
          }
        }
      }
      EXPECT_EQ(seen, full.size());
      EXPECT_EQ(mismatches, 0u);
    }
  }

  std::string dir_;
  BufferCache cache_{2048 * kPage, kPage};
};

TEST_P(ProjectionTest, RecordsAndPathsMatchPrunedFullRecords) {
  constexpr uint64_t kSeed = 20240611;
  Rng rng(kSeed);
  {
    auto ds = Dataset::Open(Options(), &cache_);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    // Three flushed rounds over overlapping keys: later rounds replace some
    // records with new shapes and delete others.
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 200; ++i) {
        const auto key = static_cast<int64_t>(rng.Uniform(400));
        if (round > 0 && rng.Bernoulli(0.1)) {
          ASSERT_TRUE((*ds)->Delete(key).ok());
          continue;
        }
        ASSERT_TRUE((*ds)->InsertJson(RandomDoc(key, &rng)).ok());
      }
      ASSERT_TRUE((*ds)->Flush().ok());
    }
    ASSERT_TRUE((*ds)->MergeAll().ok());
    ExpectProjectionsMatchFullRecords(ds->get(), kSeed + 1);
  }
  auto reopened = Dataset::Open(Options(), &cache_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectProjectionsMatchFullRecords(reopened->get(), kSeed + 2);
}

TEST_P(ProjectionTest, PathPastTheKeyIsMissingAndKeepsTheKey) {
  auto ds = Dataset::Open(Options(), &cache_);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Rng rng(7);
  for (int64_t key = 0; key < 200; ++key) {
    ASSERT_TRUE((*ds)->InsertJson(RandomDoc(key, &rng)).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());
  ASSERT_EQ((*ds)->component_count(), 1u);
  auto cursor = (*ds)->GetSnapshot()->Scan(Projection::All());
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  size_t seen = 0;
  while (true) {
    auto next = (*cursor)->Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!*next) break;
    ++seen;
    const int64_t key = (*cursor)->key();
    Value past;
    Status st = (*cursor)->Path({"id", "x"}, &past);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(past.is_missing()) << ToJson(past);
    Value record;
    st = (*cursor)->Record(&record);
    ASSERT_TRUE(st.ok()) << st.ToString();
    const Value& id = record.Get("id");
    ASSERT_TRUE(id.is_int()) << ToJson(record);
    EXPECT_EQ(id.int_value(), key);
  }
  EXPECT_EQ(seen, 200u);
  EXPECT_FALSE((*ds)->component(0).quarantined());
}

INSTANTIATE_TEST_SUITE_P(Columnar, ProjectionTest,
                         ::testing::Values(LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

// Scans `projection` over `ds`, materializing every record; the records
// by key, serialized.
std::map<int64_t, std::string> ScanRecords(Dataset* ds,
                                           const Projection& projection) {
  std::map<int64_t, std::string> out;
  auto cursor = ds->Scan(projection);
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  if (!cursor.ok()) return out;
  while (true) {
    auto next = (*cursor)->Next();
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok() || !*next) break;
    Value record;
    const Status st = (*cursor)->Record(&record);
    EXPECT_TRUE(st.ok()) << st.ToString();
    out[(*cursor)->key()] = ToJson(record);
  }
  return out;
}

class ColumnUnitTest : public ProjectionTest {
 protected:
  // 600 seeded documents over `rounds` flushes, later rounds upserting
  // and deleting keys of earlier ones.
  void Load(Dataset* ds, int rounds) {
    Rng rng(31);
    for (int round = 0; round < rounds; ++round) {
      for (int i = 0; i < 600 / rounds; ++i) {
        const auto key = static_cast<int64_t>(
            round == 0 ? i : static_cast<int>(rng.Uniform(600)));
        if (round > 0 && rng.Bernoulli(0.1)) {
          ASSERT_TRUE(ds->Delete(key).ok());
          continue;
        }
        ASSERT_TRUE(ds->InsertJson(RandomDoc(key, &rng)).ok());
      }
      ASSERT_TRUE(ds->Flush().ok());
    }
  }
};

TEST_P(ColumnUnitTest, ProjectedScanCachesOnlyItsColumns) {
  BufferCache cache(4096 * kPage, kPage);  // holds the whole component
  auto ds = Dataset::Open(Options(), &cache);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Load(ds->get(), 1);
  ASSERT_EQ((*ds)->component_count(), 1u);
  const Projection projection = Projection::Of({{"num"}, {"nested", "a"}});

  cache.Clear();
  cache.ResetStats();
  const auto cold = ScanRecords(ds->get(), projection);
  ASSERT_EQ(cold.size(), 600u);
  EXPECT_GT(cache.stats().misses, 0u);
  EXPECT_GT(cache.stats().pages_read, 0u);
  const size_t cached = cache.cached_bytes();
  cache.ResetStats();
  EXPECT_EQ(ScanRecords(ds->get(), projection), cold);
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().pages_read, 0u);
  EXPECT_EQ(cache.cached_bytes(), cached);

  if (GetParam() != LayoutKind::kApax) return;
  // APAX: what the heads and the projected chunks hold, against the
  // decompressed leaves a whole-leaf cache would hold.
  const Component& component = (*ds)->component(0);
  const std::vector<bool> projected = component.ProjectedColumns(projection);
  size_t heads = 0, projected_chunks = 0, all_chunks = 0, units = 0;
  for (size_t i = 0; i < component.reader().leaves().size(); ++i) {
    Buffer payload;
    ASSERT_TRUE(component.reader().ReadLeaf(i, &payload).ok());
    ApaxLeaf leaf;
    ASSERT_TRUE(leaf.Init(payload.slice(), component.meta().compressed).ok());
    Buffer head;
    leaf.HeadUnit(&head);
    heads += head.size();
    ++units;
    for (uint32_t c = 0; c < leaf.column_count(); ++c) {
      all_chunks += leaf.chunk(static_cast<int>(c)).size();
      if (c == 0 || !projected[c]) continue;
      projected_chunks += leaf.chunk(static_cast<int>(c)).size();
      ++units;
    }
  }
  // A column unit adds its stats entry to its chunk: a few bytes, plus
  // both strings of a string column's range.
  EXPECT_LE(cached, heads + projected_chunks + 64 * units);
  EXPECT_GE(cached, heads + projected_chunks);
  EXPECT_LT(cached, all_chunks / 2);
}

TEST_P(ColumnUnitTest, ReadsAfterProjectedScansMatchAFreshStore) {
  {
    BufferCache cache(4096 * kPage, kPage);
    auto ds = Dataset::Open(Options(), &cache);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    Load(ds->get(), 3);
  }
  const std::vector<Projection> projections = {
      Projection::Of({{"num"}}),
      Projection::Of({{"nested", "a"}, {"txt"}}),
      Projection::Of({{"nested"}}),
  };
  // The reference: each read from a fresh store and cache.
  auto fresh = [&](const std::function<void(Dataset*)>& read) {
    BufferCache cache(4096 * kPage, kPage);
    auto ds = Dataset::Open(Options(), &cache);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    read(ds->get());
  };
  std::map<int64_t, std::string> full;
  fresh([&](Dataset* ds) { full = ScanRecords(ds, Projection::All()); });
  ASSERT_GT(full.size(), 300u);
  std::vector<std::map<int64_t, std::string>> projected(projections.size());
  std::vector<std::map<int64_t, std::string>> looked_up(projections.size());
  for (size_t p = 0; p < projections.size(); ++p) {
    fresh([&](Dataset* ds) {
      for (const auto& [key, record] : full) {
        Value out;
        ASSERT_TRUE(ds->Lookup(key, projections[p], &out).ok()) << key;
        looked_up[p][key] = ToJson(out);
      }
    });
  }

  // A cache that holds everything, and one that evicts within a scan.
  for (const size_t pages : {4096, 8}) {
    SCOPED_TRACE("cache pages: " + std::to_string(pages));
    BufferCache cache(pages * kPage, kPage);
    auto ds = Dataset::Open(Options(), &cache);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    for (size_t p = 0; p < projections.size(); ++p) {
      projected[p] = ScanRecords(ds->get(), projections[p]);
      EXPECT_EQ(projected[p].size(), full.size());
    }
    EXPECT_EQ(ScanRecords(ds->get(), Projection::All()), full);
    for (size_t p = 0; p < projections.size(); ++p) {
      EXPECT_EQ(ScanRecords(ds->get(), projections[p]), projected[p]);
    }
    size_t mismatches = 0;
    for (const auto& [key, record] : full) {
      Value out;
      ASSERT_TRUE((*ds)->Lookup(key, &out).ok()) << key;
      if (ToJson(out) != record && mismatches++ < 3) {
        ADD_FAILURE() << "key " << key << ": " << ToJson(out) << " vs "
                      << record;
      }
      for (size_t p = 0; p < projections.size(); ++p) {
        ASSERT_TRUE((*ds)->Lookup(key, projections[p], &out).ok()) << key;
        if (ToJson(out) != looked_up[p].at(key) && mismatches++ < 3) {
          ADD_FAILURE() << "key " << key << " projection " << p << ": "
                        << ToJson(out) << " vs " << looked_up[p].at(key);
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(ScanRecords(ds->get(), Projection::All()), full);
  }
}

INSTANTIATE_TEST_SUITE_P(Columnar, ColumnUnitTest,
                         ::testing::Values(LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

}  // namespace
}  // namespace lsmcol
