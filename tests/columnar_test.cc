// Round-trip and behavioural tests for the extended Dremel format:
// schema inference + shredding + column encode/decode + record assembly.
// Exercises the paper's running examples (Figures 4–7) and edge cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/columnar/assembler.h"
#include "src/columnar/column_reader.h"
#include "src/columnar/column_writer.h"
#include "src/columnar/shredder.h"
#include "src/common/rng.h"
#include "src/datagen/datagen.h"
#include "src/json/parser.h"
#include "src/layouts/apax.h"
#include "src/lsm/component.h"
#include "src/schema/schema.h"
#include "src/storage/buffer_cache.h"

namespace lsmcol {
namespace {

// Shreds a batch of JSON records, encodes all columns, decodes them, and
// reassembles each record. Returns the assembled records.
class ShredHarness {
 public:
  explicit ShredHarness(std::string pk = "id")
      : schema_(std::move(pk)), writers_(&schema_), shredder_(&schema_, &writers_) {}

  void AddJson(const std::string& json) {
    auto v = ParseJson(json);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    records_.push_back(std::move(*v));
    ASSERT_TRUE(shredder_.Shred(records_.back()).ok());
  }

  void AddAntiMatter(int64_t key) {
    ASSERT_TRUE(shredder_.ShredAntiMatter(key).ok());
    records_.push_back(Value::Missing());  // placeholder slot
  }

  // Encode all chunks and decode them back record by record.
  std::vector<Value> RoundTrip(const std::vector<bool>* projection = nullptr) {
    const int ncols = schema_.column_count();
    chunks_.assign(ncols, Buffer());
    for (int c = 0; c < ncols; ++c) {
      writers_.writer(c).FinishInto(&chunks_[c]);
    }
    std::vector<ColumnChunkReader> readers(ncols);
    for (int c = 0; c < ncols; ++c) {
      Status st = readers[c].Init(chunks_[c].slice(), schema_.column(c));
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    RecordAssembler assembler(&schema_);
    std::vector<Value> out;
    for (size_t r = 0; r < records_.size(); ++r) {
      std::vector<ColumnRecord> cells(ncols);
      std::vector<const ColumnRecord*> ptrs(ncols);
      for (int c = 0; c < ncols; ++c) {
        Status st = readers[c].NextRecord(&cells[c]);
        EXPECT_TRUE(st.ok()) << "col " << c << ": " << st.ToString();
        ptrs[c] = &cells[c];
      }
      out.push_back(assembler.Assemble(ptrs, projection));
    }
    // All chunks must be fully consumed.
    for (int c = 0; c < ncols; ++c) {
      EXPECT_TRUE(readers[c].AtEnd()) << "col " << c << " has leftover entries";
    }
    return out;
  }

  Schema& schema() { return schema_; }
  const std::vector<Value>& originals() const { return records_; }

 private:
  Schema schema_;
  ColumnWriterSet writers_;
  RecordShredder shredder_;
  std::vector<Value> records_;
  std::vector<Buffer> chunks_;
};

void ExpectRoundTrip(std::vector<std::string> jsons) {
  ShredHarness harness;
  for (const auto& j : jsons) harness.AddJson(j);
  std::vector<Value> assembled = harness.RoundTrip();
  ASSERT_EQ(assembled.size(), jsons.size());
  for (size_t i = 0; i < jsons.size(); ++i) {
    EXPECT_TRUE(ValueEquivalent(assembled[i], harness.originals()[i]))
        << "record " << i << "\n  original:  " << ToJson(harness.originals()[i])
        << "\n  assembled: " << ToJson(assembled[i]);
  }
}

TEST(SchemaInferenceTest, FlatRecord) {
  Schema schema("id");
  auto v = ParseJson(R"({"id": 1, "name": "Kim", "age": 26})");
  ASSERT_TRUE(schema.MergeRecord(*v).ok());
  EXPECT_EQ(schema.column_count(), 3);
  EXPECT_TRUE(schema.column(0).is_pk);
  EXPECT_EQ(schema.column(1).type, AtomicType::kString);
  EXPECT_EQ(schema.column(1).max_def, 1);
  EXPECT_EQ(schema.column(2).type, AtomicType::kInt64);
}

TEST(SchemaInferenceTest, PaperFigure4DefLevels) {
  // The gamers schema of Figure 4: max def/delimiter structure.
  Schema schema("id");
  auto v = ParseJson(R"({"id": 2, "name": {"first": "John", "last": "Smith"},
      "games": [{"title": "NBA", "consoles": ["PS4", "PC"]}]})");
  ASSERT_TRUE(schema.MergeRecord(*v).ok());
  // Columns: id, name.first(2), name.last(2), games[*].title(3),
  // games[*].consoles[*](4).
  ASSERT_EQ(schema.column_count(), 5);
  const ColumnInfo& first = schema.column(1);
  EXPECT_EQ(first.path, "name.first");
  EXPECT_EQ(first.max_def, 2);
  EXPECT_EQ(first.array_count(), 0);
  const ColumnInfo& title = schema.column(3);
  EXPECT_EQ(title.path, "games[*].title");
  EXPECT_EQ(title.max_def, 3);
  ASSERT_EQ(title.array_count(), 1);
  EXPECT_EQ(title.array_defs[0], 1);
  const ColumnInfo& consoles = schema.column(4);
  EXPECT_EQ(consoles.path, "games[*].consoles[*]");
  EXPECT_EQ(consoles.max_def, 4);
  ASSERT_EQ(consoles.array_count(), 2);
  EXPECT_EQ(consoles.array_defs[0], 1);
  EXPECT_EQ(consoles.array_defs[1], 3);
}

TEST(SchemaInferenceTest, UnionPromotionKeepsColumnIds) {
  Schema schema("id");
  ASSERT_TRUE(schema.MergeRecord(*ParseJson(R"({"id":1,"name":"John"})")).ok());
  const int string_col = 1;
  EXPECT_EQ(schema.column(string_col).type, AtomicType::kString);
  ASSERT_TRUE(schema
                  .MergeRecord(*ParseJson(
                      R"({"id":2,"name":{"first":"Ann","last":"Brown"}})"))
                  .ok());
  // Existing column unchanged; two new columns for the object alternative.
  EXPECT_EQ(schema.column(string_col).type, AtomicType::kString);
  EXPECT_EQ(schema.column(string_col).max_def, 1);
  EXPECT_EQ(schema.column_count(), 4);
  EXPECT_EQ(schema.column(2).max_def, 2);  // name<object>.first
  const SchemaNode* name = schema.ResolvePath({"name"});
  ASSERT_NE(name, nullptr);
  EXPECT_TRUE(name->is_union());
  EXPECT_EQ(name->alternatives().size(), 2u);
}

TEST(SchemaInferenceTest, HeterogeneousArrayElements) {
  Schema schema("id");
  ASSERT_TRUE(
      schema.MergeRecord(*ParseJson(R"({"id":1,"games":["NBA",["FIFA","PES"],"NFL"]})"))
          .ok());
  const SchemaNode* games = schema.ResolvePath({"games"});
  ASSERT_NE(games, nullptr);
  ASSERT_TRUE(games->is_array());
  ASSERT_NE(games->item(), nullptr);
  EXPECT_TRUE(games->item()->is_union());
}

TEST(SchemaInferenceTest, RejectsMissingOrNonIntPk) {
  Schema schema("id");
  EXPECT_FALSE(schema.MergeRecord(*ParseJson(R"({"x":1})")).ok());
  EXPECT_FALSE(schema.MergeRecord(*ParseJson(R"({"id":"one"})")).ok());
  EXPECT_FALSE(schema.MergeRecord(Value::Int(3)).ok());
  EXPECT_EQ(schema.merged_record_count(), 0u);
}

TEST(SchemaInferenceTest, SerializationRoundTrip) {
  Schema schema("id");
  ASSERT_TRUE(schema
                  .MergeRecord(*ParseJson(
                      R"({"id":1,"name":"John","games":["NBA",["FIFA"]],
                          "meta":{"tags":[1,2],"active":true,"score":1.5}})"))
                  .ok());
  Buffer buf;
  schema.SerializeTo(&buf);
  auto restored = Schema::Deserialize(buf.slice());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->column_count(), schema.column_count());
  EXPECT_EQ(restored->pk_field(), "id");
  for (int c = 0; c < schema.column_count(); ++c) {
    EXPECT_EQ(restored->column(c).type, schema.column(c).type) << c;
    EXPECT_EQ(restored->column(c).max_def, schema.column(c).max_def) << c;
    EXPECT_EQ(restored->column(c).array_defs, schema.column(c).array_defs) << c;
    EXPECT_EQ(restored->column(c).path, schema.column(c).path) << c;
  }
  EXPECT_TRUE(restored->column(0).is_pk);
  EXPECT_EQ(restored->ToString(), schema.ToString());
}

/// Every atomic column id in `node`'s subtree, by walking the tree.
void CollectLeafColumns(const SchemaNode& node, std::vector<int>* out) {
  if (node.is_atomic()) out->push_back(node.column_id());
  for (const auto& [name, child] : node.fields()) {
    CollectLeafColumns(*child, out);
  }
  if (node.item() != nullptr) CollectLeafColumns(*node.item(), out);
  for (const auto& alt : node.alternatives()) CollectLeafColumns(*alt, out);
}

/// Checks every node's column list against a walk of its subtree, and
/// every object's name index against its fields.
void ExpectNodeIndexesMatchTree(const SchemaNode& node) {
  std::vector<int> walked;
  CollectLeafColumns(node, &walked);
  std::sort(walked.begin(), walked.end());
  EXPECT_EQ(std::vector<int>(node.columns().begin(), node.columns().end()),
            walked);
  const auto& fields = node.fields();
  for (size_t i = 0; i < fields.size(); ++i) {
    const int expected = static_cast<int>(i);
    EXPECT_EQ(node.FieldIndex(fields[i].first), expected) << fields[i].first;
    for (const int hint : {0, expected, expected + 1}) {
      EXPECT_EQ(node.FieldIndex(fields[i].first, hint), expected);
    }
    ExpectNodeIndexesMatchTree(*fields[i].second);
  }
  EXPECT_EQ(node.FieldIndex("no such field"), -1);
  EXPECT_EQ(node.FindField("no such field"), nullptr);
  if (node.item() != nullptr) ExpectNodeIndexesMatchTree(*node.item());
  for (const auto& alt : node.alternatives()) ExpectNodeIndexesMatchTree(*alt);
}

// Column lists and name indexes are kept up as the schema grows — through
// new fields, wide objects, union promotion of atomic, object and array
// slots — and rebuilt by Deserialize.
TEST(SchemaInferenceTest, NodeColumnListsAndNameIndexesMatchTheTree) {
  Schema schema("id");
  Rng rng(5);
  const Workload kWorkloads[] = {Workload::kCell, Workload::kSensors,
                                 Workload::kTweet1, Workload::kWos,
                                 Workload::kTweet2};
  int64_t id = 0;
  for (const Workload w : kWorkloads) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(schema.MergeRecord(MakeRecord(w, id++, &rng)).ok());
    }
  }
  for (const char* shape :
       {R"({"id":0,"u":1,"v":[1],"w":{"a":1}})",
        R"({"id":0,"u":{"x":"s","y":[true]},"v":{"z":2.5},"w":[1,"s"]})",
        R"({"id":0,"u":[[1],{"q":null}],"v":"t","w":{"a":{"b":1},"c":2}})"}) {
    ASSERT_TRUE(schema.MergeRecord(*ParseJson(shape)).ok()) << shape;
  }
  ASSERT_GT(schema.root().fields().size(), 20u);  // the index grew
  ExpectNodeIndexesMatchTree(schema.root());
  EXPECT_EQ(schema.root().columns().size(),
            static_cast<size_t>(schema.column_count()));

  Buffer buf;
  schema.SerializeTo(&buf);
  auto restored = Schema::Deserialize(buf.slice());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->ToString(), schema.ToString());
  ExpectNodeIndexesMatchTree(restored->root());
}

TEST(ShredRoundTripTest, PaperFigure4Gamers) {
  // The four records of Figure 4a.
  ExpectRoundTrip({
      R"({"id": 0, "games": [{"title": "NFL"}]})",
      R"({"id": 1, "name": {"last": "Brown"},
          "games": [{"title": "FIFA", "consoles": ["PC", "PS4"]}]})",
      R"({"id": 2, "name": {"first": "John", "last": "Smith"},
          "games": [{"title": "NBA", "consoles": ["PS4", "PC"]},
                    {"title": "NFL", "consoles": ["XBOX"]}]})",
      R"({"id": 3})",
  });
}

TEST(ShredRoundTripTest, PaperFigure6HeterogeneousValues) {
  // The two records of Figure 6 (union of string/object and
  // string/array-of-strings), plus ids.
  ExpectRoundTrip({
      R"({"id": 1, "name": "John", "games": ["NBA", ["FIFA", "PES"], "NFL"]})",
      R"({"id": 2, "name": {"first": "Ann", "last": "Brown"},
          "games": ["NFL", "NBA"]})",
  });
}

TEST(ShredRoundTripTest, FlatMixedTypes) {
  ExpectRoundTrip({
      R"({"id": 1, "a": 10, "b": 2.5, "c": "x", "d": true})",
      R"({"id": 2, "a": -3, "b": 0.125, "c": "", "d": false})",
      R"({"id": 3})",
      R"({"id": 4, "c": "only c"})",
  });
}

TEST(ShredRoundTripTest, EmptyArrayAndObject) {
  ExpectRoundTrip({
      R"({"id": 1, "tags": ["a"], "meta": {"x": 1}})",
      R"({"id": 2, "tags": [], "meta": {}})",
      R"({"id": 3, "tags": ["b", "c"], "meta": {"x": 2}})",
  });
}

TEST(ShredRoundTripTest, DeepNesting) {
  ExpectRoundTrip({
      R"({"id": 1, "a": {"b": {"c": {"d": {"e": 42}}}}})",
      R"({"id": 2, "a": {"b": {"c": {}}}})",
      R"({"id": 3, "a": {"b": 7}})",  // b becomes union(object,int)
  });
}

TEST(ShredRoundTripTest, TripleNestedArrays) {
  ExpectRoundTrip({
      R"({"id": 1, "m": [[[1, 2], [3]], [[4]]]})",
      R"({"id": 2, "m": [[[5]]]})",
      R"({"id": 3, "m": []})",
      R"({"id": 4})",
      R"({"id": 5, "m": [[], [[6, 7]]]})",
  });
}

TEST(ShredRoundTripTest, ArraysOfObjectsWithDivergentFields) {
  ExpectRoundTrip({
      R"({"id": 1, "es": [{"a": 1}, {"b": "x"}, {"a": 2, "b": "y"}]})",
      R"({"id": 2, "es": [{}]})",
      R"({"id": 3, "es": [{"c": true}]})",
  });
}

TEST(ShredRoundTripTest, UnionInsideArrayOfObjects) {
  ExpectRoundTrip({
      R"({"id": 1, "addr": [{"country": "US"}]})",
      R"({"id": 2, "addr": {"country": "DE"}})",  // object OR array of objects
      R"({"id": 3, "addr": [{"country": "FR"}, {"country": "JP"}]})",
  });
}

TEST(ShredRoundTripTest, NumericTypeConflict) {
  ExpectRoundTrip({
      R"({"id": 1, "v": 10})",
      R"({"id": 2, "v": 2.5})",
      R"({"id": 3, "v": "ten"})",
      R"({"id": 4, "v": true})",
      R"({"id": 5, "v": 11})",
  });
}

TEST(ShredRoundTripTest, SchemaEvolutionBackfillsNulls) {
  // Later records introduce columns; earlier records must read as missing.
  ExpectRoundTrip({
      R"({"id": 1})",
      R"({"id": 2, "x": 1})",
      R"({"id": 3, "x": 2, "y": {"z": "deep"}})",
      R"({"id": 4, "arr": [1, 2, 3]})",
  });
}

TEST(ShredRoundTripTest, NullsAreTreatedAsMissing) {
  ShredHarness harness;
  harness.AddJson(R"({"id": 1, "a": null, "b": [1, null, 2]})");
  auto assembled = harness.RoundTrip();
  ASSERT_EQ(assembled.size(), 1u);
  // "a" disappears; the null array element round-trips as null.
  EXPECT_TRUE(assembled[0].Get("a").is_missing());
  auto expected = ParseJson(R"({"id": 1, "b": [1, null, 2]})");
  EXPECT_TRUE(ValueEquivalent(assembled[0], *expected))
      << ToJson(assembled[0]);
}

TEST(ShredRoundTripTest, AntiMatterCarriesKey) {
  ShredHarness harness;
  harness.AddJson(R"({"id": 7, "v": 1})");
  harness.AddAntiMatter(9);
  harness.AddJson(R"({"id": 11, "v": 3})");

  // Decode the PK column directly.
  Schema& schema = harness.schema();
  (void)harness.RoundTrip();  // assembly of live records must still work

  // Re-shred to inspect the PK chunk.
  Schema schema2("id");
  ColumnWriterSet writers(&schema2);
  RecordShredder shredder(&schema2, &writers);
  ASSERT_TRUE(shredder.Shred(*ParseJson(R"({"id": 7, "v": 1})")).ok());
  ASSERT_TRUE(shredder.ShredAntiMatter(9).ok());
  Buffer pk_chunk;
  writers.writer(0).FinishInto(&pk_chunk);
  ColumnChunkReader reader;
  ASSERT_TRUE(reader.Init(pk_chunk.slice(), schema2.column(0)).ok());
  ColumnRecord rec;
  ASSERT_TRUE(reader.NextRecord(&rec).ok());
  EXPECT_FALSE(rec.anti_matter);
  EXPECT_EQ(rec.values[0].int_value(), 7);
  ASSERT_TRUE(reader.NextRecord(&rec).ok());
  EXPECT_TRUE(rec.anti_matter);
  EXPECT_EQ(rec.values[0].int_value(), 9);
  EXPECT_EQ(schema.column(0).max_def, 1);
}

TEST(ShredRoundTripTest, ProjectionPrunesFields) {
  ShredHarness harness;
  harness.AddJson(R"({"id": 1, "keep": "yes", "drop": {"x": [1,2]}})");
  harness.AddJson(R"({"id": 2, "keep": "also", "drop": {"x": [3]}})");
  Schema& schema = harness.schema();
  // Project only {id, keep}.
  std::vector<bool> projection(schema.column_count(), false);
  projection[0] = true;
  for (int c = 0; c < schema.column_count(); ++c) {
    if (schema.column(c).path == "keep") projection[c] = true;
  }
  auto assembled = harness.RoundTrip(&projection);
  ASSERT_EQ(assembled.size(), 2u);
  EXPECT_EQ(assembled[0].Get("keep").string_value(), "yes");
  EXPECT_TRUE(assembled[0].Get("drop").is_missing());
  EXPECT_EQ(assembled[1].Get("id").int_value(), 2);
}

TEST(ShredRoundTripTest, SkipRecordsAdvancesAllStreams) {
  // Shred 100 records, skip 57, verify the 58th decodes correctly.
  Schema schema("id");
  ColumnWriterSet writers(&schema);
  RecordShredder shredder(&schema, &writers);
  Rng rng(21);
  std::vector<Value> records;
  for (int i = 0; i < 100; ++i) {
    Value v = Value::MakeObject();
    v.Set("id", Value::Int(i));
    v.Set("s", Value::String("str" + std::to_string(i)));
    Value arr = Value::MakeArray();
    for (uint64_t j = 0; j < rng.Uniform(4); ++j) {
      arr.Push(Value::Int(static_cast<int64_t>(i * 10 + j)));
    }
    v.Set("a", std::move(arr));
    records.push_back(std::move(v));
    ASSERT_TRUE(shredder.Shred(records.back()).ok());
  }
  const int ncols = schema.column_count();
  std::vector<Buffer> chunks(ncols);
  for (int c = 0; c < ncols; ++c) writers.writer(c).FinishInto(&chunks[c]);
  std::vector<ColumnChunkReader> readers(ncols);
  std::vector<ColumnRecord> cells(ncols);
  std::vector<const ColumnRecord*> ptrs(ncols);
  for (int c = 0; c < ncols; ++c) {
    ASSERT_TRUE(readers[c].Init(chunks[c].slice(), schema.column(c)).ok());
    ASSERT_TRUE(readers[c].SkipRecords(57).ok());
    ASSERT_TRUE(readers[c].NextRecord(&cells[c]).ok());
    ptrs[c] = &cells[c];
  }
  RecordAssembler assembler(&schema);
  Value assembled = assembler.Assemble(ptrs);
  EXPECT_TRUE(ValueEquivalent(assembled, records[57]))
      << ToJson(assembled) << " vs " << ToJson(records[57]);
}

TEST(ShredRoundTripTest, LargeRandomizedMixedBatch) {
  // Property test: 300 randomized records with evolving shapes round-trip.
  Rng rng(1234);
  std::vector<std::string> jsons;
  for (int i = 0; i < 300; ++i) {
    std::string j = "{\"id\": " + std::to_string(i);
    if (rng.Bernoulli(0.8)) {
      j += ", \"num\": " + std::to_string(static_cast<int64_t>(rng.Next() % 100000));
    }
    if (rng.Bernoulli(0.5)) {
      j += ", \"txt\": \"" + rng.Word(0, 12) + "\"";
    }
    if (rng.Bernoulli(0.4)) {
      j += ", \"nested\": {\"a\": " + std::to_string(rng.Uniform(10)) +
           ", \"b\": {\"c\": \"" + rng.Word(1, 4) + "\"}}";
    }
    if (rng.Bernoulli(0.4)) {
      j += ", \"arr\": [";
      size_t n = rng.Uniform(5);
      for (size_t k = 0; k < n; ++k) {
        if (k) j += ",";
        if (rng.Bernoulli(0.3)) {
          j += "[\"" + rng.Word(1, 3) + "\"]";  // heterogeneous element
        } else {
          j += std::to_string(rng.Uniform(100));
        }
      }
      j += "]";
    }
    if (rng.Bernoulli(0.2)) {
      j += ", \"poly\": " +
           std::string(rng.Bernoulli(0.5) ? "\"s\"" : "17");
    }
    j += "}";
    jsons.push_back(std::move(j));
  }
  ExpectRoundTrip(jsons);
}

// ------------------------------------------ vectorized chunk read path

ColumnInfo FlatColumn(AtomicType type) {
  ColumnInfo info;
  info.id = 1;
  info.type = type;
  info.max_def = 1;
  info.path = "x";
  return info;
}

// A flat int column with runs of present values and runs of NULLs, so
// both the def stream and the value stream cross batch boundaries.
struct FlatIntChunk {
  Buffer encoded;
  std::vector<int> defs;       // per record
  std::vector<int64_t> values; // per present record
};

FlatIntChunk MakeFlatIntChunk(size_t records) {
  FlatIntChunk out;
  ColumnChunkWriter writer(FlatColumn(AtomicType::kInt64));
  Rng rng(99);
  int64_t v = 0;
  size_t i = 0;
  while (i < records) {
    const bool present = rng.Bernoulli(0.7);
    const size_t run = std::min<size_t>(1 + rng.Uniform(90), records - i);
    for (size_t k = 0; k < run; ++k) {
      if (present) {
        v += static_cast<int64_t>(rng.Uniform(50));
        writer.AddInt64(v);
        out.defs.push_back(1);
        out.values.push_back(v);
      } else {
        writer.AddNull(0);
        out.defs.push_back(0);
      }
    }
    i += run;
  }
  writer.FinishInto(&out.encoded);
  return out;
}

TEST(EntryBatchTest, BatchesMatchPerEntryDecodeAcrossRunBoundaries) {
  const FlatIntChunk chunk = MakeFlatIntChunk(700);
  for (size_t batch : {1ul, 7ul, 64ul, 333ul, 700ul, 10000ul}) {
    ColumnChunkReader reader;
    ASSERT_TRUE(
        reader.Init(chunk.encoded.slice(), FlatColumn(AtomicType::kInt64))
            .ok());
    std::vector<int> defs;
    std::vector<int64_t> values;
    ColumnEntryBatch out;
    while (!reader.AtEnd()) {
      ASSERT_TRUE(reader.NextEntryBatch(batch, &out).ok());
      ASSERT_GT(out.entry_count(), 0u);
      for (size_t i = 0; i < out.entry_count(); ++i) {
        defs.push_back(out.defs[i]);
        if (out.value_index[i] >= 0) {
          values.push_back(out.ints[static_cast<size_t>(out.value_index[i])]);
        }
      }
    }
    EXPECT_EQ(defs, chunk.defs) << "batch=" << batch;
    EXPECT_EQ(values, chunk.values) << "batch=" << batch;
    // Exhausted chunk: empty batch, no error.
    ASSERT_TRUE(reader.NextEntryBatch(batch, &out).ok());
    EXPECT_EQ(out.entry_count(), 0u);
  }
}

TEST(EntryBatchTest, SkipRecordsInterleavesWithBatches) {
  const FlatIntChunk chunk = MakeFlatIntChunk(600);
  ColumnChunkReader reader;
  ASSERT_TRUE(
      reader.Init(chunk.encoded.slice(), FlatColumn(AtomicType::kInt64)).ok());
  // skip 100, batch 50, skip 1, skip 149, batch the rest.
  ASSERT_TRUE(reader.SkipRecords(100).ok());
  ColumnEntryBatch out;
  ASSERT_TRUE(reader.NextEntryBatch(50, &out).ok());
  auto value_at = [&](size_t record) {
    // Index of record's value among present values.
    size_t ordinal = 0;
    for (size_t i = 0; i < record; ++i) ordinal += chunk.defs[i] == 1;
    return chunk.values[ordinal];
  };
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(out.defs[i], chunk.defs[100 + i]);
    if (out.value_index[i] >= 0) {
      EXPECT_EQ(out.ints[static_cast<size_t>(out.value_index[i])],
                value_at(100 + i));
    }
  }
  ASSERT_TRUE(reader.SkipRecords(1).ok());
  ASSERT_TRUE(reader.SkipRecords(149).ok());
  ASSERT_TRUE(reader.NextEntryBatch(1000, &out).ok());
  EXPECT_EQ(out.entry_count(), 600u - 300u);
  EXPECT_EQ(out.defs[0], chunk.defs[300]);
  if (out.value_index[0] >= 0) {
    EXPECT_EQ(out.ints[0], value_at(300));
  }
  // Everything consumed: further skips fail, batches come back empty.
  EXPECT_FALSE(reader.SkipRecords(1).ok());
  ASSERT_TRUE(reader.NextEntryBatch(10, &out).ok());
  EXPECT_EQ(out.entry_count(), 0u);
}

TEST(EntryBatchTest, EmptyChunkYieldsEmptyBatch) {
  ColumnChunkWriter writer(FlatColumn(AtomicType::kString));
  Buffer encoded;
  writer.FinishInto(&encoded);
  ColumnChunkReader reader;
  ASSERT_TRUE(
      reader.Init(encoded.slice(), FlatColumn(AtomicType::kString)).ok());
  EXPECT_EQ(reader.entry_count(), 0u);
  ColumnEntryBatch out;
  ASSERT_TRUE(reader.NextEntryBatch(16, &out).ok());
  EXPECT_EQ(out.entry_count(), 0u);
  ASSERT_TRUE(reader.SkipRecords(0).ok());
  EXPECT_FALSE(reader.SkipRecords(1).ok());
}

TEST(EntryBatchTest, SingleEntryBatchesOnStringsAndDoubles) {
  ColumnChunkWriter swriter(FlatColumn(AtomicType::kString));
  swriter.AddString(Slice("one"));
  swriter.AddNull(0);
  swriter.AddString(Slice("three"));
  Buffer senc;
  swriter.FinishInto(&senc);
  ColumnChunkReader sreader;
  ASSERT_TRUE(sreader.Init(senc.slice(), FlatColumn(AtomicType::kString)).ok());
  ColumnEntryBatch out;
  ASSERT_TRUE(sreader.NextEntryBatch(1, &out).ok());
  ASSERT_EQ(out.entry_count(), 1u);
  EXPECT_EQ(out.strings[0].ToString(), "one");
  ASSERT_TRUE(sreader.NextEntryBatch(1, &out).ok());
  EXPECT_EQ(out.value_index[0], -1);
  ASSERT_TRUE(sreader.NextEntryBatch(1, &out).ok());
  EXPECT_EQ(out.strings[0].ToString(), "three");

  ColumnChunkWriter dwriter(FlatColumn(AtomicType::kDouble));
  dwriter.AddDouble(1.5);
  dwriter.AddDouble(-2.25);
  Buffer denc;
  dwriter.FinishInto(&denc);
  ColumnChunkReader dreader;
  ASSERT_TRUE(dreader.Init(denc.slice(), FlatColumn(AtomicType::kDouble)).ok());
  ASSERT_TRUE(dreader.NextEntryBatch(10, &out).ok());
  ASSERT_EQ(out.entry_count(), 2u);
  EXPECT_EQ(out.doubles[0], 1.5);
  EXPECT_EQ(out.doubles[1], -2.25);
}

TEST(EntryBatchTest, PkBatchCarriesAntiMatterKeys) {
  ColumnInfo pk;
  pk.id = 0;
  pk.type = AtomicType::kInt64;
  pk.max_def = 1;
  pk.is_pk = true;
  pk.path = "id";
  ColumnChunkWriter writer(pk);
  writer.AddKey(10, /*anti_matter=*/false);
  writer.AddKey(11, /*anti_matter=*/true);
  writer.AddKey(12, /*anti_matter=*/false);
  Buffer encoded;
  writer.FinishInto(&encoded);
  ColumnChunkReader reader;
  ASSERT_TRUE(reader.Init(encoded.slice(), pk).ok());
  ColumnEntryBatch out;
  ASSERT_TRUE(reader.NextEntryBatch(100, &out).ok());
  ASSERT_EQ(out.entry_count(), 3u);
  EXPECT_EQ(out.defs[0], 1);
  EXPECT_EQ(out.defs[1], 0);  // anti-matter still carries its key
  EXPECT_EQ(out.defs[2], 1);
  EXPECT_EQ(out.ints, (std::vector<int64_t>{10, 11, 12}));
  EXPECT_EQ(out.value_index[1], 1);
}

TEST(EntryBatchTest, SkipRecordsRunGranularOnBoolAndStringColumns) {
  // Bool column: long uniform runs make the def stream pure RLE.
  ColumnChunkWriter bwriter(FlatColumn(AtomicType::kBoolean));
  for (int i = 0; i < 300; ++i) bwriter.AddBool(i % 3 == 0);
  for (int i = 0; i < 100; ++i) bwriter.AddNull(0);
  bwriter.AddBool(true);
  Buffer benc;
  bwriter.FinishInto(&benc);
  ColumnChunkReader breader;
  ASSERT_TRUE(
      breader.Init(benc.slice(), FlatColumn(AtomicType::kBoolean)).ok());
  ASSERT_TRUE(breader.SkipRecords(399).ok());
  ColumnEntryBatch out;
  ASSERT_TRUE(breader.NextEntryBatch(10, &out).ok());
  ASSERT_EQ(out.entry_count(), 2u);
  EXPECT_EQ(out.value_index[0], -1);  // record 399 is a NULL
  EXPECT_EQ(out.bools[0], 1u);        // record 400 is the trailing true

  // String column: skip must advance byte offsets exactly.
  ColumnChunkWriter swriter(FlatColumn(AtomicType::kString));
  for (int i = 0; i < 50; ++i) {
    swriter.AddString(Slice("s" + std::to_string(i)));
  }
  Buffer senc;
  swriter.FinishInto(&senc);
  ColumnChunkReader sreader;
  ASSERT_TRUE(sreader.Init(senc.slice(), FlatColumn(AtomicType::kString)).ok());
  ASSERT_TRUE(sreader.SkipRecords(33).ok());
  ASSERT_TRUE(sreader.NextEntryBatch(1, &out).ok());
  EXPECT_EQ(out.strings[0].ToString(), "s33");
}

// ------------------------------------------------------------ record seek

// A record's parse as text: the cell tree with its values in place.
std::string Describe(const ShredCell& cell, const ColumnRecord& record) {
  switch (cell.kind) {
    case ShredCell::Kind::kMissing:
      return "M" + std::to_string(cell.def);
    case ShredCell::Kind::kLeaf:
      return ToJson(record.values.at(static_cast<size_t>(cell.value_index)));
    case ShredCell::Kind::kList: {
      std::string out = "[" + std::to_string(cell.def) + ":";
      for (const ShredCell& child : cell.children) {
        out += Describe(child, record) + ",";
      }
      return out + "]";
    }
  }
  return "?";
}

std::string Describe(const ColumnRecord& record) {
  return Describe(record.root, record) + (record.anti_matter ? " anti" : "");
}

// For every column of `chunks` and every record r: Seek(r) then
// NextRecord must parse exactly what SkipRecords(r) then NextRecord does,
// whether the seeking reader moves forward, backward or restarts.
void ExpectSeekMatchesSkip(const Schema& schema,
                           const std::vector<Buffer>& chunks,
                           size_t records) {
  for (int c = 0; c < schema.column_count(); ++c) {
    SCOPED_TRACE("column " + schema.column(c).path);
    const ColumnInfo& info = schema.column(c);
    ColumnChunkReader builder;
    ASSERT_TRUE(builder.Init(chunks[c].slice(), info).ok());
    Buffer index;
    ASSERT_TRUE(builder.BuildSeekIndex(&index).ok());
    EXPECT_TRUE(builder.AtEnd());
    std::vector<std::string> expected;
    for (size_t r = 0; r < records; ++r) {
      ColumnChunkReader walker;
      ASSERT_TRUE(walker.Init(chunks[c].slice(), info).ok());
      ASSERT_TRUE(walker.SkipRecords(r).ok());
      ColumnRecord rec;
      ASSERT_TRUE(walker.NextRecord(&rec).ok());
      expected.push_back(Describe(rec));
    }
    // One reader seeking in a shuffled order, so seeks go both ways.
    std::vector<size_t> order(records);
    for (size_t r = 0; r < records; ++r) order[r] = r;
    Rng rng(static_cast<uint64_t>(c) + 7);
    for (size_t i = records; i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    ColumnChunkReader seeker;
    ASSERT_TRUE(seeker.Init(chunks[c].slice(), info).ok());
    for (size_t r : order) {
      ASSERT_TRUE(seeker.Seek(r, index.slice()).ok()) << "record " << r;
      ColumnRecord rec;
      ASSERT_TRUE(seeker.NextRecord(&rec).ok()) << "record " << r;
      EXPECT_EQ(Describe(rec), expected[r]) << "record " << r;
    }
    // Like SkipRecords, seeking to the end is allowed and past it is not.
    ASSERT_TRUE(seeker.Seek(records, index.slice()).ok());
    EXPECT_TRUE(seeker.AtEnd());
    ColumnRecord none;
    EXPECT_EQ(seeker.NextRecord(&none).code(), StatusCode::kOutOfRange);
    EXPECT_EQ(seeker.Seek(records + 1, index.slice()).code(),
              StatusCode::kOutOfRange);
  }
}

// Shreds `jsons` (keys 0..n-1 in order) into one chunk per column.
void ExpectSeekMatchesSkipOn(const std::vector<std::string>& jsons) {
  Schema schema("id");
  ColumnWriterSet writers(&schema);
  RecordShredder shredder(&schema, &writers);
  for (const std::string& json : jsons) {
    auto v = ParseJson(json);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    ASSERT_TRUE(shredder.Shred(*v).ok());
  }
  std::vector<Buffer> chunks(static_cast<size_t>(schema.column_count()));
  for (int c = 0; c < schema.column_count(); ++c) {
    writers.writer(c).FinishInto(&chunks[c]);
  }
  ExpectSeekMatchesSkip(schema, chunks, jsons.size());
}

std::string Id(size_t i) { return "\"id\": " + std::to_string(i); }

TEST(SeekTest, FlatColumnsOfEveryAtomicType) {
  std::vector<std::string> jsons;
  Rng rng(5);
  for (size_t i = 0; i < 512; ++i) {
    std::string doc = "{" + Id(i);
    // Random presence: bit-packed def runs, with long present/absent
    // stretches that encode as RLE runs.
    const bool dense = (i / 100) % 2 == 0;
    if (dense || rng.Bernoulli(0.3)) {
      doc += ", \"n\": " + std::to_string(rng.Uniform(1000000)) + "";
    }
    if (rng.Bernoulli(0.5)) doc += ", \"d\": " + std::to_string(i) + ".25";
    if (rng.Bernoulli(0.6)) {
      doc += ", \"b\": " + std::string(rng.Bernoulli(0.5) ? "true" : "false");
    }
    if (rng.Bernoulli(0.7)) {
      // Empty strings included.
      doc += ", \"s\": \"" + rng.Word(0, 12) + "\"";
    }
    jsons.push_back(doc + "}");
  }
  ExpectSeekMatchesSkipOn(jsons);
}

TEST(SeekTest, NestedArraysAndArraysOfObjects) {
  std::vector<std::string> jsons;
  Rng rng(11);
  for (size_t i = 0; i < 300; ++i) {
    std::string doc = "{" + Id(i);
    if (rng.Bernoulli(0.8)) {
      doc += ", \"m\": [";
      const size_t rows = rng.Uniform(4);
      for (size_t r = 0; r < rows; ++r) {
        doc += r ? ",[" : "[";
        const size_t cols = rng.Uniform(3);
        for (size_t k = 0; k < cols; ++k) {
          doc += (k ? "," : "") + std::to_string(rng.Uniform(9));
        }
        doc += "]";
      }
      doc += "]";
    }
    if (rng.Bernoulli(0.7)) {
      doc += ", \"games\": [";
      const size_t n = rng.Uniform(3);
      for (size_t g = 0; g < n; ++g) {
        doc += g ? ",{" : "{";
        doc += "\"title\": \"t" + std::to_string(rng.Uniform(5)) + "\"";
        if (rng.Bernoulli(0.5)) {
          doc += ", \"consoles\": [\"PS4\", \"\"]";
        }
        doc += "}";
      }
      doc += "]";
    }
    jsons.push_back(doc + "}");
  }
  ExpectSeekMatchesSkipOn(jsons);
}

TEST(SeekTest, UnionsAndAllMissingColumns) {
  std::vector<std::string> jsons;
  for (size_t i = 0; i < 200; ++i) {
    std::string doc = "{" + Id(i);
    switch (i % 4) {
      case 0: doc += ", \"u\": 7"; break;
      case 1: doc += ", \"u\": \"seven\""; break;
      case 2: doc += ", \"u\": [1, \"x\", {\"k\": 2.5}]"; break;
      default: break;
    }
    // Present only in the first record: every later entry is missing, so
    // the chunk is one long RLE run.
    if (i == 0) doc += ", \"once\": {\"deep\": [true]}";
    jsons.push_back(doc + "}");
  }
  ExpectSeekMatchesSkipOn(jsons);
}

TEST(SeekTest, SingleRecordAndAntiMatterPk) {
  ExpectSeekMatchesSkipOn({R"({"id": 0, "s": "", "a": [[]]})"});
  // The PK column with anti-matter entries mixed in.
  Schema schema("id");
  ColumnWriterSet writers(&schema);
  RecordShredder shredder(&schema, &writers);
  for (int64_t k = 0; k < 150; ++k) {
    if (k % 7 == 3) {
      ASSERT_TRUE(shredder.ShredAntiMatter(k).ok());
    } else {
      auto v = ParseJson("{\"id\": " + std::to_string(k) + ", \"x\": 1}");
      ASSERT_TRUE(shredder.Shred(*v).ok());
    }
  }
  std::vector<Buffer> chunks(static_cast<size_t>(schema.column_count()));
  for (int c = 0; c < schema.column_count(); ++c) {
    writers.writer(c).FinishInto(&chunks[c]);
  }
  ExpectSeekMatchesSkip(schema, chunks, 150);
}

TEST(SeekTest, AllMissingChunkHasOneCheckpointPerStride) {
  ColumnChunkWriter writer(FlatColumn(AtomicType::kString));
  for (int i = 0; i < 1000; ++i) writer.AddNull(0);
  Buffer encoded;
  writer.FinishInto(&encoded);
  ColumnChunkReader reader;
  ASSERT_TRUE(
      reader.Init(encoded.slice(), FlatColumn(AtomicType::kString)).ok());
  Buffer index;
  ASSERT_TRUE(reader.BuildSeekIndex(&index).ok());
  for (size_t r : {999u, 0u, 640u, 64u, 63u}) {
    ASSERT_TRUE(reader.Seek(r, index.slice()).ok());
    ColumnRecord rec;
    ASSERT_TRUE(reader.NextRecord(&rec).ok());
    EXPECT_EQ(rec.root.kind, ShredCell::Kind::kMissing);
  }
  EXPECT_TRUE(reader.Seek(1000, index.slice()).ok());
  EXPECT_EQ(reader.Seek(1001, index.slice()).code(), StatusCode::kOutOfRange);
}

// Found by column_chunk_fuzz: a def stream whose value entry would close
// arrays still open (impossible for a well-formed writer) used to trip a
// debug assertion; every build now returns Corruption.
TEST(SeekTest, ValueEntryClosingOpenArraysIsCorruption) {
  ColumnInfo info;
  info.id = 1;
  info.type = AtomicType::kInt64;
  info.max_def = 4;
  info.array_defs = {1, 3};
  RleEncoder defs(3);
  for (uint64_t def : {3, 2, 0}) defs.Add(def);  // 2 closes the inner array
  Buffer def_bytes;
  defs.FinishInto(&def_bytes);
  Buffer chunk;
  chunk.AppendVarint64(def_bytes.size());
  chunk.Append(def_bytes.slice());
  DeltaInt64Encoder values;
  values.FinishInto(&chunk);
  for (bool materialize : {true, false}) {
    ColumnChunkReader reader;
    ASSERT_TRUE(reader.Init(chunk.slice(), info).ok());
    ColumnRecord rec;
    const Status st =
        materialize ? reader.NextRecord(&rec) : reader.SkipRecords(1);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
}

TEST(SeekTest, LazyStringLengthsAreCheckedAtTheRead) {
  ColumnChunkWriter writer(FlatColumn(AtomicType::kString));
  for (int i = 0; i < 100; ++i) {
    writer.AddString(Slice("value" + std::to_string(i)));
  }
  Buffer encoded;
  writer.FinishInto(&encoded);
  // Cut the payload short: Init still succeeds (lengths are read lazily),
  // the early records decode, and the read that reaches past the payload
  // returns Corruption.
  Slice cut(encoded.data(), encoded.size() - 20);
  ColumnChunkReader reader;
  ASSERT_TRUE(reader.Init(cut, FlatColumn(AtomicType::kString)).ok());
  ColumnRecord rec;
  ASSERT_TRUE(reader.NextRecord(&rec).ok());
  EXPECT_EQ(rec.values[0].string_value(), "value0");
  Status st = reader.SkipRecords(98);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  ColumnChunkReader indexer;
  ASSERT_TRUE(indexer.Init(cut, FlatColumn(AtomicType::kString)).ok());
  Buffer index;
  EXPECT_TRUE(indexer.BuildSeekIndex(&index).IsCorruption());
}

// ------------------------------------ record split from def-level runs

// The per-entry split DecodeRecords replaced, kept as its oracle: walks
// the def levels one by one with NextRecord's delimiter rule.
Status OracleRecordStarts(const ColumnInfo& info, const std::vector<int>& defs,
                          std::vector<uint32_t>* starts) {
  starts->clear();
  const std::vector<int>& darr = info.array_defs;
  const int m = info.array_count();
  auto opened = [&](int e) {
    int k = 0;
    while (k < m && darr[k] <= e) ++k;
    return k;
  };
  size_t i = 0;
  while (i < defs.size()) {
    starts->push_back(static_cast<uint32_t>(i));
    const int d0 = defs[i++];
    if (info.is_pk || m == 0 || d0 < darr[0]) continue;
    int current = opened(d0);
    while (true) {
      if (i >= defs.size()) {
        return Status::Corruption("column record missing closing delimiter");
      }
      const int e = defs[i++];
      if (e > current - 1) {
        current = opened(e);
      } else if (e == 0) {
        break;
      } else {
        current = e;
      }
    }
  }
  starts->push_back(static_cast<uint32_t>(defs.size()));
  return Status::OK();
}

// A PK (shape 0), flat (1) or 1-3 level array column (2-4) with random
// def levels a schema could give it.
ColumnInfo RandomColumnInfo(int shape, Rng* rng) {
  ColumnInfo info;
  info.id = 1;
  info.path = "x";
  if (shape == 0) {
    info.is_pk = true;
    info.max_def = 1;
    return info;
  }
  int level = 0;
  for (int k = 0; k < shape - 1; ++k) {
    level += 1 + static_cast<int>(rng->Uniform(2));
    info.array_defs.push_back(level);
  }
  info.max_def = level + 1 + static_cast<int>(rng->Uniform(2));
  return info;
}

// Writes seeded random records of one int column as RecordShredder does:
// an outermost array missing (one entry below its level) or present, its
// elements null, missing the path below, values, or empty or nested
// arrays; each array's close leaves a pending delimiter that the next
// entry materializes, and the record ends with delimiter 0. Long dense
// arrays and streaks of equal records make RLE runs, the rest bit-packed
// runs; a record's closing 0 before a missing-array record at def 0, and
// a delimiter before a null element at its level, put equal delimiters
// side by side.
class RandomColumnWriter {
 public:
  RandomColumnWriter(const ColumnInfo& info, Rng* rng)
      : info_(info), writer_(info), rng_(rng) {}

  /// Adds 1 record, or a streak of equal ones; returns how many.
  size_t AddRecords() {
    if (info_.is_pk) {
      const bool anti_matter = rng_->Bernoulli(0.1);
      writer_.AddKey(key_++, anti_matter);
      defs_.push_back(anti_matter ? 0 : 1);
      return 1;
    }
    if (info_.array_count() == 0) {
      const size_t streak = rng_->Bernoulli(0.1) ? 20 : 1;
      const int def =
          rng_->Bernoulli(0.6)
              ? info_.max_def
              : static_cast<int>(rng_->Uniform(
                    static_cast<uint64_t>(info_.max_def)));
      for (size_t i = 0; i < streak; ++i) Entry(def);
      return streak;
    }
    const int outer = info_.array_defs[0];
    if (rng_->Bernoulli(0.15)) {
      const size_t streak = rng_->Bernoulli(0.3) ? 20 : 1;
      const int def =
          static_cast<int>(rng_->Uniform(static_cast<uint64_t>(outer)));
      for (size_t i = 0; i < streak; ++i) Entry(def);
      return streak;
    }
    Array(0);
    pending_ = -1;
    writer_.AddDelimiter(0);
    defs_.push_back(0);
    return 1;
  }

  void FinishInto(Buffer* out) { writer_.FinishInto(out); }

  /// Every entry's def level, as written.
  const std::vector<int>& defs() const { return defs_; }

 private:
  void Entry(int def) {
    if (pending_ >= 0) {
      writer_.AddDelimiter(pending_);
      defs_.push_back(pending_);
      pending_ = -1;
    }
    if (def == info_.max_def) {
      writer_.AddInt64(next_value_++);
    } else {
      writer_.AddNull(def);
    }
    defs_.push_back(def);
  }

  // A random def in (lo, hi), or -1 when there is none.
  int Between(int lo, int hi) {
    if (hi - lo < 2) return -1;
    return lo + 1 + static_cast<int>(rng_->Uniform(
                        static_cast<uint64_t>(hi - lo - 1)));
  }

  // Array instance k (0 = outermost) of the column.
  void Array(int k) {
    const int def = info_.array_defs[static_cast<size_t>(k)];
    const bool innermost = k + 1 == info_.array_count();
    const int below = innermost ? info_.max_def
                                : info_.array_defs[static_cast<size_t>(k) + 1];
    const bool dense = rng_->Bernoulli(0.3);
    const uint64_t shape = rng_->Uniform(10);
    const size_t n = shape < 2   ? 0
                     : shape < 4 ? 16 + rng_->Uniform(40)
                                 : 1 + rng_->Uniform(5);
    if (n == 0) Entry(def);  // present but empty
    for (size_t i = 0; i < n; ++i) {
      const uint64_t r = dense ? 9 : rng_->Uniform(10);
      const int missing = Between(def, below);
      if (r == 0) {
        Entry(def);  // a null element
      } else if (r == 1 && missing >= 0) {
        Entry(missing);  // the path below the element is missing
      } else if (innermost) {
        Entry(info_.max_def);
      } else {
        Array(k + 1);
      }
    }
    if (pending_ < 0 || k < pending_) pending_ = k;
  }

  const ColumnInfo& info_;
  ColumnChunkWriter writer_;
  Rng* rng_;
  int pending_ = -1;
  int64_t next_value_ = 0;
  int64_t key_ = 0;
  std::vector<int> defs_;
};

TEST(RecordSplitTest, RunDrivenSplitMatchesThePerEntryRule) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    const int shape = static_cast<int>(seed % 5);
    const ColumnInfo info = RandomColumnInfo(shape, &rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + ", arrays " +
                 std::to_string(info.array_count()) + ", max_def " +
                 std::to_string(info.max_def));
    RandomColumnWriter writer(info, &rng);
    const size_t target = 1 + rng.Uniform(400);
    size_t records = 0;
    while (records < target) records += writer.AddRecords();
    Buffer chunk;
    writer.FinishInto(&chunk);

    // The oracle: the entries as written, their value indices, and the
    // values 0, 1, ... in order (keys, for the PK).
    ColumnEntryBatch expected;
    expected.defs = writer.defs();
    for (const int def : expected.defs) {
      const bool value = info.is_pk || def == info.max_def;
      expected.value_index.push_back(
          value ? static_cast<int32_t>(expected.ints.size()) : -1);
      if (value) {
        expected.ints.push_back(static_cast<int64_t>(expected.ints.size()));
      }
    }
    std::vector<uint32_t> expected_starts;
    ASSERT_TRUE(
        OracleRecordStarts(info, expected.defs, &expected_starts).ok());
    ASSERT_EQ(expected_starts.size(), records + 1);

    // The entry batch decodes the same entries, in batches of any size.
    ColumnChunkReader batches;
    ASSERT_TRUE(batches.Init(chunk.slice(), info).ok());
    ColumnEntryBatch all;
    while (!batches.AtEnd()) {
      ColumnEntryBatch batch;
      ASSERT_TRUE(batches.NextEntryBatch(1 + rng.Uniform(700), &batch).ok());
      const auto first_value = static_cast<int32_t>(all.ints.size());
      for (size_t e = 0; e < batch.defs.size(); ++e) {
        all.defs.push_back(batch.defs[e]);
        all.value_index.push_back(batch.value_index[e] < 0
                                      ? -1
                                      : first_value + batch.value_index[e]);
      }
      all.ints.insert(all.ints.end(), batch.ints.begin(), batch.ints.end());
    }
    EXPECT_EQ(all.defs, expected.defs);
    EXPECT_EQ(all.value_index, expected.value_index);
    EXPECT_EQ(all.ints, expected.ints);

    ColumnChunkReader reader;
    ASSERT_TRUE(reader.Init(chunk.slice(), info).ok());
    ColumnEntryBatch got;
    std::vector<uint32_t> starts;
    size_t values = 0;
    ASSERT_TRUE(reader.DecodeRecords(&got, &starts, &values).ok());
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(starts, expected_starts);
    EXPECT_EQ(got.defs, expected.defs);
    EXPECT_EQ(got.value_index, expected.value_index);
    EXPECT_TRUE(got.ints.empty());  // values wait for DecodeValues
    ASSERT_EQ(values, expected.ints.size());
    ASSERT_TRUE(reader.DecodeValues(values, &got).ok());
    EXPECT_EQ(got.ints, expected.ints);
    if (HasFailure()) return;
  }
}

TEST(RecordSplitTest, MissingClosingDelimiterIsCorruption) {
  ColumnInfo info;
  info.id = 1;
  info.path = "a[*]";
  info.array_defs = {1};
  info.max_def = 2;
  ColumnChunkWriter writer(info);
  writer.AddInt64(1);
  writer.AddInt64(2);
  writer.AddDelimiter(0);
  writer.AddNull(0);  // a record whose array is missing
  writer.AddInt64(3);  // the last record's array is never closed
  writer.AddInt64(4);
  Buffer chunk;
  writer.FinishInto(&chunk);
  ColumnChunkReader reader;
  ASSERT_TRUE(reader.Init(chunk.slice(), info).ok());
  ColumnEntryBatch batch;
  std::vector<uint32_t> starts;
  size_t values = 0;
  const Status st = reader.DecodeRecords(&batch, &starts, &values);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  // The oracle agrees.
  ColumnChunkReader oracle;
  ASSERT_TRUE(oracle.Init(chunk.slice(), info).ok());
  ASSERT_TRUE(oracle.NextEntryBatch(oracle.entry_count(), &batch).ok());
  EXPECT_TRUE(OracleRecordStarts(info, batch.defs, &starts).IsCorruption());
}

TEST(RecordSplitTest, ValuesDecodedAfterDefsOnlyAreTheSame) {
  // The count column of an unnest is read defs-only first; a later read
  // of the same column in the leaf decodes its values once.
  ColumnInfo info;
  info.id = 1;
  info.path = "a[*]";
  info.array_defs = {1};
  info.max_def = 2;
  info.type = AtomicType::kString;
  ColumnChunkWriter writer(info);
  for (int r = 0; r < 50; ++r) {
    for (int i = 0; i < r % 4; ++i) {
      writer.AddString(Slice("v" + std::to_string(r * 10 + i)));
    }
    if (r % 4 == 0) writer.AddNull(1);  // an empty array
    writer.AddDelimiter(0);
  }
  Buffer chunk;
  writer.FinishInto(&chunk);
  ColumnChunkReader defs_only;
  ASSERT_TRUE(defs_only.Init(chunk.slice(), info).ok());
  ColumnEntryBatch batch;
  std::vector<uint32_t> starts;
  size_t values = 0;
  ASSERT_TRUE(defs_only.DecodeRecords(&batch, &starts, &values).ok());
  ASSERT_EQ(starts.size(), 51u);
  EXPECT_TRUE(batch.strings.empty());
  ColumnChunkReader value_reader;
  ASSERT_TRUE(value_reader.Init(chunk.slice(), info).ok());
  ASSERT_TRUE(value_reader.DecodeValues(values, &batch).ok());
  ASSERT_EQ(batch.strings.size(), values);
  for (size_t r = 0; r < 50; ++r) {
    for (uint32_t e = starts[r]; e + 1 < starts[r + 1]; ++e) {
      if (batch.value_index[e] < 0) continue;
      const size_t i = e - starts[r];
      EXPECT_EQ(batch.strings[static_cast<size_t>(batch.value_index[e])]
                    .ToString(),
                "v" + std::to_string(r * 10 + i));
    }
  }
  // Asking for more values than the chunk holds is Corruption.
  ColumnEntryBatch past;
  EXPECT_TRUE(value_reader.DecodeValues(1, &past).IsCorruption());
}

// ------------------------------- sibling columns disagreeing on an array

// A one-record APAX component of {"id":1,"a":[{"x":1,"y":2},{"x":3,"y":4}]}
// whose column `victim` holds the one-element record {"id":1,"a":[{"x":1,
// "y":2}]} instead. Each chunk parses on its own and every page checksum
// holds; only assembly can see that a.x and a.y disagree on a's length.
class MismatchedArrayComponent {
 public:
  MismatchedArrayComponent()
      : dir_(testing::TempDir() + "/columnar_mismatch"),
        cache_(1 << 20, kPage) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~MismatchedArrayComponent() {
    component_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// `victim_records` copies of the short record go into the victim's
  /// chunk.
  void Build(const std::string& victim, int victim_records = 1) {
    Schema schema("id");
    ColumnWriterSet writers(&schema);
    RecordShredder shredder(&schema, &writers);
    ASSERT_TRUE(Shred(&shredder,
                      R"({"id":1,"a":[{"x":1,"y":2},{"x":3,"y":4}]})"));
    ColumnWriterSet short_writers(&schema);
    RecordShredder short_shredder(&schema, &short_writers);
    for (int r = 0; r < victim_records; ++r) {
      ASSERT_TRUE(
          Shred(&short_shredder, R"({"id":1,"a":[{"x":1,"y":2}]})"));
    }
    int column = -1;
    for (int c = 0; c < schema.column_count(); ++c) {
      if (schema.column(c).path == "a[*]." + victim) column = c;
    }
    ASSERT_GE(column, 0);
    Buffer chunk;
    short_writers.writer(column).FinishInto(&chunk);
    ColumnChunkReader reader;
    ASSERT_TRUE(reader.Init(chunk.slice(), schema.column(column)).ok());
    ColumnEntryBatch entries;
    ASSERT_TRUE(reader.NextEntryBatch(reader.entry_count(), &entries).ok());
    writers.writer(column).Clear();
    writers.writer(column).AppendEntries(entries);

    const std::string path = dir_ + "/" + victim;
    auto out = ComponentWriter::Create(path, &cache_, kPage);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_TRUE(EmitApaxLeaf(&writers, out->get(), /*compress=*/false).ok());
    ComponentMeta meta;
    meta.layout = LayoutKind::kApax;
    meta.compressed = false;
    meta.component_id = 1;
    meta.entry_count = 1;
    Buffer meta_blob;
    meta.SerializeTo(&meta_blob, &schema);
    ASSERT_TRUE((*out)->Finish(meta_blob.slice()).ok());
    out->reset();
    auto opened = Component::Open(path, &cache_, kPage);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    component_ = std::move(*opened);
  }

  const Component* component() const { return component_.get(); }

 private:
  static constexpr size_t kPage = 4096;

  static bool Shred(RecordShredder* shredder, const std::string& json) {
    auto v = ParseJson(json);
    return v.ok() && shredder->Shred(*v).ok();
  }

  std::string dir_;
  BufferCache cache_;
  std::unique_ptr<Component> component_;
};

// Assembly cannot trust any one list cell's length: taking a.y's, it would
// index past a shorter a.x's list; taking a.x's, it would drop the element
// a shorter a.y lacks. Every read that assembles `a` fails instead.
TEST(ArrayLengthMismatchTest, ScanPathAndLookupReturnCorruption) {
  for (const std::string victim : {"x", "y"}) {
    SCOPED_TRACE("shorter column: a[*]." + victim);
    MismatchedArrayComponent fixture;
    fixture.Build(victim);
    ASSERT_NE(fixture.component(), nullptr);
    ColumnarComponentCursor cursor(fixture.component(), Projection::All());
    auto next = cursor.Next();
    ASSERT_TRUE(next.ok() && *next);
    Value out;
    Status st = cursor.Record(&out);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString() << " " << ToJson(out);
    st = cursor.Path({"a"}, &out);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString() << " " << ToJson(out);
    // A projection of `a` reads both columns and fails too.
    ColumnarComponentCursor projected(fixture.component(),
                                      Projection::Of({{"a"}}));
    next = projected.Next();
    ASSERT_TRUE(next.ok() && *next);
    st = projected.Record(&out);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString() << " " << ToJson(out);
    auto probe = fixture.component()->Lookup(1, Projection::All(), &out);
    EXPECT_TRUE(probe.status().IsCorruption())
        << probe.status().ToString() << " " << ToJson(out);
  }
}

TEST(ArrayLengthMismatchTest, RecordSpanOfAChunkWithOtherRecordsIsCorruption) {
  // A chunk whose record split disagrees with the leaf's record count.
  for (int records : {2, 3}) {
    MismatchedArrayComponent fixture;
    fixture.Build("x", records);
    ASSERT_NE(fixture.component(), nullptr);
    const Schema* schema = fixture.component()->schema();
    int column = -1;
    for (int c = 0; c < schema->column_count(); ++c) {
      if (schema->column(c).path == "a[*].x") column = c;
    }
    ASSERT_GE(column, 0);
    for (bool values : {true, false}) {
      ColumnarComponentCursor cursor(fixture.component(),
                                     Projection::Of({{"a"}}));
      auto next = cursor.Next();
      ASSERT_TRUE(next.ok() && *next);
      ColumnarComponentCursor::ColumnSpan span;
      const Status st = cursor.RecordSpan(column, &span, values);
      EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    }
  }
}

TEST(ArrayLengthMismatchTest, PlanRejectsEveryDirection) {
  // The same mismatch at the plan level, including an empty list.
  Schema schema("id");
  auto v = ParseJson(R"({"id":1,"a":[{"x":1,"y":2},{"x":3,"y":4}]})");
  ASSERT_TRUE(v.ok());
  ColumnWriterSet writers(&schema);
  RecordShredder shredder(&schema, &writers);
  ASSERT_TRUE(shredder.Shred(*v).ok());
  const int ncols = schema.column_count();
  std::vector<ColumnRecord> cells(static_cast<size_t>(ncols));
  std::vector<const ColumnRecord*> by_column(static_cast<size_t>(ncols));
  for (int c = 0; c < ncols; ++c) {
    Buffer chunk;
    writers.writer(c).FinishInto(&chunk);
    ColumnChunkReader reader;
    ASSERT_TRUE(reader.Init(chunk.slice(), schema.column(c)).ok());
    ASSERT_TRUE(reader.NextRecord(&cells[static_cast<size_t>(c)]).ok());
    by_column[static_cast<size_t>(c)] = &cells[static_cast<size_t>(c)];
  }
  const AssemblyPlan record = AssemblyPlan::ForRecord(schema);
  const AssemblyPlan node =
      AssemblyPlan::ForNode(*schema.root().FindField("a"));
  AssemblyScratch scratch;
  Value out;
  ASSERT_TRUE(record.Assemble(by_column, &scratch, &out).ok());
  EXPECT_EQ(ToJson(out), ToJson(*v));
  for (int c = 1; c < ncols; ++c) {
    for (size_t keep : {0, 1}) {
      ColumnRecord cut = cells[static_cast<size_t>(c)];
      ASSERT_EQ(cut.root.kind, ShredCell::Kind::kList);
      cut.root.children.resize(keep);
      std::vector<const ColumnRecord*> mixed = by_column;
      mixed[static_cast<size_t>(c)] = &cut;
      EXPECT_TRUE(record.Assemble(mixed, &scratch, &out).IsCorruption())
          << "column " << c << " keeps " << keep;
      EXPECT_TRUE(node.Assemble(mixed, &scratch, &out).IsCorruption())
          << "column " << c << " keeps " << keep;
    }
  }
  // The scratch is left usable.
  ASSERT_TRUE(record.Assemble(by_column, &scratch, &out).ok());
  EXPECT_EQ(ToJson(out), ToJson(*v));
}

}  // namespace
}  // namespace lsmcol
