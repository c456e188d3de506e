// Golden write path: ingests a fixed, seeded document stream into APAX and
// AMAX and pins a hash of every component file the ingest and a final
// MergeAll leave behind. The stream runs twice per layout: without
// automatic merges, so every flush's component is pinned, and with the
// default tiered merges after flushes. It mixes documents of every
// src/datagen generator with deletes, upserts, type flips, union-typed
// arrays, and the empty-container shapes the columnar layouts do not yet
// round-trip (an empty array or object, an array of empty arrays, an
// object inside a union array). The pinned hashes describe today's
// on-disk bytes, empty-container handling included: a change that moves
// them changes the stored bytes and must update them on purpose.
// A second set pins what the components decompress to, without the
// compressed bytes or megapage offsets: a change to compression alone
// moves the first set and keeps the second.
//
// On a mismatch the test prints every file with its actual hash, in the
// form of the tables below.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/datagen/datagen.h"
#include "src/encoding/lz.h"
#include "src/json/parser.h"
#include "src/layouts/amax.h"
#include "src/lsm/component.h"
#include "src/lsm/dataset.h"

namespace lsmcol {
namespace {

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Component file name -> "size:fnv1a64" of every component in `dir`.
std::map<std::string, std::string> HashComponents(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".cmp") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(Fnv1a64(bytes)));
    out[entry.path().filename().string()] =
        std::to_string(bytes.size()) + ":" + hex;
  }
  return out;
}

/// Component file name -> "size:fnv1a64" of what its leaves decompress
/// to: the metadata, then per leaf its key range and record count and
/// either its decompressed payload (APAX) or Page 0's header and PK chunk
/// with every column's zone prefixes, string min/max and decompressed
/// chunk (AMAX). Megapage offsets and the compressed bytes are left out,
/// so these hashes hold whichever tokens the LZ encoder picks.
std::map<std::string, std::string> HashPayloads(const std::string& dir,
                                                size_t page_size) {
  std::map<std::string, std::string> out;
  BufferCache cache(8u << 20, page_size);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".cmp") continue;
    auto reader =
        ComponentReader::Open(entry.path().string(), &cache, page_size);
    LSMCOL_CHECK_OK(reader.status());
    Buffer schema_blob;
    auto meta = ComponentMeta::Parse((*reader)->metadata(), &schema_blob);
    LSMCOL_CHECK_OK(meta.status());
    auto schema = Schema::Deserialize(schema_blob.slice());
    LSMCOL_CHECK_OK(schema.status());
    Buffer bytes;
    bytes.AppendLengthPrefixed((*reader)->metadata());
    for (size_t leaf = 0; leaf < (*reader)->leaves().size(); ++leaf) {
      const LeafEntry& e = (*reader)->leaves()[leaf];
      bytes.AppendSignedVarint64(e.min_key);
      bytes.AppendSignedVarint64(e.max_key);
      bytes.AppendVarint64(e.record_count);
      Buffer stored, chunk;
      LSMCOL_CHECK_OK((*reader)->ReadLeaf(leaf, &stored));
      if (meta->layout == LayoutKind::kApax) {
        LSMCOL_CHECK_OK(LzDecompress(stored.slice(), &chunk));
        bytes.AppendLengthPrefixed(chunk.slice());
        continue;
      }
      AmaxPageZero page0;
      LSMCOL_CHECK_OK(page0.Parse(stored.slice()));
      bytes.AppendVarint64(page0.record_count());
      bytes.AppendVarint64(page0.column_count());
      bytes.AppendLengthPrefixed(page0.pk_chunk());
      for (uint32_t c = 1; c < page0.column_count(); ++c) {
        const AmaxColumnExtent extent = page0.extent(static_cast<int>(c));
        bytes.Append(extent.min_prefix, 8);
        bytes.Append(extent.max_prefix, 8);
        std::string lo, hi;
        if (extent.size > 0) {
          LSMCOL_CHECK_OK(ParseAmaxMegapage(
              stored.slice().SubSlice(extent.offset, extent.size),
              schema->column(static_cast<int>(c)), meta->compressed, &chunk,
              &lo, &hi));
        } else {
          chunk.clear();
        }
        bytes.AppendLengthPrefixed(Slice(lo));
        bytes.AppendLengthPrefixed(Slice(hi));
        bytes.AppendLengthPrefixed(chunk.slice());
      }
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      Fnv1a64(bytes.slice().ToString())));
    out[entry.path().filename().string()] =
        std::to_string(bytes.size()) + ":" + hex;
  }
  return out;
}

std::string Describe(const std::map<std::string, std::string>& files) {
  std::string out;
  for (const auto& [name, hash] : files) {
    out += "      {\"" + name + "\", \"" + hash + "\"},\n";
  }
  return out;
}

/// Hand-written documents: type flips, union arrays, and the empty
/// containers. `id` is filled in by the caller.
const char* const kShapes[] = {
    R"({"flip":1,"u":[1,"s",{"b":2},[3,4]],"x":1})",
    R"({"flip":"one","u":[{"b":"t"},null,2.5],"x":2})",
    R"({"flip":{"v":true},"u":[[5],[]],"x":3})",
    R"({"flip":[1,null,"z"],"u":null,"x":4.5})",
    R"({"flip":null,"x":"five"})",
    R"({"entities":{"hashtags":[]},"x":1})",
    R"({"entities":{"hashtags":["a"]},"x":2})",
    R"({"a":[]})",
    R"({"o":{}})",
    R"({"a":[[]]})",
    R"({"a":{"b":[{}]}})",
    R"({"a":[1,"s",{"b":[]}]})",
    R"({"a":null})",
};

class WritePathGoldenTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/write_path_golden_" +
           std::string(LayoutKindName(GetParam()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Hashes of the dataset's components at one point of the stream.
  struct Pins {
    std::map<std::string, std::string> files;     // HashComponents
    std::map<std::string, std::string> payloads;  // HashPayloads
  };

  Pins Hash() const {
    return {HashComponents(dir_), HashPayloads(dir_, kPage)};
  }

  /// Runs the whole stream into a fresh dataset and returns the component
  /// hashes after the ingest and after MergeAll.
  void Ingest(bool auto_merge, Pins* after_ingest, Pins* after_merge) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    BufferCache cache(8u << 20, kPage);
    DatasetOptions options;
    options.layout = GetParam();
    options.dir = dir_;
    options.name = "golden";
    options.page_size = kPage;
    options.memtable_bytes = 96u << 10;  // inline flushes every few dozen docs
    options.amax_max_records = 96;
    options.auto_merge = auto_merge;
    auto opened = Dataset::Open(options, &cache);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Dataset> ds = std::move(*opened);

    Rng rng(20261019);
    int64_t next_id = 0;
    const Workload kWorkloads[] = {Workload::kCell, Workload::kSensors,
                                   Workload::kTweet1, Workload::kWos,
                                   Workload::kTweet2};
    for (int round = 0; round < 3; ++round) {
      for (const Workload w : kWorkloads) {
        for (int i = 0; i < 40; ++i) {
          const int64_t id = next_id++;
          const Status st = ds->Insert(MakeRecord(w, id, &rng));
          ASSERT_TRUE(st.ok()) << st.ToString();
          // Every seventh document deletes an earlier one, some of them
          // in an older component, some still in the memtable.
          if (id % 7 == 6) {
            const int64_t victim =
                static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(id)));
            ASSERT_TRUE(ds->Delete(victim).ok());
          }
        }
        for (const char* shape : kShapes) {
          auto doc = ParseJson(shape);
          ASSERT_TRUE(doc.ok()) << shape;
          doc->Set("id", Value::Int(next_id++));
          ASSERT_TRUE(ds->Insert(*doc).ok()) << shape;
        }
      }
      // Upserts of earlier documents with another generator's shape.
      for (int i = 0; i < 20; ++i) {
        const int64_t id =
            static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(next_id)));
        ASSERT_TRUE(
            ds->Insert(MakeRecord(kWorkloads[i % 5], id, &rng)).ok());
      }
    }
    ASSERT_TRUE(ds->Flush().ok());
    *after_ingest = Hash();
    ASSERT_TRUE(ds->MergeAll().ok());
    *after_merge = Hash();
  }

  static constexpr size_t kPage = 64u << 10;
  std::string dir_;
};

// Recorded from the write path after the LZ match finder moved to two
// seeds per match and a growing probe step; see the file comment. Keyed
// by automatic merges off/on.
using Hashes = std::map<std::string, std::string>;
const std::map<LayoutKind, std::map<bool, Hashes>> kIngest = {
    {LayoutKind::kApax,
     {{false,
       Hashes{
           {"golden_1.cmp", "327720:25f01df90afdb3f3"},
           {"golden_10.cmp", "393264:754084ada0968a18"},
           {"golden_11.cmp", "327720:afcf33edede6eb0c"},
           {"golden_12.cmp", "327720:09f9a0a3bb81e9e7"},
           {"golden_13.cmp", "327720:4ed0332e77e43501"},
           {"golden_14.cmp", "393264:7f7f34560228e292"},
           {"golden_15.cmp", "262176:553fb45d4f866386"},
           {"golden_2.cmp", "327720:f78058e719e29a09"},
           {"golden_3.cmp", "327720:1ae980df24545c50"},
           {"golden_4.cmp", "327720:571aff18419711a1"},
           {"golden_5.cmp", "393264:8b07a55003b0fbc9"},
           {"golden_6.cmp", "327720:12209c1e0d296cb6"},
           {"golden_7.cmp", "327720:e0ef9ee3f7d63297"},
           {"golden_8.cmp", "327720:1c5f66ef4b6086dc"},
           {"golden_9.cmp", "327720:d54cc9b2338b09e5"},
       }},
      {true,
       Hashes{
           {"golden_21.cmp", "6095592:08963b58065063c6"},
           {"golden_22.cmp", "262176:9d3824449d6a3147"},
       }}}},
    {LayoutKind::kAmax,
     {{false,
       Hashes{
           {"golden_1.cmp", "327720:b04aaf55b7566517"},
           {"golden_10.cmp", "524352:7ee67e80a6e5bd68"},
           {"golden_11.cmp", "393264:f60d3074ab2334ec"},
           {"golden_12.cmp", "458808:e6a8a705dcc9c2f3"},
           {"golden_13.cmp", "393264:7d96550661e0065d"},
           {"golden_14.cmp", "393264:78caffb4b9963178"},
           {"golden_15.cmp", "327720:a7d831730b1eaf8d"},
           {"golden_2.cmp", "393264:4e49563d37a0ecf0"},
           {"golden_3.cmp", "393264:635e0f819b62c67a"},
           {"golden_4.cmp", "327720:ba2b0dc0ca81abab"},
           {"golden_5.cmp", "524352:8e64061190f04ca9"},
           {"golden_6.cmp", "327720:63cdc2fb555104a0"},
           {"golden_7.cmp", "393264:578b54e3bb8838f0"},
           {"golden_8.cmp", "393264:b45a61669d5ece99"},
           {"golden_9.cmp", "393264:f391661c1952c962"},
       }},
      {true,
       Hashes{
           {"golden_20.cmp", "1966320:abb1ccbfc9f571ad"},
           {"golden_21.cmp", "327720:80c26fff04091bb1"},
       }}}},
};
const std::map<LayoutKind, std::map<bool, Hashes>> kMerged = {
    {LayoutKind::kApax,
     {{false,
       Hashes{
           {"golden_16.cmp", "4522536:293d0966651183b2"},
       }},
      {true,
       Hashes{
           {"golden_23.cmp", "6751032:5295cdbf099a619a"},
       }}}},
    {LayoutKind::kAmax,
     {{false,
       Hashes{
           {"golden_16.cmp", "2097408:29e20bbd213831b9"},
       }},
      {true,
       Hashes{
           {"golden_22.cmp", "2097408:76d972613fca6750"},
       }}}},
};

TEST_P(WritePathGoldenTest, ComponentFilesMatchGoldenHashes) {
  for (const bool auto_merge : {false, true}) {
    SCOPED_TRACE(auto_merge ? "tiered merges" : "flushes only");
    Pins after_ingest, after_merge;
    Ingest(auto_merge, &after_ingest, &after_merge);
    EXPECT_GT(after_ingest.files.size(), 1u);
    EXPECT_EQ(after_merge.files.size(), 1u);
    EXPECT_EQ(after_ingest.files, kIngest.at(GetParam()).at(auto_merge))
        << "after the ingest:\n" << Describe(after_ingest.files);
    EXPECT_EQ(after_merge.files, kMerged.at(GetParam()).at(auto_merge))
        << "after MergeAll:\n" << Describe(after_merge.files);
  }
}

// What the components decompress to (HashPayloads), recorded before the
// LZ match finder changed: a change to compression alone keeps these.
const std::map<LayoutKind, std::map<bool, Hashes>> kIngestPayloads = {
    {LayoutKind::kApax,
     {{false,
       Hashes{
           {"golden_1.cmp", "41640:77942dd0e860bd9f"},
           {"golden_10.cmp", "139048:7ae43c9d360649ec"},
           {"golden_11.cmp", "112847:b71dcd480acaae34"},
           {"golden_12.cmp", "200543:8fb42d937ec49219"},
           {"golden_13.cmp", "160057:0f46e79c13608889"},
           {"golden_14.cmp", "164010:58eef2879201ab18"},
           {"golden_15.cmp", "83378:96cdccdb293fdd26"},
           {"golden_2.cmp", "163067:5d68b63e5f7f46ea"},
           {"golden_3.cmp", "161173:a16e385687f5a6a6"},
           {"golden_4.cmp", "148951:8eb101a19200faa0"},
           {"golden_5.cmp", "150943:847d5f52b7f9354c"},
           {"golden_6.cmp", "75080:53ea3190ef06cd05"},
           {"golden_7.cmp", "196870:4b6e6e448f4d0f66"},
           {"golden_8.cmp", "160635:9c7547b3c72e11ec"},
           {"golden_9.cmp", "146205:001ab5767529430e"},
       }},
      {true,
       Hashes{
           {"golden_21.cmp", "2398783:93a01fac3b18e9e3"},
           {"golden_22.cmp", "83378:4661d1bea9e13225"},
       }}}},
    {LayoutKind::kAmax,
     {{false,
       Hashes{
           {"golden_1.cmp", "41574:bb3a39c4a0c204fd"},
           {"golden_10.cmp", "167134:c224ebbe0fb3d66e"},
           {"golden_11.cmp", "123948:bece9e1b13efeda9"},
           {"golden_12.cmp", "190721:5933474a2d0fd926"},
           {"golden_13.cmp", "156981:c3dc6317afce0844"},
           {"golden_14.cmp", "158296:e445cb75abc60cd1"},
           {"golden_15.cmp", "104273:5642091526cd6521"},
           {"golden_2.cmp", "149619:24cd8e7065b4dbb8"},
           {"golden_3.cmp", "158833:e22275bc510a66b8"},
           {"golden_4.cmp", "146648:64f31bab7f7ddd0a"},
           {"golden_5.cmp", "174266:433cf299e5ef740c"},
           {"golden_6.cmp", "82723:8f385610474cf5c8"},
           {"golden_7.cmp", "179880:64a711842af60452"},
           {"golden_8.cmp", "160936:82feb1519b836d99"},
           {"golden_9.cmp", "149593:b48f1a705aba8065"},
       }},
      {true,
       Hashes{
           {"golden_20.cmp", "1506677:81f74fdea31c6027"},
           {"golden_21.cmp", "104273:ece8a30bc7670293"},
       }}}},
};
const std::map<LayoutKind, std::map<bool, Hashes>> kMergedPayloads = {
    {LayoutKind::kApax,
     {{false,
       Hashes{
           {"golden_16.cmp", "2297999:a0c47ba144696983"},
       }},
      {true,
       Hashes{
           {"golden_23.cmp", "2554804:ce80a0f847dc8f28"},
       }}}},
    {LayoutKind::kAmax,
     {{false,
       Hashes{
           {"golden_16.cmp", "1562593:2e211e38a4d4c294"},
       }},
      {true,
       Hashes{
           {"golden_22.cmp", "1562593:9a242bddac3d8c36"},
       }}}},
};

TEST_P(WritePathGoldenTest, DecompressedPayloadsMatchGoldenHashes) {
  for (const bool auto_merge : {false, true}) {
    SCOPED_TRACE(auto_merge ? "tiered merges" : "flushes only");
    Pins after_ingest, after_merge;
    Ingest(auto_merge, &after_ingest, &after_merge);
    EXPECT_EQ(after_ingest.payloads,
              kIngestPayloads.at(GetParam()).at(auto_merge))
        << "after the ingest:\n" << Describe(after_ingest.payloads);
    EXPECT_EQ(after_merge.payloads,
              kMergedPayloads.at(GetParam()).at(auto_merge))
        << "after MergeAll:\n" << Describe(after_merge.payloads);
  }
}

INSTANTIATE_TEST_SUITE_P(Columnar, WritePathGoldenTest,
                         ::testing::Values(LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const auto& info) {
                           return std::string(LayoutKindName(info.param));
                         });

}  // namespace
}  // namespace lsmcol
