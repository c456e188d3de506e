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
// them changes the stored format and must update them on purpose.
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
#include "src/json/parser.h"
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

  /// Runs the whole stream into a fresh dataset and returns the component
  /// hashes after the ingest and after MergeAll.
  void Ingest(bool auto_merge,
              std::map<std::string, std::string>* after_ingest,
              std::map<std::string, std::string>* after_merge) {
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
    *after_ingest = HashComponents(dir_);
    ASSERT_TRUE(ds->MergeAll().ok());
    *after_merge = HashComponents(dir_);
  }

  static constexpr size_t kPage = 64u << 10;
  std::string dir_;
};

// Recorded from the write path before record-driven shredding; see the
// file comment. Keyed by automatic merges off/on.
using Hashes = std::map<std::string, std::string>;
const std::map<LayoutKind, std::map<bool, Hashes>> kIngest = {
    {LayoutKind::kApax,
     {{false,
       Hashes{
           {"golden_1.cmp", "327720:90bce88a59eb3f1f"},
           {"golden_10.cmp", "393264:394e77f3cdb8a179"},
           {"golden_11.cmp", "327720:39569c4af17af845"},
           {"golden_12.cmp", "327720:f077e16cf47ea726"},
           {"golden_13.cmp", "327720:6e3b88e889a5d65e"},
           {"golden_14.cmp", "393264:d4ee9bbee2d649fd"},
           {"golden_15.cmp", "262176:0b01e68e2950f0f3"},
           {"golden_2.cmp", "327720:0d2497239ceadcc7"},
           {"golden_3.cmp", "327720:d64fda4099fc4ac5"},
           {"golden_4.cmp", "327720:7f6e599d9c07d7f9"},
           {"golden_5.cmp", "393264:7493d6aa860d664c"},
           {"golden_6.cmp", "327720:36ee3309ad57032b"},
           {"golden_7.cmp", "327720:e240a94d746ebf3a"},
           {"golden_8.cmp", "327720:5fed589aec449e83"},
           {"golden_9.cmp", "327720:0d294cba17348216"},
       }},
      {true,
       Hashes{
           {"golden_21.cmp", "6095592:e553f26ae4a1c3ec"},
           {"golden_22.cmp", "262176:c3bc26628efe3092"},
       }}}},
    {LayoutKind::kAmax,
     {{false,
       Hashes{
           {"golden_1.cmp", "327720:0f5296f3bf6afbfb"},
           {"golden_10.cmp", "524352:2f6ee72871161e4f"},
           {"golden_11.cmp", "393264:f0ba5a6c32f3c859"},
           {"golden_12.cmp", "458808:fd2bbda72964f676"},
           {"golden_13.cmp", "393264:139090c005b27d3c"},
           {"golden_14.cmp", "393264:e5ff0fbff68d7a17"},
           {"golden_15.cmp", "327720:5ed0e6009c9c7d24"},
           {"golden_2.cmp", "393264:de133ad79de07e07"},
           {"golden_3.cmp", "393264:da8869884f0dbf35"},
           {"golden_4.cmp", "327720:eca68de286e76deb"},
           {"golden_5.cmp", "524352:7b4c5eab48d8368d"},
           {"golden_6.cmp", "327720:1e84ff306aacba03"},
           {"golden_7.cmp", "393264:a4a78554ce875d50"},
           {"golden_8.cmp", "393264:801667e8423bb9fe"},
           {"golden_9.cmp", "393264:3649c9aa2d0433be"},
       }},
      {true,
       Hashes{
           {"golden_20.cmp", "1966320:b9c22dac582df7b7"},
           {"golden_21.cmp", "327720:a60b67d84e50222c"},
       }}}},
};
const std::map<LayoutKind, std::map<bool, Hashes>> kMerged = {
    {LayoutKind::kApax,
     {{false,
       Hashes{
           {"golden_16.cmp", "4522536:2667755a4c3f1d96"},
       }},
      {true,
       Hashes{
           {"golden_23.cmp", "6751032:f4efe4ac352fa755"},
       }}}},
    {LayoutKind::kAmax,
     {{false,
       Hashes{
           {"golden_16.cmp", "2097408:92d9869db3ccef8e"},
       }},
      {true,
       Hashes{
           {"golden_22.cmp", "2097408:45c2573684fc8d87"},
       }}}},
};

TEST_P(WritePathGoldenTest, ComponentFilesMatchGoldenHashes) {
  for (const bool auto_merge : {false, true}) {
    SCOPED_TRACE(auto_merge ? "tiered merges" : "flushes only");
    Hashes after_ingest, after_merge;
    Ingest(auto_merge, &after_ingest, &after_merge);
    EXPECT_GT(after_ingest.size(), 1u);
    EXPECT_EQ(after_merge.size(), 1u);
    EXPECT_EQ(after_ingest, kIngest.at(GetParam()).at(auto_merge))
        << "after the ingest:\n" << Describe(after_ingest);
    EXPECT_EQ(after_merge, kMerged.at(GetParam()).at(auto_merge))
        << "after MergeAll:\n" << Describe(after_merge);
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
