// Point lookups (Snapshot::Lookup) checked against scan-and-seek on all
// four layouts. The oracle is a merged scan of the same snapshot that
// seeks to the key (LookupBatch over a fresh cursor): it reconciles every
// source, so whatever record, delete or miss it finds is by definition
// the right answer. Sources cover the active memtable, sealed memtables,
// and several components with overlapping key ranges, anti-matter and
// re-inserts; keys cover hits, misses inside and outside every leaf's
// fences, and the first and last record of every leaf.

#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/json/parser.h"
#include "src/lsm/dataset.h"
#include "src/lsm/scheduler.h"
#include "src/storage/file.h"

namespace lsmcol {
namespace {

constexpr size_t kPage = 8192;  // small pages: many leaves

// Scan-and-seek: the newest version of `key` as a merged scan of every
// source sees it. nullopt when the key is absent or deleted.
std::optional<Value> ScanAndSeek(const Snapshot& snapshot, int64_t key,
                                 const Projection& projection) {
  auto batch = snapshot.NewLookupBatch(projection);
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  if (!batch.ok()) return std::nullopt;
  bool found = false;
  Value out;
  Status st = (*batch)->Find(key, &found, &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (!found) return std::nullopt;
  return out;
}

// Lookup must return what scan-and-seek returns, hit or miss.
void ExpectLookupMatchesOracle(const Snapshot& snapshot, int64_t key,
                               const Projection& projection) {
  const std::optional<Value> expected =
      ScanAndSeek(snapshot, key, projection);
  Value got;
  Status st = snapshot.Lookup(key, projection, &got);
  if (!expected.has_value()) {
    EXPECT_TRUE(st.IsNotFound()) << "key " << key << ": " << st.ToString()
                                 << " " << ToJson(got);
    return;
  }
  ASSERT_TRUE(st.ok()) << "key " << key << ": " << st.ToString();
  EXPECT_EQ(ToJson(got), ToJson(*expected)) << "key " << key;
}

// Heterogeneous documents: nested objects, arrays of scalars, arrays of
// objects with nested arrays, a union-typed field, empty strings, and
// fields that come and go between versions.
Value MakeDoc(int64_t id, int version, Rng* rng) {
  Value v = Value::MakeObject();
  v.Set("id", Value::Int(id));
  v.Set("name", Value::String(rng->Word(0, 12)));
  v.Set("version", Value::Int(version));
  if (rng->Bernoulli(0.7)) v.Set("score", Value::Double(id * 0.25));
  if (rng->Bernoulli(0.5)) v.Set("active", Value::Bool(id % 3 == 0));
  Value meta = Value::MakeObject();
  meta.Set("level", Value::Int(static_cast<int64_t>(rng->Uniform(5))));
  if (rng->Bernoulli(0.3)) meta.Set("note", Value::String(""));
  v.Set("meta", std::move(meta));
  Value tags = Value::MakeArray();
  for (uint64_t t = 0; t < rng->Uniform(4); ++t) {
    tags.Push(Value::String("tag" + std::to_string(rng->Uniform(10))));
  }
  v.Set("tags", std::move(tags));
  if (rng->Bernoulli(0.6)) {
    Value games = Value::MakeArray();
    for (uint64_t g = 0; g < 1 + rng->Uniform(2); ++g) {
      Value game = Value::MakeObject();
      game.Set("title", Value::String("t" + std::to_string(rng->Uniform(7))));
      Value consoles = Value::MakeArray();
      for (uint64_t c = 0; c < rng->Uniform(3); ++c) {
        consoles.Push(Value::Int(static_cast<int64_t>(rng->Uniform(4))));
      }
      game.Set("consoles", std::move(consoles));
      games.Push(std::move(game));
    }
    v.Set("games", std::move(games));
  }
  switch (rng->Uniform(3)) {
    case 0:
      v.Set("u", Value::Int(id));
      break;
    case 1:
      v.Set("u", Value::String("u" + std::to_string(id)));
      break;
    default:
      break;
  }
  return v;
}

std::vector<Projection> Projections() {
  return {Projection::All(),
          Projection::Of({{"name"}, {"meta", "level"}, {"games"}}),
          Projection::Of({{"nope"}})};
}

class LookupTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/lookup_" +
           std::string(LayoutKindName(GetParam())) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
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
    options.amax_max_records = 300;    // several leaves per component
    options.auto_merge = false;        // components stay separate
    return options;
  }

  // Every key in [lo, hi) plus a few past each end, every projection.
  void ExpectRangeMatches(const Snapshot& snapshot, int64_t lo, int64_t hi) {
    for (const Projection& projection : Projections()) {
      for (int64_t key = lo - 3; key < hi + 3; ++key) {
        ExpectLookupMatchesOracle(snapshot, key, projection);
      }
    }
  }

  std::string dir_;
  BufferCache cache_{1024 * kPage, kPage};
};

TEST_P(LookupTest, RandomKeysAcrossMemtablesAndComponents) {
  FlushMergeScheduler scheduler(1);
  DatasetOptions options = Options();
  options.scheduler = &scheduler;
  options.memtable_bytes = 48 * 1024;
  options.max_immutable_memtables = 8;
  auto ds = Dataset::Open(options, &cache_);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Rng rng(17);
  // Components over overlapping key ranges: each round rewrites or
  // deletes part of the ones before.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 500; ++i) {
      const auto key = static_cast<int64_t>(rng.Uniform(1000)) + 200 * round;
      if (round > 0 && rng.Bernoulli(0.15)) {
        ASSERT_TRUE((*ds)->Delete(key).ok());
      } else {
        ASSERT_TRUE((*ds)->Insert(MakeDoc(key, round, &rng)).ok());
      }
    }
    ASSERT_TRUE((*ds)->Flush().ok());
  }
  ASSERT_TRUE((*ds)->WaitForBackgroundWork().ok());
  ASSERT_GE((*ds)->component_count(), 3u);

  // A blocked worker keeps rotated memtables sealed; the last writes stay
  // in the active one.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  scheduler.Schedule(nullptr, [opened] { opened.wait(); });
  int version = 3;
  while ((*ds)->immutable_memtable_count() < 1) {
    const auto key = static_cast<int64_t>(rng.Uniform(1600));
    ASSERT_TRUE((*ds)->Insert(MakeDoc(key, version++, &rng)).ok());
  }
  for (int i = 0; i < 40; ++i) {
    const auto key = static_cast<int64_t>(rng.Uniform(1600));
    if (rng.Bernoulli(0.2)) {
      ASSERT_TRUE((*ds)->Delete(key).ok());
    } else {
      ASSERT_TRUE((*ds)->Insert(MakeDoc(key, version++, &rng)).ok());
    }
  }
  {
    Snapshot::Ref snapshot = (*ds)->GetSnapshot();
    ASSERT_GE(snapshot->immutable_memtable_count(), 1u);
    for (int i = 0; i < 600; ++i) {
      const auto key = static_cast<int64_t>(rng.Uniform(1700)) - 50;
      for (const Projection& projection : Projections()) {
        ExpectLookupMatchesOracle(*snapshot, key, projection);
      }
    }
  }
  gate.set_value();
  ASSERT_TRUE((*ds)->WaitForBackgroundWork().ok());
  ExpectRangeMatches(*(*ds)->GetSnapshot(), 0, 1600);
  ds->reset();
  scheduler.Stop();
}

TEST_P(LookupTest, AntiMatterShadowsAndReinsertWins) {
  auto ds = Dataset::Open(Options(), &cache_);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Rng rng(5);
  for (int64_t key = 0; key < 400; ++key) {
    ASSERT_TRUE((*ds)->Insert(MakeDoc(key, 0, &rng)).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());
  // Deletes only: a component of anti-matter shadowing the records.
  for (int64_t key = 0; key < 400; key += 3) {
    ASSERT_TRUE((*ds)->Delete(key).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());
  // Re-insert some deleted keys into a third component.
  for (int64_t key = 0; key < 400; key += 9) {
    ASSERT_TRUE((*ds)->Insert(MakeDoc(key, 2, &rng)).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());
  ASSERT_EQ((*ds)->component_count(), 3u);
  Snapshot::Ref snapshot = (*ds)->GetSnapshot();
  Value out;
  EXPECT_TRUE(snapshot->Lookup(3, &out).IsNotFound());
  ASSERT_TRUE(snapshot->Lookup(9, &out).ok());
  EXPECT_EQ(out.Get("version").int_value(), 2);
  ASSERT_TRUE(snapshot->Lookup(1, &out).ok());
  EXPECT_EQ(out.Get("version").int_value(), 0);
  ExpectRangeMatches(*snapshot, 0, 400);
}

TEST_P(LookupTest, KeysOutsideEveryFence) {
  auto ds = Dataset::Open(Options(), &cache_);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Rng rng(8);
  // Even keys only, with a hole: odd keys fall inside leaf fences, the
  // hole between leaves, and both ends outside every fence.
  for (int64_t key = 1000; key < 3000; key += 2) {
    if (key >= 1800 && key < 2200) continue;
    ASSERT_TRUE((*ds)->Insert(MakeDoc(key, 0, &rng)).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());
  Snapshot::Ref snapshot = (*ds)->GetSnapshot();
  Value out;
  for (int64_t key : {INT64_MIN, int64_t{-1}, int64_t{0}, int64_t{999},
                      int64_t{1001}, int64_t{2000}, int64_t{2999},
                      int64_t{3000}, INT64_MAX}) {
    EXPECT_TRUE(snapshot->Lookup(key, &out).IsNotFound()) << key;
    ExpectLookupMatchesOracle(*snapshot, key, Projection::All());
  }
  ExpectRangeMatches(*snapshot, 1700, 2300);
}

TEST_P(LookupTest, FirstAndLastRecordOfEveryLeaf) {
  auto ds = Dataset::Open(Options(), &cache_);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Rng rng(21);
  for (int round = 0; round < 2; ++round) {
    for (int64_t key = round; key < 2000; key += 1 + round) {
      ASSERT_TRUE((*ds)->Insert(MakeDoc(key, round, &rng)).ok());
    }
    ASSERT_TRUE((*ds)->Flush().ok());
  }
  Snapshot::Ref snapshot = (*ds)->GetSnapshot();
  size_t leaves = 0;
  for (size_t c = 0; c < snapshot->component_count(); ++c) {
    for (const auto& leaf : snapshot->component(c).reader().leaves()) {
      ++leaves;
      for (const Projection& projection : Projections()) {
        for (int64_t key : {leaf.min_key, leaf.max_key, leaf.min_key - 1,
                            leaf.max_key + 1}) {
          ExpectLookupMatchesOracle(*snapshot, key, projection);
        }
      }
    }
  }
  EXPECT_GT(leaves, 4u);
}

TEST_P(LookupTest, EveryRecordOfAMultiLeafComponent) {
  auto ds = Dataset::Open(Options(), &cache_);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Rng rng(34);
  for (int64_t key = 0; key < 1000; ++key) {
    ASSERT_TRUE((*ds)->Insert(MakeDoc(key * 3, 0, &rng)).ok());
  }
  ASSERT_TRUE((*ds)->Flush().ok());
  Snapshot::Ref snapshot = (*ds)->GetSnapshot();
  ASSERT_EQ(snapshot->component_count(), 1u);
  ASSERT_GT(snapshot->component(0).reader().leaves().size(), 2u);
  ExpectRangeMatches(*snapshot, 0, 3000);
}

TEST_P(LookupTest, AfterReopenWithWalReplay) {
  DatasetOptions options = Options();
  options.wal.enabled = true;
  options.wal.group_commit = false;
  Rng rng(55);
  {
    auto ds = Dataset::Open(options, &cache_);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    for (int64_t key = 0; key < 600; ++key) {
      ASSERT_TRUE((*ds)->Insert(MakeDoc(key, 0, &rng)).ok());
    }
    ASSERT_TRUE((*ds)->Flush().ok());
    // Logged only: these come back by WAL replay.
    for (int64_t key = 0; key < 600; key += 5) {
      if (key % 2 == 0) {
        ASSERT_TRUE((*ds)->Delete(key).ok());
      } else {
        ASSERT_TRUE((*ds)->Insert(MakeDoc(key, 1, &rng)).ok());
      }
    }
  }
  auto ds = Dataset::Open(options, &cache_);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Snapshot::Ref snapshot = (*ds)->GetSnapshot();
  Value out;
  EXPECT_TRUE(snapshot->Lookup(10, &out).IsNotFound());
  ASSERT_TRUE(snapshot->Lookup(5, &out).ok());
  EXPECT_EQ(out.Get("version").int_value(), 1);
  ExpectRangeMatches(*snapshot, 0, 600);
}

// Overwrites payload bytes [offset, offset + size) of `leaf` in the
// component file at `path` with 0xFF and re-seals every page, so the
// damage passes the page checksums and only a decoder can see it.
void DamageLeafBytes(const std::string& path, const LeafEntry& leaf,
                     uint64_t offset, uint64_t size) {
  auto in = PageFile::Open(path, kPage);
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  const std::string damaged = path + ".damaged";
  auto out = PageFile::Create(damaged, kPage);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  Buffer page;
  for (uint64_t p = 0; p < (*in)->page_count(); ++p) {
    ASSERT_TRUE((*in)->ReadPage(p, &page).ok());
    for (uint64_t b = 0; b < kPage; ++b) {
      const uint64_t at = p * kPage + b;
      const uint64_t begin = leaf.first_page * kPage + offset;
      if (at >= begin && at < begin + size) page.mutable_data()[b] = '\xff';
    }
    ASSERT_TRUE((*out)->WritePage(p, page.slice()).ok());
  }
  ASSERT_TRUE((*out)->Sync().ok());
  out->reset();
  in->reset();
  std::filesystem::rename(damaged, path);
}

// A column a lookup does not project is never read: damage in it fails
// only the lookups that ask for it, as it fails only the scans that do.
TEST_P(LookupTest, DamagedUnprojectedColumnFailsOnlyLookupsOfIt) {
  if (GetParam() != LayoutKind::kApax && GetParam() != LayoutKind::kAmax) {
    GTEST_SKIP() << "row leaves have no columns";
  }
  DatasetOptions options = Options();
  options.compress = false;  // damage lands in the chunk bytes themselves
  Rng rng(77);
  std::string path;
  LeafEntry leaf;
  uint64_t offset = 0, size = 0;
  {
    auto ds = Dataset::Open(options, &cache_);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    for (int64_t key = 0; key < 600; ++key) {
      ASSERT_TRUE((*ds)->Insert(MakeDoc(key, 0, &rng)).ok());
    }
    ASSERT_TRUE((*ds)->Flush().ok());
    Snapshot::Ref snapshot = (*ds)->GetSnapshot();
    ASSERT_EQ(snapshot->component_count(), 1u);
    const Component& component = snapshot->component(0);
    ASSERT_GT(component.reader().leaves().size(), 1u);
    path = component.path();
    leaf = component.reader().leaves()[0];
    const int name = component.schema()->ResolvePath({"name"})->column_id();
    Buffer payload;
    ASSERT_TRUE(component.reader().ReadLeaf(0, &payload).ok());
    if (GetParam() == LayoutKind::kApax) {
      ApaxLeaf apax;
      ASSERT_TRUE(apax.Open(payload.slice(), false).ok());
      offset = static_cast<uint64_t>(apax.chunk(name).data() - payload.data());
      size = apax.chunk(name).size();
    } else {
      AmaxPageZero page0;
      ASSERT_TRUE(page0.Init(payload.slice().SubSlice(
          0, std::min<size_t>(payload.size(), kPage))).ok());
      offset = page0.extent(name).offset;
      size = page0.extent(name).size;
    }
    ASSERT_GT(size, 16u);
  }
  DamageLeafBytes(path, leaf, offset, size);

  BufferCache cache(1024 * kPage, kPage);
  auto ds = Dataset::Open(options, &cache);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Snapshot::Ref snapshot = (*ds)->GetSnapshot();
  const Projection without_name =
      Projection::Of({{"meta", "level"}, {"games"}, {"tags"}, {"u"}});
  for (int64_t key = -2; key < 602; ++key) {
    ExpectLookupMatchesOracle(*snapshot, key, without_name);
  }
  Value out;
  Status st = snapshot->Lookup(leaf.min_key, Projection::Of({{"name"}}), &out);
  EXPECT_TRUE(st.IsDataDamage()) << st.ToString();
  EXPECT_TRUE(snapshot->component(0).quarantined());
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, LookupTest,
                         ::testing::Values(LayoutKind::kOpen,
                                           LayoutKind::kVb,
                                           LayoutKind::kApax,
                                           LayoutKind::kAmax),
                         [](const testing::TestParamInfo<LayoutKind>& info) {
                           return std::string(LayoutKindName(info.param));
                         });

}  // namespace
}  // namespace lsmcol
