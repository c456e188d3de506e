// Point lookups (Snapshot::Lookup) checked against scan-and-seek on all
// four layouts. The oracle is a merged scan of the same snapshot that
// seeks to the key (LookupBatch over a fresh cursor): it reconciles every
// source, so whatever record, delete or miss it finds is by definition
// the right answer. Sources cover the active memtable, sealed memtables,
// and several components with overlapping key ranges, anti-matter and
// re-inserts; keys cover hits, misses inside and outside every leaf's
// fences, and the first and last record of every leaf.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/columnar/presence_index.h"
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

// Documents that hit every case of a columnar leaf's presence index:
// objects present with none of their known leaves (`"meta":{}` once other
// documents gave `meta` children, at two depths), null and missing
// objects, a union whose branch flips with the version (atomic, object,
// empty object, array), arrays holding nulls, nested arrays and arrays of
// objects, and columns only keys from `late_from` on have, so leaves
// written before a column appeared predate it.
Value MakePresenceDoc(int64_t id, int version, int64_t late_from, Rng* rng) {
  Value v = Value::MakeObject();
  v.Set("id", Value::Int(id));
  v.Set("version", Value::Int(version));
  switch (rng->Uniform(6)) {
    case 0: {
      Value meta = Value::MakeObject();
      meta.Set("level", Value::Int(static_cast<int64_t>(rng->Uniform(5))));
      Value x = Value::MakeObject();
      x.Set("y", Value::String(rng->Word(1, 6)));
      Value deep = Value::MakeObject();
      deep.Set("x", std::move(x));
      meta.Set("deep", std::move(deep));
      v.Set("meta", std::move(meta));
      break;
    }
    case 1:
      v.Set("meta", Value::MakeObject());
      break;
    case 2: {
      // meta.deep.x present with no leaf: the deepest witness case.
      Value deep = Value::MakeObject();
      deep.Set("x", Value::MakeObject());
      Value meta = Value::MakeObject();
      meta.Set("deep", std::move(deep));
      v.Set("meta", std::move(meta));
      break;
    }
    case 3:
      v.Set("meta", Value::Null());
      break;
    default:
      break;  // no meta
  }
  switch ((id + version) % 5) {
    case 0:
      v.Set("u", Value::Int(id));
      break;
    case 1:
      v.Set("u", Value::String("u" + std::to_string(version)));
      break;
    case 2: {
      Value u = Value::MakeObject();
      u.Set("k", Value::Int(version));
      v.Set("u", std::move(u));
      break;
    }
    case 3:
      v.Set("u", Value::MakeObject());
      break;
    default: {
      Value u = Value::MakeArray();
      u.Push(Value::Int(id));
      u.Push(Value::Null());
      v.Set("u", std::move(u));
      break;
    }
  }
  if (rng->Bernoulli(0.7)) {
    Value arr = Value::MakeArray();
    for (uint64_t i = 0; i < rng->Uniform(4); ++i) {
      arr.Push(rng->Bernoulli(0.3) ? Value::Null()
                                   : Value::Int(static_cast<int64_t>(i)));
    }
    v.Set("arr", std::move(arr));
  }
  if (rng->Bernoulli(0.6)) {
    Value nest = Value::MakeArray();
    for (uint64_t i = 0; i < rng->Uniform(3); ++i) {
      Value inner = Value::MakeArray();
      for (uint64_t j = 0; j < rng->Uniform(3); ++j) {
        inner.Push(rng->Bernoulli(0.2) ? Value::Null()
                                       : Value::Double(0.5 * j));
      }
      nest.Push(std::move(inner));
    }
    v.Set("nest", std::move(nest));
  }
  if (rng->Bernoulli(0.6)) {
    Value objs = Value::MakeArray();
    for (uint64_t i = 0; i < 1 + rng->Uniform(3); ++i) {
      switch (rng->Uniform(4)) {
        case 0: {
          Value o = Value::MakeObject();
          o.Set("k", Value::Int(static_cast<int64_t>(i)));
          Value m = Value::MakeArray();
          m.Push(Value::String("m"));
          o.Set("m", std::move(m));
          objs.Push(std::move(o));
          break;
        }
        case 1:
          objs.Push(Value::MakeObject());
          break;
        case 2:
          objs.Push(Value::Null());
          break;
        default: {
          Value o = Value::MakeObject();
          o.Set("k", Value::Null());
          o.Set("m", Value::MakeArray());
          objs.Push(std::move(o));
          break;
        }
      }
    }
    v.Set("objs", std::move(objs));
  }
  if (id >= late_from) {
    Value late = Value::MakeObject();
    if (rng->Bernoulli(0.5)) late.Set("z", Value::Int(id));
    v.Set("late", std::move(late));
  }
  return v;
}

// The round-trip repros of ROADMAP item 1, each at its own key. Lookups
// must equal scan-and-seek on them, whatever the store gives back.
const char* const kRoundTripRepros[] = {
    R"({"id":0,"entities":{"hashtags":[]},"x":1})",
    R"({"id":0,"entities":{"hashtags":["a"]}})",
    R"({"id":0,"a":[]})",
    R"({"id":0,"o":{}})",
    R"({"id":0,"a":[[]]})",
    R"({"id":0,"a":{"b":[{}]}})",
    R"({"id":0,"a":[1,"s",{"b":[]}]})",
    R"({"id":0,"a":null})",
};

std::vector<Projection> PresenceProjections() {
  return {Projection::All(),
          Projection::Of({{"meta"}}),
          Projection::Of({{"meta", "deep"}, {"version"}}),
          Projection::Of({{"meta", "level"}}),
          Projection::Of({{"u"}}),
          Projection::Of({{"objs"}, {"nest"}}),
          Projection::Of({{"late"}}),
          Projection::Of({{"a"}, {"o"}, {"entities"}})};
}

// Every lookup, full and projected, equals scan-and-seek on documents that
// hit every presence case, after flushes, a merge and a reopen.
TEST_P(LookupTest, PresenceCasesMatchScanAfterFlushMergeAndReopen) {
  constexpr int64_t kKeys = 900;
  constexpr int64_t kRepros = 1000;
  Rng rng(91);
  auto check = [&](Dataset* ds, const char* stage) {
    SCOPED_TRACE(stage);
    Snapshot::Ref snapshot = ds->GetSnapshot();
    for (const Projection& projection : PresenceProjections()) {
      for (int64_t key = -1; key < kKeys + 1; ++key) {
        ExpectLookupMatchesOracle(*snapshot, key, projection);
      }
      for (int64_t i = 0; i < std::ssize(kRoundTripRepros); ++i) {
        ExpectLookupMatchesOracle(*snapshot, kRepros + i, projection);
      }
    }
  };
  {
    auto ds = Dataset::Open(Options(), &cache_);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    for (int64_t key = 0; key < kKeys; key += 2) {
      ASSERT_TRUE((*ds)->Insert(MakePresenceDoc(key, 0, 600, &rng)).ok());
    }
    for (int64_t i = 0; i < std::ssize(kRoundTripRepros); ++i) {
      auto doc = ParseJson(kRoundTripRepros[i]);
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      doc->Set("id", Value::Int(kRepros + i));
      ASSERT_TRUE((*ds)->Insert(*doc).ok());
    }
    ASSERT_TRUE((*ds)->Flush().ok());
    // A second component: odd keys, rewrites whose union branch flips,
    // and deletes (anti-matter).
    for (int64_t key = 1; key < kKeys; key += 2) {
      ASSERT_TRUE((*ds)->Insert(MakePresenceDoc(key, 1, 600, &rng)).ok());
    }
    for (int64_t key = 0; key < kKeys; key += 7) {
      if (key % 3 == 0) {
        ASSERT_TRUE((*ds)->Delete(key).ok());
      } else {
        ASSERT_TRUE((*ds)->Insert(MakePresenceDoc(key, 2, 300, &rng)).ok());
      }
    }
    ASSERT_TRUE((*ds)->Flush().ok());
    ASSERT_EQ((*ds)->component_count(), 2u);
    check(ds->get(), "flushed");
    ASSERT_TRUE((*ds)->MergeAll().ok());
    ASSERT_EQ((*ds)->component_count(), 1u);
    check(ds->get(), "merged");
  }
  BufferCache cache(1024 * kPage, kPage);
  auto ds = Dataset::Open(Options(), &cache);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  check(ds->get(), "reopened");
}

// Each column's cells of every record in `leaf`, by column id (empty for a
// column the leaf does not hold), and the leaf's presence index.
struct LeafCells {
  std::vector<std::vector<ColumnRecord>> cells;
  Buffer presence;
};

void ReadLeafCells(const Component& component, size_t leaf,
                   LeafCells* out) {
  const Schema& schema = *component.schema();
  const size_t records = component.reader().leaves()[leaf].record_count;
  ColumnarLeaf columnar;
  ASSERT_TRUE(
      component.OpenColumnarLeaf(leaf, &columnar, CacheUse::kInstall).ok());
  PresenceIndexBuilder builder(schema, records);
  out->cells.assign(static_cast<size_t>(schema.column_count()), {});
  for (int c = 1; c < schema.column_count(); ++c) {
    CacheHandle unit;
    Slice chunk;
    ASSERT_TRUE(component.ColumnChunk(&columnar, c, &unit, &chunk).ok());
    if (chunk.empty()) continue;
    ASSERT_TRUE(builder.AddColumn(chunk, schema.column(c)).ok());
    ColumnChunkReader reader;
    ASSERT_TRUE(reader.Init(chunk, schema.column(c)).ok());
    auto& column = out->cells[static_cast<size_t>(c)];
    column.resize(records);
    for (ColumnRecord& cell : column) {
      ASSERT_TRUE(reader.NextRecord(&cell).ok());
    }
  }
  builder.Finish(&out->presence);
}

// The listing rule itself: for every record of every leaf, the record
// assembled from its listed columns alone equals the record assembled
// from every column, and some listed column holds only a missing cell
// (a witness: `"meta":{}` and `"meta":{"deep":{"x":{}}}` need one).
TEST_P(LookupTest, PresenceIndexListsEveryColumnThatShapesTheRecord) {
  if (GetParam() != LayoutKind::kApax && GetParam() != LayoutKind::kAmax) {
    GTEST_SKIP() << "row leaves have no columns";
  }
  auto ds = Dataset::Open(Options(), &cache_);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Rng rng(12);
  for (int64_t key = 0; key < 900; ++key) {
    if (key % 11 == 4) {
      ASSERT_TRUE((*ds)->Delete(key).ok());
    } else {
      ASSERT_TRUE((*ds)->Insert(MakePresenceDoc(key, 0, 500, &rng)).ok());
    }
  }
  ASSERT_TRUE((*ds)->Flush().ok());
  Snapshot::Ref snapshot = (*ds)->GetSnapshot();
  const Component& component = snapshot->component(0);
  const Schema& schema = *component.schema();
  const size_t width = static_cast<size_t>(schema.column_count());
  ASSERT_GT(component.reader().leaves().size(), 2u);
  size_t witnesses = 0, listed_total = 0, records_total = 0;
  for (size_t leaf = 0; leaf < component.reader().leaves().size(); ++leaf) {
    LeafCells leaf_cells;
    ReadLeafCells(component, leaf, &leaf_cells);
    if (HasFatalFailure()) return;
    const size_t records = component.reader().leaves()[leaf].record_count;
    const PresenceIndex index(leaf_cells.presence.slice(), records);
    ColumnRecord pk;
    pk.root.kind = ShredCell::Kind::kLeaf;
    pk.root.def = 1;
    pk.root.value_index = 0;
    pk.values.push_back(Value::Int(0));
    std::vector<int> listed;
    for (size_t r = 0; r < records; ++r) {
      std::vector<const ColumnRecord*> all(width), only_listed(width);
      all[0] = only_listed[0] = &pk;
      for (size_t c = 1; c < width; ++c) {
        if (!leaf_cells.cells[c].empty()) all[c] = &leaf_cells.cells[c][r];
      }
      index.Columns(r, &listed);
      for (const int c : listed) {
        const ColumnRecord* cell = all[static_cast<size_t>(c)];
        ASSERT_NE(cell, nullptr) << "listed column " << c << " not in leaf";
        only_listed[static_cast<size_t>(c)] = cell;
        if (cell->root.kind == ShredCell::Kind::kMissing) ++witnesses;
      }
      listed_total += listed.size();
      ++records_total;
      AssemblyScratch scratch;
      Value expected, got;
      ASSERT_TRUE(
          component.record_plan().Assemble(all, &scratch, &expected).ok());
      ASSERT_TRUE(
          component.record_plan().Assemble(only_listed, &scratch, &got).ok());
      EXPECT_EQ(ToJson(got), ToJson(expected))
          << "leaf " << leaf << " record " << r;
    }
  }
  EXPECT_GT(witnesses, 0u);
  // The listing costs the records' width, not the schema's.
  EXPECT_LT(listed_total, records_total * (width - 1) / 2);
}

// Cache units one Snapshot::Lookup fetches (hits + misses).
uint64_t UnitsFetched(const Snapshot& snapshot, BufferCache* cache,
                      int64_t key, const Projection& projection) {
  const CacheStats before = cache->stats();
  Value out;
  (void)snapshot.Lookup(key, projection, &out);
  const CacheStats after = cache->stats();
  return (after.hits + after.misses) - (before.hits + before.misses);
}

// A warm full-record lookup fetches the leaf's head and the columns the
// presence index lists for the record; misses and projected lookups fetch
// no unit of a column they do not project, and never build the index.
TEST_P(LookupTest, LookupsFetchOnlyTheUnitsTheyRead) {
  if (GetParam() != LayoutKind::kApax && GetParam() != LayoutKind::kAmax) {
    GTEST_SKIP() << "row leaves are one unit";
  }
  constexpr int64_t kKeys = 3000;
  {
    auto ds = Dataset::Open(Options(), &cache_);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    Rng rng(3);
    for (int64_t key = 0; key < kKeys; key += 2) {
      // tweet_2's shape: a few of many sparse fields per record.
      Value doc = MakePresenceDoc(key, 0, 700, &rng);
      Value extended = Value::MakeObject();
      for (int i = 0; i < 4; ++i) {
        extended.Set("ext_" + std::to_string(rng.Uniform(150)),
                     Value::Int(key));
      }
      doc.Set("extended", std::move(extended));
      ASSERT_TRUE((*ds)->Insert(doc).ok());
    }
    ASSERT_TRUE((*ds)->Flush().ok());
  }
  BufferCache cache(1024 * kPage, kPage);
  auto ds = Dataset::Open(Options(), &cache);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Snapshot::Ref snapshot = (*ds)->GetSnapshot();
  ASSERT_EQ(snapshot->component_count(), 1u);
  const Component& component = snapshot->component(0);
  const auto& leaves = component.reader().leaves();
  ASSERT_GT(leaves.size(), 2u);
  const auto width = static_cast<uint64_t>(component.schema()->column_count());

  // On a cold cache: misses read only heads, projected hits only heads
  // and projected columns, in every leaf.
  const Projection narrow = Projection::Of({{"meta", "level"}, {"u"}});
  const std::vector<bool> projected = component.ProjectedColumns(narrow);
  const auto narrow_columns = static_cast<uint64_t>(
      std::count(projected.begin() + 1, projected.end(), true));
  ASSERT_GT(narrow_columns, 0u);
  for (int64_t key = 1; key < kKeys; key += 2) {
    EXPECT_LE(UnitsFetched(*snapshot, &cache, key, Projection::All()), 1u)
        << "miss " << key;
  }
  for (int64_t key = 0; key < kKeys; key += 2) {
    EXPECT_LE(UnitsFetched(*snapshot, &cache, key, narrow),
              1 + narrow_columns)
        << "projected hit " << key;
  }
  EXPECT_LE(cache.stats().misses, leaves.size() * (1 + narrow_columns));

  for (size_t leaf = 0; leaf < leaves.size(); ++leaf) {
    LeafCells leaf_cells;
    ReadLeafCells(component, leaf, &leaf_cells);
    if (HasFatalFailure()) return;
    const PresenceIndex index(leaf_cells.presence.slice(),
                              leaves[leaf].record_count);
    // The first full-record hit builds the leaf's index; the later ones
    // are warm.
    (void)UnitsFetched(*snapshot, &cache, leaves[leaf].min_key,
                       Projection::All());
    std::vector<int> listed;
    for (size_t r = 0; r < leaves[leaf].record_count; r += 7) {
      index.Columns(r, &listed);
      const int64_t key = leaves[leaf].min_key + 2 * static_cast<int64_t>(r);
      const uint64_t units =
          UnitsFetched(*snapshot, &cache, key, Projection::All());
      EXPECT_LE(units, 1 + listed.size()) << "key " << key;
      EXPECT_LT(units, width / 2) << "key " << key;
    }
  }
}

// Threads race the first full-record lookups of fresh leaves, so the
// presence index builds race and one result is kept; every answer equals
// scan-and-seek.
TEST_P(LookupTest, ConcurrentFirstFullLookupsOfAFreshLeaf) {
  constexpr int kThreads = 4;
  {
    auto ds = Dataset::Open(Options(), &cache_);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    Rng rng(44);
    for (int64_t key = 0; key < 900; ++key) {
      ASSERT_TRUE((*ds)->Insert(MakePresenceDoc(key, 0, 450, &rng)).ok());
    }
    ASSERT_TRUE((*ds)->Flush().ok());
  }
  for (int round = 0; round < 3; ++round) {
    BufferCache cache(1024 * kPage, kPage);
    auto ds = Dataset::Open(Options(), &cache);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    Snapshot::Ref snapshot = (*ds)->GetSnapshot();
    const auto& leaves = snapshot->component(0).reader().leaves();
    const LeafEntry& leaf = leaves[static_cast<size_t>(round) % leaves.size()];
    // The oracle scans with cursors, which build no presence index.
    std::vector<int64_t> keys;
    std::vector<std::string> expected;
    for (int64_t key = leaf.min_key; key <= leaf.max_key; ++key) {
      const std::optional<Value> found =
          ScanAndSeek(*snapshot, key, Projection::All());
      ASSERT_TRUE(found.has_value()) << key;
      keys.push_back(key);
      expected.push_back(ToJson(*found));
    }
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    std::vector<int> mismatches(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        // Each thread starts at its own record, then walks the leaf.
        for (size_t i = 0; i < keys.size(); ++i) {
          const size_t k = (i + static_cast<size_t>(t) * 13) % keys.size();
          Value got;
          Status st = snapshot->Lookup(keys[k], &got);
          if (!st.ok() || ToJson(got) != expected[k]) ++mismatches[t];
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[t], 0) << "round " << round << " thread " << t;
    }
  }
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
