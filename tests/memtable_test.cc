// Unit tests for the persistent memtable (src/lsm/memtable.h): a
// differential test against a std::map model over seeded random upserts
// and deletes (ascending and random keys, enough of them to split many
// leaves), frozen copies from Share() checked against the model as it
// stood at share time, a threaded writer-and-readers case, and the
// once-per-key entry overhead.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/lsm/memtable.h"

namespace lsmcol {
namespace {

/// key -> row, nullopt for a tombstone.
using Model = std::map<int64_t, std::optional<std::string>>;

size_t ModelBytes(const Model& model) {
  size_t bytes = 0;
  for (const auto& [key, row] : model) {
    bytes += MemTable::kEntryOverhead + (row.has_value() ? row->size() : 0);
  }
  return bytes;
}

void ExpectEntry(const MemTable::Entry* entry,
                 const std::optional<std::string>& row, int64_t key) {
  ASSERT_NE(entry, nullptr) << "key " << key;
  EXPECT_EQ(entry->anti_matter, !row.has_value()) << "key " << key;
  EXPECT_EQ(entry->row, row.value_or("")) << "key " << key;
}

/// A key to probe: one of the model's, a neighbour of one, or any.
int64_t ProbeKey(const Model& model, int64_t key_space, Rng* rng) {
  if (!model.empty() && rng->Bernoulli(0.5)) {
    auto it = model.begin();
    std::advance(it, static_cast<long>(rng->Uniform(model.size())));
    return it->first + rng->UniformRange(-1, 1);
  }
  return rng->UniformRange(-2, key_space + 2);
}

/// Compares `table` with `model` on every read the table offers.
void ExpectMatches(const MemTable& table, const Model& model,
                   int64_t key_space, Rng* rng) {
  ASSERT_EQ(table.record_count(), model.size());
  ASSERT_EQ(table.empty(), model.empty());
  ASSERT_EQ(table.approximate_bytes(), ModelBytes(model));

  // Plain comparisons in the loop: it runs after every operation.
  auto it = table.begin();
  for (const auto& [key, row] : model) {
    ASSERT_NE(it, table.end()) << "table ends before key " << key;
    if (it.key() != key || it.entry().anti_matter != !row.has_value() ||
        it.entry().row != row.value_or("")) {
      ASSERT_EQ(it.key(), key);
      ExpectEntry(&it.entry(), row, key);
    }
    ++it;
  }
  ASSERT_EQ(it, table.end());

  if (!model.empty()) {
    EXPECT_EQ(table.first_key(), model.begin()->first);
    EXPECT_EQ(table.last_key(), model.rbegin()->first);
  }
  for (int i = 0; i < 8; ++i) {
    const int64_t key = ProbeKey(model, key_space, rng);
    auto expected = model.find(key);
    if (expected == model.end()) {
      EXPECT_EQ(table.Find(key), nullptr) << "key " << key;
    } else {
      ExpectEntry(table.Find(key), expected->second, key);
    }
    auto lower = table.lower_bound(key);
    auto expected_lower = model.lower_bound(key);
    if (expected_lower == model.end()) {
      EXPECT_EQ(lower, table.end()) << "lower_bound " << key;
    } else {
      ASSERT_NE(lower, table.end()) << "lower_bound " << key;
      EXPECT_EQ(lower.key(), expected_lower->first) << "lower_bound " << key;
    }
  }
}

enum class KeyOrder { kAscending, kRandom };

/// Seeded upserts and deletes, checked against the model after each
/// operation; Share() at random points, each copy checked again at the
/// end against the model as it stood when it was taken.
void RunDifferential(KeyOrder order, uint64_t seed) {
  constexpr int kOps = 5000;
  constexpr int64_t kKeySpace = 3000;
  Rng rng(seed);
  MemTable table;
  Model model;
  std::vector<std::pair<MemTable, Model>> shared;
  int64_t next_ascending = 0;
  for (int op = 0; op < kOps; ++op) {
    int64_t key;
    if (order == KeyOrder::kAscending && rng.Bernoulli(0.8)) {
      key = next_ascending++;
    } else {
      key = rng.UniformRange(0, kKeySpace - 1);
    }
    if (rng.Bernoulli(0.2)) {
      table.Delete(key);
      model[key] = std::nullopt;
    } else {
      std::string row = rng.Word(0, 24);
      table.Upsert(key, row);
      model[key] = std::move(row);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(table, model, kKeySpace, &rng))
        << "after op " << op;
    if (rng.Bernoulli(0.01)) shared.emplace_back(table.Share(), model);
  }
  ASSERT_GT(shared.size(), 10u);
  ASSERT_GT(table.record_count(), 20 * MemTable::kLeafCapacity);
  for (const auto& [copy, at_share] : shared) {
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(copy, at_share, kKeySpace, &rng));
  }
}

TEST(MemTableTest, MatchesMapModelWithAscendingKeys) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    RunDifferential(KeyOrder::kAscending, seed);
  }
}

TEST(MemTableTest, MatchesMapModelWithRandomKeys) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    RunDifferential(KeyOrder::kRandom, seed);
  }
}

TEST(MemTableTest, ExtremeKeys) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  MemTable table;
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_EQ(table.lower_bound(kMin), table.end());
  EXPECT_EQ(table.begin(), table.end());
  Model model;
  Rng rng(5);
  for (int64_t i = 0; i < 300; ++i) {
    for (int64_t key : {kMin + i, kMax - i, i - 150}) {
      table.Upsert(key, std::to_string(key));
      model[key] = std::to_string(key);
    }
  }
  ExpectMatches(table, model, 0, &rng);
  EXPECT_EQ(table.lower_bound(kMin).key(), kMin);
  EXPECT_EQ(table.lower_bound(kMax).key(), kMax);
  EXPECT_EQ(table.lower_bound(-150 + 300), table.lower_bound(kMax - 299));
}

TEST(MemTableTest, EntryOverheadCountsOncePerKey) {
  const std::string row(100, 'x');
  MemTable table;
  table.Delete(7);
  EXPECT_EQ(table.approximate_bytes(), MemTable::kEntryOverhead);
  table.Upsert(7, row);
  EXPECT_EQ(table.approximate_bytes(), row.size() + MemTable::kEntryOverhead);
  table.Delete(7);
  table.Delete(7);
  EXPECT_EQ(table.approximate_bytes(), MemTable::kEntryOverhead);
  table.Upsert(7, row);
  table.Upsert(7, "yz");
  EXPECT_EQ(table.approximate_bytes(), 2 + MemTable::kEntryOverhead);
  EXPECT_EQ(table.record_count(), 1u);
}

TEST(MemTableTest, ShareFreezesTheCopyAndMovesLeaveTablesEmpty) {
  MemTable table;
  for (int64_t key = 0; key < 200; ++key) table.Upsert(key, "a");
  const MemTable frozen = table.Share();
  const MemTable::Entry* before = frozen.Find(100);
  table.Upsert(100, "b");
  table.Delete(5);
  table.Upsert(1000, "c");
  EXPECT_EQ(frozen.Find(100), before);
  EXPECT_EQ(frozen.Find(100)->row, "a");
  EXPECT_FALSE(frozen.Find(5)->anti_matter);
  EXPECT_EQ(frozen.Find(1000), nullptr);
  EXPECT_EQ(frozen.record_count(), 200u);
  EXPECT_EQ(table.Find(100)->row, "b");
  EXPECT_TRUE(table.Find(5)->anti_matter);
  EXPECT_EQ(table.record_count(), 201u);

  MemTable moved = std::move(table);
  EXPECT_EQ(moved.record_count(), 201u);
  EXPECT_TRUE(table.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(table.approximate_bytes(), 0u);
  EXPECT_EQ(table.begin(), table.end());
}

/// Order-sensitive digest of a table's or a model's contents.
uint64_t Mix(uint64_t h, int64_t key, bool anti_matter,
             const std::string& row) {
  h = (h ^ static_cast<uint64_t>(key)) * 0x100000001b3ULL;
  h = (h ^ (anti_matter ? 1u : 0u)) * 0x100000001b3ULL;
  for (char c : row) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return h;
}

uint64_t Digest(const Model& model) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [key, row] : model) {
    h = Mix(h, key, !row.has_value(), row.value_or(""));
  }
  return h;
}

uint64_t Digest(const MemTable& table) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [key, entry] : table) {
    h = Mix(h, key, entry.anti_matter, entry.row);
  }
  return h;
}

// One writer changes the table and shares it under a mutex; readers take
// the latest copy under the mutex and read it without one while the
// writer goes on. Each copy must stay what the writer shared.
TEST(MemTableTest, ReadersOfSharedCopiesBesideOneWriter) {
  struct Published {
    std::shared_ptr<const MemTable> table;
    uint64_t digest;
    size_t count;
  };
  std::mutex mu;
  MemTable table;
  Published published{std::make_shared<const MemTable>(table.Share()),
                      Digest(Model()), 0};
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(r) + 100);
      while (!done.load(std::memory_order_acquire)) {
        Published view;
        {
          std::lock_guard<std::mutex> lock(mu);
          view = published;
        }
        if (Digest(*view.table) != view.digest ||
            view.table->record_count() != view.count) {
          mismatches.fetch_add(1);
        }
        for (int i = 0; i < 16; ++i) {
          const int64_t key = rng.UniformRange(0, 1999);
          const MemTable::Entry* entry = view.table->Find(key);
          auto lower = view.table->lower_bound(key);
          if ((entry != nullptr) != (lower != view.table->end() &&
                                     lower.key() == key) ||
              (entry != nullptr && entry != &lower.entry())) {
            mismatches.fetch_add(1);
          }
        }
        reads.fetch_add(1);
      }
    });
  }

  Rng rng(42);
  Model model;
  for (int op = 0; op < 20000; ++op) {
    const int64_t key = rng.UniformRange(0, 1999);
    std::lock_guard<std::mutex> lock(mu);
    if (rng.Bernoulli(0.2)) {
      table.Delete(key);
      model[key] = std::nullopt;
    } else {
      std::string row = rng.Word(1, 16);
      table.Upsert(key, row);
      model[key] = std::move(row);
    }
    if (op % 25 == 0) {
      published = Published{std::make_shared<const MemTable>(table.Share()),
                            Digest(model), model.size()};
    }
  }
  // Let the readers see the last copy before they stop.
  while (reads.load() < 30) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(Digest(table), Digest(model));
}

}  // namespace
}  // namespace lsmcol
