// MemTable: the LSM in-memory component. Stores row-encoded records
// (VB bytes for APAX/AMAX datasets, §4.5; the dataset's own row format for
// Open/VB datasets) ordered by primary key. Deletes are tombstones that
// become anti-matter entries at flush (§2.1.1); inserts with an existing
// key replace in place (upsert semantics at the component level).
//
// The table is persistent, two levels deep: a root is a sorted vector of
// leaves, a leaf a sorted vector of at most kLeafCapacity (key, entry)
// items, and each entry (with its row) is held by pointer. Share() returns
// a copy that shares the root, so a snapshot of the active memtable costs
// O(1). Every node records the write epoch it was created in, and Share()
// starts a new epoch: a write changes a node in place only if it is from
// the current epoch, and copies it first otherwise (the root is one
// pointer per leaf, a leaf at most kLeafCapacity entry pointers; no row is
// copied). Nothing reachable from a shared copy ever changes again, so
// readers of a shared copy need no lock. Writes and Share() on one table
// need the caller's exclusion (Dataset::mu_).

#ifndef LSMCOL_LSM_MEMTABLE_H_
#define LSMCOL_LSM_MEMTABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace lsmcol {

class MemTable {
 public:
  struct Entry {
    bool anti_matter = false;
    std::string row;  // empty for anti-matter
  };

  /// Bytes charged once per key on top of its row. Rotation points, and
  /// so component files, depend on this figure, not on the table's shape.
  static constexpr size_t kEntryOverhead = 48;
  /// Items per leaf; a leaf splits in half past this (an append past the
  /// last key starts a new leaf instead).
  static constexpr size_t kLeafCapacity = 64;

 private:
  struct Item {
    int64_t key;
    std::shared_ptr<const Entry> entry;
  };
  struct Leaf {
    uint64_t epoch;
    std::vector<Item> items;  // sorted by key, never empty
  };
  struct Slot {
    int64_t low;  // smallest key the leaf takes (unused for the first)
    std::shared_ptr<Leaf> leaf;
  };
  struct Root {
    uint64_t epoch;
    std::vector<Slot> slots;  // sorted by low, never empty
  };

 public:
  /// Forward iterator in key order. Valid while the table it came from
  /// is not written (a shared copy never is).
  class Iterator {
   public:
    int64_t key() const { return item().key; }
    const Entry& entry() const { return *item().entry; }
    std::pair<int64_t, const Entry&> operator*() const {
      return {key(), entry()};
    }
    Iterator& operator++() {
      if (++item_ == leaf_->items.size()) {
        item_ = 0;
        leaf_ = ++slot_ < root_->slots.size() ? root_->slots[slot_].leaf.get()
                                              : nullptr;
      }
      return *this;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.slot_ == b.slot_ && a.item_ == b.item_;
    }

   private:
    friend class MemTable;
    Iterator(const Root* root, size_t slot, size_t item)
        : root_(root),
          slot_(slot),
          item_(item),
          leaf_(root != nullptr && slot < root->slots.size()
                    ? root->slots[slot].leaf.get()
                    : nullptr) {}
    const Item& item() const { return leaf_->items[item_]; }

    const Root* root_;
    size_t slot_;
    size_t item_;
    const Leaf* leaf_;
  };

  MemTable() = default;
  /// Moves leave the source empty.
  MemTable(MemTable&& other) noexcept { *this = std::move(other); }
  MemTable& operator=(MemTable&& other) noexcept {
    root_ = std::move(other.root_);
    epoch_ = other.epoch_;
    count_ = std::exchange(other.count_, 0);
    bytes_ = std::exchange(other.bytes_, 0);
    return *this;
  }
  /// No plain copies: a copy would alias nodes the writer still changes.
  /// Share() is the one way to copy.
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// A frozen copy of the current contents, sharing every node. Starts a
  /// new write epoch, so later writes to this table copy what they change.
  MemTable Share();

  /// Insert/replace a record's encoded row.
  void Upsert(int64_t key, std::string row);
  /// Record a delete (tombstone).
  void Delete(int64_t key);

  /// Lookup; nullptr when the key is not in the memtable (the key may
  /// still exist in disk components).
  const Entry* Find(int64_t key) const;

  Iterator begin() const { return Iterator(root_.get(), 0, 0); }
  Iterator end() const {
    return Iterator(root_.get(), root_ ? root_->slots.size() : 0, 0);
  }
  /// First item whose key is >= `key`.
  Iterator lower_bound(int64_t key) const;
  /// Smallest and largest key; the table must not be empty.
  int64_t first_key() const {
    return root_->slots.front().leaf->items.front().key;
  }
  int64_t last_key() const {
    return root_->slots.back().leaf->items.back().key;
  }

  size_t record_count() const { return count_; }
  size_t approximate_bytes() const { return bytes_; }
  bool empty() const { return count_ == 0; }

 private:
  /// Index of the slot whose leaf holds (or would hold) `key`.
  static size_t SlotFor(const Root& root, int64_t key);
  /// The item for `key` in a leaf of the current epoch (copying the root
  /// and the leaf first when they are shared); a new key is inserted with
  /// a null entry, counted, and charged kEntryOverhead.
  Item& Claim(int64_t key);
  std::shared_ptr<Leaf> NewLeaf() const;

  std::shared_ptr<Root> root_;  // nullptr while empty
  uint64_t epoch_ = 0;
  size_t count_ = 0;
  size_t bytes_ = 0;
};

}  // namespace lsmcol

#endif  // LSMCOL_LSM_MEMTABLE_H_
