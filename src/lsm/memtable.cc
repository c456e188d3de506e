#include "src/lsm/memtable.h"

#include <algorithm>
#include <iterator>

namespace lsmcol {

namespace {

template <typename Items>
auto ItemLowerBound(Items& items, int64_t key) {
  return std::lower_bound(
      items.begin(), items.end(), key,
      [](const auto& item, int64_t k) { return item.key < k; });
}

}  // namespace

MemTable MemTable::Share() {
  MemTable copy;
  copy.root_ = root_;
  copy.count_ = count_;
  copy.bytes_ = bytes_;
  // Both tables move to an epoch no shared node has, so each copies a
  // node before its first write to it.
  copy.epoch_ = ++epoch_;
  return copy;
}

void MemTable::Upsert(int64_t key, std::string row) {
  Item& item = Claim(key);
  bytes_ += row.size();
  if (item.entry != nullptr) bytes_ -= item.entry->row.size();
  item.entry = std::make_shared<const Entry>(
      Entry{/*anti_matter=*/false, std::move(row)});
}

void MemTable::Delete(int64_t key) {
  Item& item = Claim(key);
  if (item.entry != nullptr) bytes_ -= item.entry->row.size();
  item.entry = std::make_shared<const Entry>(Entry{/*anti_matter=*/true, {}});
}

const MemTable::Entry* MemTable::Find(int64_t key) const {
  if (root_ == nullptr) return nullptr;
  const auto& items = root_->slots[SlotFor(*root_, key)].leaf->items;
  auto it = ItemLowerBound(items, key);
  return it != items.end() && it->key == key ? it->entry.get() : nullptr;
}

MemTable::Iterator MemTable::lower_bound(int64_t key) const {
  if (root_ == nullptr) return end();
  const size_t slot = SlotFor(*root_, key);
  const auto& items = root_->slots[slot].leaf->items;
  const auto it = ItemLowerBound(items, key);
  if (it == items.end()) return Iterator(root_.get(), slot + 1, 0);
  return Iterator(root_.get(), slot, static_cast<size_t>(it - items.begin()));
}

size_t MemTable::SlotFor(const Root& root, int64_t key) {
  const auto after = std::upper_bound(
      root.slots.begin() + 1, root.slots.end(), key,
      [](int64_t k, const Slot& slot) { return k < slot.low; });
  return static_cast<size_t>(after - root.slots.begin()) - 1;
}

std::shared_ptr<MemTable::Leaf> MemTable::NewLeaf() const {
  auto leaf = std::make_shared<Leaf>();
  leaf->epoch = epoch_;
  leaf->items.reserve(kLeafCapacity + 1);
  return leaf;
}

MemTable::Item& MemTable::Claim(int64_t key) {
  if (root_ == nullptr) {
    root_ = std::make_shared<Root>();
    root_->epoch = epoch_;
    root_->slots.push_back(Slot{key, NewLeaf()});
  } else if (root_->epoch != epoch_) {
    root_ = std::make_shared<Root>(*root_);
    root_->epoch = epoch_;
  }
  Root& root = *root_;
  const size_t slot = SlotFor(root, key);
  std::shared_ptr<Leaf>& shared = root.slots[slot].leaf;
  if (shared->epoch != epoch_) {
    auto copy = NewLeaf();
    copy->items.assign(shared->items.begin(), shared->items.end());
    shared = std::move(copy);
  }
  Leaf& leaf = *shared;
  auto it = ItemLowerBound(leaf.items, key);
  if (it != leaf.items.end() && it->key == key) return *it;

  ++count_;
  bytes_ += kEntryOverhead;
  const size_t at = static_cast<size_t>(it - leaf.items.begin());
  leaf.items.insert(it, Item{key, nullptr});
  if (leaf.items.size() <= kLeafCapacity) return leaf.items[at];
  // Split in half; the upper half becomes the next slot's leaf. An append
  // past the table's last key (ingest in key order) leaves this leaf full
  // and starts the next one with the new key, so such leaves stay full.
  const bool append =
      slot + 1 == root.slots.size() && at + 1 == leaf.items.size();
  const size_t half = append ? at : leaf.items.size() / 2;
  auto upper = NewLeaf();
  upper->items.assign(std::make_move_iterator(leaf.items.begin() + half),
                      std::make_move_iterator(leaf.items.end()));
  leaf.items.erase(leaf.items.begin() + half, leaf.items.end());
  Leaf& upper_leaf = *upper;
  root.slots.insert(root.slots.begin() + slot + 1,
                    Slot{upper_leaf.items.front().key, std::move(upper)});
  return at < half ? leaf.items[at] : upper_leaf.items[at - half];
}

}  // namespace lsmcol
