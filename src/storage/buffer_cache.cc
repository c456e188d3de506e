#include "src/storage/buffer_cache.h"

#include <algorithm>

namespace lsmcol {

CacheHandle& CacheHandle::operator=(CacheHandle&& other) noexcept {
  if (this != &other) {
    if (cache_ != nullptr) {
      cache_->Unpin(static_cast<BufferCache::Entry*>(entry_));
    }
    cache_ = other.cache_;
    entry_ = other.entry_;
    other.cache_ = nullptr;
    other.entry_ = nullptr;
  }
  return *this;
}

CacheHandle::~CacheHandle() {
  if (cache_ != nullptr) {
    cache_->Unpin(static_cast<BufferCache::Entry*>(entry_));
  }
}

Slice CacheHandle::data() const {
  LSMCOL_DCHECK(valid());
  // Lock-free: a pinned entry is never evicted or rewritten (components
  // are write-once), and its Buffer address is stable.
  const auto* entry = static_cast<const BufferCache::Entry*>(entry_);
  return entry->data.slice();
}

BufferCache::~BufferCache() {
  for (const Slot& slot : slots_) delete slot.entry;
}

Result<CacheHandle> BufferCache::FetchDecoded(const PageFile& file,
                                              uint64_t leaf, int column,
                                              const UnitLoader& load,
                                              bool install) {
  const Key key{file.file_id(), leaf, column};
  const uint64_t hash = HashOf(key);
  MutexLock lock(&mu_);
  while (true) {
    Entry* entry =
        slots_.empty() ? nullptr : slots_[FindSlotLocked(key, hash)].entry;
    if (entry == nullptr) break;
    if (entry->loading) {
      // Another thread is loading this exact entry; wait for it to
      // publish (or fail and unpublish) rather than loading twice. The
      // wait drops mu_, so re-probe the map from scratch afterwards.
      load_cv_.Wait(&mu_);
      continue;
    }
    ++stats_.hits;
    if (entry->in_lru) LruUnlinkLocked(entry);
    ++entry->pins;
    return CacheHandle(this, entry);
  }
  ++stats_.misses;
  // Publish a pinned loading placeholder (a resident one only when the
  // result will be cached), then load with mu_ released so other
  // entries' hits and misses proceed concurrently.
  auto* entry = new Entry;
  entry->key = key;
  entry->pins = 1;
  entry->loading = true;
  entry->resident = install;
  if (install) {
    auto& file_entries = by_file_[key.file_id];
    entry->file_pos = file_entries.size();
    file_entries.push_back(entry);
    InsertLocked(entry);
  }  // else owned by its pin from here on
  lock.Unlock();
  Status loaded = load(&entry->data);
  lock.Lock();
  entry->loading = false;
  load_cv_.NotifyAll();
  if (!loaded.ok()) {
    // Unpublish; waiters re-check and retry the load themselves.
    --entry->pins;
    if (entry->resident) {
      DropLocked(entry);
    } else {
      delete entry;
    }
    return loaded;
  }
  if (entry->resident) {
    entry->charge = entry->data.size();
    charged_bytes_ += entry->charge;
    // Served once, then freed on unpin: caching it would evict
    // everything else and still not fit.
    if (entry->charge > capacity_bytes_) DropLocked(entry);
    EvictIfNeededLocked();
  }
  return CacheHandle(this, entry);
}

Result<Slice> BufferCache::Attachment(const CacheHandle& unit,
                                      const UnitLoader& build, size_t slot) {
  LSMCOL_DCHECK(unit.cache_ == this);
  LSMCOL_DCHECK(slot < kAttachmentSlots);
  auto* entry = static_cast<Entry*>(unit.entry_);
  Buffer& attachment = entry->attachment[slot];
  std::atomic<bool>& attached = entry->has_attachment[slot];
  if (attached.load(std::memory_order_acquire)) return attachment.slice();
  Buffer built;
  LSMCOL_RETURN_NOT_OK(build(&built));
  MutexLock lock(&mu_);
  if (attached.load(std::memory_order_relaxed)) {
    return attachment.slice();  // another thread's build won
  }
  attachment = std::move(built);
  attached.store(true, std::memory_order_release);
  const Slice bytes = attachment.slice();
  if (entry->resident) {
    // Pinned by `unit`, so the eviction below cannot pick this entry.
    entry->charge += bytes.size();
    charged_bytes_ += bytes.size();
    EvictIfNeededLocked();
  }
  return bytes;
}

void BufferCache::CountPagesRead(uint64_t pages) {
  MutexLock lock(&mu_);
  stats_.pages_read += pages;
  stats_.bytes_read += pages * page_size_;
}

void BufferCache::CountPagesWritten(uint64_t pages) {
  MutexLock lock(&mu_);
  stats_.pages_written += pages;
  stats_.bytes_written += pages * page_size_;
}

void BufferCache::DropLocked(Entry* entry) {
  LSMCOL_DCHECK(entry->resident);
  auto file_it = by_file_.find(entry->key.file_id);
  LSMCOL_DCHECK(file_it != by_file_.end());
  std::vector<Entry*>& file_entries = file_it->second;
  LSMCOL_DCHECK(file_entries[entry->file_pos] == entry);
  // Swap-remove; the moved entry remembers its new slot.
  Entry* moved = file_entries.back();
  file_entries[entry->file_pos] = moved;
  moved->file_pos = entry->file_pos;
  file_entries.pop_back();
  if (file_entries.empty()) by_file_.erase(file_it);
  if (entry->in_lru) LruUnlinkLocked(entry);
  charged_bytes_ -= entry->charge;
  entry->charge = 0;
  entry->resident = false;
  EraseSlotLocked(FindSlotLocked(entry->key, HashOf(entry->key)));
  // A pinned entry is owned by its pins now; freed on last unpin.
  if (entry->pins == 0) delete entry;
}

void BufferCache::Invalidate(const PageFile& file) {
  MutexLock lock(&mu_);
  // DropLocked swap-removes from this very list (and erases it once
  // empty), so re-probe after every drop.
  while (true) {
    auto file_it = by_file_.find(file.file_id());
    if (file_it == by_file_.end()) return;
    DropLocked(file_it->second.back());
  }
}

void BufferCache::Clear() {
  MutexLock lock(&mu_);
  while (!by_file_.empty()) DropLocked(by_file_.begin()->second.back());
}

void BufferCache::Confiscate(size_t bytes) {
  MutexLock lock(&mu_);
  confiscated_bytes_ += bytes;
  ++stats_.confiscations;
  EvictIfNeededLocked();
}

void BufferCache::ReturnConfiscated(size_t bytes) {
  MutexLock lock(&mu_);
  LSMCOL_DCHECK(bytes <= confiscated_bytes_);
  confiscated_bytes_ -= bytes;
}

void BufferCache::Unpin(Entry* entry) {
  MutexLock lock(&mu_);
  LSMCOL_DCHECK(entry->pins > 0);
  if (--entry->pins > 0) return;
  if (!entry->resident) {
    delete entry;
    return;
  }
  LruPushFrontLocked(entry);
  EvictIfNeededLocked();
}

void BufferCache::EvictIfNeededLocked() {
  while (charged_bytes_ + confiscated_bytes_ > capacity_bytes_ &&
         lru_tail_ != nullptr) {
    ++stats_.evictions;
    DropLocked(lru_tail_);
  }
}

size_t BufferCache::FindSlotLocked(const Key& key, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const Slot& slot = slots_[pos];
    if (slot.entry == nullptr ||
        (slot.hash == hash && slot.entry->key == key)) {
      return pos;
    }
  }
}

void BufferCache::InsertLocked(Entry* entry) {
  if (2 * (entry_count_ + 1) > slots_.size()) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(64, 2 * old.size()), Slot());
    for (const Slot& slot : old) {
      if (slot.entry == nullptr) continue;
      slots_[FindSlotLocked(slot.entry->key, slot.hash)] = slot;
    }
  }
  const uint64_t hash = HashOf(entry->key);
  Slot& slot = slots_[FindSlotLocked(entry->key, hash)];
  LSMCOL_DCHECK(slot.entry == nullptr);
  slot = Slot{hash, entry};
  ++entry_count_;
}

void BufferCache::EraseSlotLocked(size_t pos) {
  LSMCOL_DCHECK(slots_[pos].entry != nullptr);
  const size_t mask = slots_.size() - 1;
  // Backward-shift deletion: a later member of the run moves into the
  // hole unless its home slot lies cyclically in (hole, its position].
  for (size_t next = (pos + 1) & mask; slots_[next].entry != nullptr;
       next = (next + 1) & mask) {
    const size_t home = slots_[next].hash & mask;
    if (((next - home) & mask) >= ((next - pos) & mask)) {
      slots_[pos] = slots_[next];
      pos = next;
    }
  }
  slots_[pos] = Slot();
  --entry_count_;
}

void BufferCache::LruPushFrontLocked(Entry* entry) {
  entry->lru_prev = nullptr;
  entry->lru_next = lru_head_;
  if (lru_head_ != nullptr) {
    lru_head_->lru_prev = entry;
  } else {
    lru_tail_ = entry;
  }
  lru_head_ = entry;
  entry->in_lru = true;
}

void BufferCache::LruUnlinkLocked(Entry* entry) {
  (entry->lru_prev != nullptr ? entry->lru_prev->lru_next : lru_head_) =
      entry->lru_next;
  (entry->lru_next != nullptr ? entry->lru_next->lru_prev : lru_tail_) =
      entry->lru_prev;
  entry->lru_prev = entry->lru_next = nullptr;
  entry->in_lru = false;
}

}  // namespace lsmcol
