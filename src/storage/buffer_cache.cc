#include "src/storage/buffer_cache.h"

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

Result<CacheHandle> BufferCache::Fetch(const PageFile& file,
                                       uint64_t page_no) {
  auto load = [&](Buffer* out) -> Status {
    LSMCOL_RETURN_NOT_OK(file.ReadPage(page_no, out));
    CountPagesRead(1);
    return Status::OK();
  };
  return FetchEntry(Key{file.file_id(), page_no, kPageColumn}, load,
                    /*install=*/true);
}

Result<CacheHandle> BufferCache::FetchDecoded(const PageFile& file,
                                              uint64_t leaf, int column,
                                              const UnitLoader& load,
                                              bool install) {
  return FetchEntry(Key{file.file_id(), leaf, column}, load, install);
}

Result<CacheHandle> BufferCache::FetchEntry(const Key& key,
                                            const UnitLoader& load,
                                            bool install) {
  MutexLock lock(&mu_);
  while (true) {
    auto it = entries_.find(key);
    if (it == entries_.end()) break;
    Entry* entry = it->second.get();
    if (entry->loading) {
      // Another thread is loading this exact entry; wait for it to
      // publish (or fail and unpublish) rather than loading twice. The
      // wait drops mu_, so re-probe the map from scratch afterwards.
      load_cv_.Wait(&mu_);
      continue;
    }
    ++stats_.hits;
    if (entry->in_lru) {
      lru_.erase(entry->lru_it);
      entry->in_lru = false;
    }
    ++entry->pins;
    return CacheHandle(this, entry);
  }
  ++stats_.misses;
  // Publish a pinned loading placeholder (a resident one only when the
  // result will be cached), then load with mu_ released so other
  // entries' hits and misses proceed concurrently.
  auto owned = std::make_unique<Entry>();
  Entry* entry = owned.get();
  entry->key = key;
  entry->pins = 1;
  entry->loading = true;
  entry->resident = install;
  if (install) {
    auto& file_entries = by_file_[key.file_id];
    entry->file_pos = file_entries.size();
    file_entries.push_back(entry);
    entries_[key] = std::move(owned);
  } else {
    owned.release();  // owned by its pin from here on
  }
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
                                      const UnitLoader& build) {
  LSMCOL_DCHECK(unit.cache_ == this);
  auto* entry = static_cast<Entry*>(unit.entry_);
  if (const Buffer* kept = entry->attachment.load(std::memory_order_acquire)) {
    return kept->slice();
  }
  auto built = std::make_unique<Buffer>();
  LSMCOL_RETURN_NOT_OK(build(built.get()));
  MutexLock lock(&mu_);
  if (const Buffer* kept = entry->attachment.load(std::memory_order_relaxed)) {
    return kept->slice();  // another thread's build won
  }
  const Slice bytes = built->slice();
  entry->attachment.store(built.release(), std::memory_order_release);
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

Status BufferCache::WriteThrough(PageFile& file, uint64_t page_no,
                                 Slice payload) {
  // The physical write runs outside the lock: a component file is
  // private to its (single) writer until the final rename, so parallel
  // flush/merge builds and concurrent reader fetches must not serialize
  // on it. Only the entry/stat bookkeeping needs mu_.
  LSMCOL_RETURN_NOT_OK(file.WritePage(page_no, payload));
  MutexLock lock(&mu_);
  ++stats_.pages_written;
  stats_.bytes_written += page_size_;
  // Update the cached copy if present (write-once components make this
  // rare, but merges can reuse page numbers after Invalidate). A loading
  // entry is skipped: its in-flight read owns the buffer.
  auto it = entries_.find(Key{file.file_id(), page_no, kPageColumn});
  if (it != entries_.end() && !it->second->loading) {
    Entry* entry = it->second.get();
    entry->data.clear();
    entry->data.resize(page_size_);
    std::memcpy(entry->data.mutable_data(), payload.data(), payload.size());
  }
  return Status::OK();
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
  if (entry->in_lru) {
    lru_.erase(entry->lru_it);
    entry->in_lru = false;
  }
  charged_bytes_ -= entry->charge;
  entry->charge = 0;
  entry->resident = false;
  auto it = entries_.find(entry->key);
  if (entry->pins > 0) {
    it->second.release();  // its pins own it now; freed on last unpin
  }
  entries_.erase(it);
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
  while (!entries_.empty()) DropLocked(entries_.begin()->second.get());
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
  lru_.push_front(entry);
  entry->lru_it = lru_.begin();
  entry->in_lru = true;
  EvictIfNeededLocked();
}

void BufferCache::EvictIfNeededLocked() {
  while (charged_bytes_ + confiscated_bytes_ > capacity_bytes_ &&
         !lru_.empty()) {
    ++stats_.evictions;
    DropLocked(lru_.back());
  }
}

}  // namespace lsmcol
