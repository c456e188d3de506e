// BufferCache: the one LRU cache of a Store, with the I/O counters the
// benchmarks report (pages/bytes read and written, hit rate). Every
// entry is a decoded unit under one byte budget: a row leaf's payload, a
// secondary-index leaf, a columnar leaf's head (APAX head unit, AMAX
// Page 0), or one column of a columnar leaf (APAX minipage with its stats
// entry, AMAX megapage), verified and decompressed once on a miss
// (FetchDecoded). A warm read runs no page I/O, no checksum and no LZ.
// The compressed pages a unit was decoded from are not kept, so each unit
// is cached once, charged by its decoded bytes. Merges and the scrubber
// read around the cache (ComponentReader::ReadLeaf and ReadLeafRange
// never install anything), and component writes go straight to the file.
//
// A decoded unit may carry attachments: bytes derived from it once and
// kept with it, one per slot (a column's seek index; a leaf's decoded
// keys and, beside them, its presence index — what point lookups jump
// with). Every byte is charged in decoded form: the unit's plus its
// attachments'.
//
// It also provides the "temporary buffer confiscation" used by the AMAX
// writer (§4.5.2): megapage staging buffers are charged against the cache
// budget instead of a dedicated allocation.
//
// Thread-safe: one cache is shared by every dataset of a Store, and with
// background flushes/merges, writer threads (counting their writes) and
// any number of reader threads use it concurrently. A single mutex guards
// the entry table, LRU list, and counters; a miss's read (and decode) runs
// with it released behind a pinned loading placeholder. Pinned entries
// are never evicted and have stable addresses (entries are heap objects
// the table points to), so a CacheHandle's bytes stay valid without the lock;
// so do a pinned unit's attachment bytes, each published once behind an
// atomic flag. A pinned entry may hold the cache above its budget until it
// is unpinned.

#ifndef LSMCOL_STORAGE_BUFFER_CACHE_H_
#define LSMCOL_STORAGE_BUFFER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/storage/file.h"

namespace lsmcol {

/// Cumulative I/O statistics (never reset by eviction).
struct CacheStats {
  uint64_t pages_read = 0;     ///< physical page reads (misses)
  uint64_t bytes_read = 0;     ///< physical bytes read
  uint64_t pages_written = 0;  ///< physical page writes
  uint64_t bytes_written = 0;  ///< physical bytes written
  uint64_t hits = 0;           ///< decoded-unit hits
  uint64_t misses = 0;         ///< decoded-unit misses
  uint64_t evictions = 0;
  uint64_t confiscations = 0;  ///< AMAX staging buffers taken (§4.5.2)
};

class BufferCache;

/// RAII pin on a cached decoded unit. The referenced bytes stay
/// valid while the handle lives.
class CacheHandle {
 public:
  CacheHandle() = default;
  CacheHandle(CacheHandle&& other) noexcept { *this = std::move(other); }
  CacheHandle& operator=(CacheHandle&& other) noexcept;
  CacheHandle(const CacheHandle&) = delete;
  CacheHandle& operator=(const CacheHandle&) = delete;
  ~CacheHandle();

  bool valid() const { return cache_ != nullptr; }
  Slice data() const;

 private:
  friend class BufferCache;
  CacheHandle(BufferCache* cache, void* entry)
      : cache_(cache), entry_(entry) {}

  BufferCache* cache_ = nullptr;
  void* entry_ = nullptr;
};

/// \brief LRU cache of decoded leaf units (thread-safe, see file
/// comment).
class BufferCache {
 public:
  /// Fills `out` with a unit's verified, decoded bytes.
  using UnitLoader = std::function<Status(Buffer* out)>;

  BufferCache(size_t capacity_bytes, size_t page_size)
      : capacity_bytes_(capacity_bytes), page_size_(page_size) {}
  /// Frees every resident entry. No handle may outlive the cache.
  ~BufferCache();
  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  /// Fetch (and pin) the decoded unit `column` of leaf `leaf` of `file`
  /// (column -1: a row or secondary-index leaf's payload, or a columnar
  /// leaf's head; >= 1: that column's APAX or AMAX unit). On a miss
  /// `load` runs once, with mu_ released, while concurrent fetchers of
  /// the same unit wait for it. With `install` false a miss is decoded
  /// into a private entry freed on unpin, so a one-shot reader (a merge
  /// input) never displaces the hot set; a hit is served either way. A
  /// unit larger than the whole capacity is served the same way, uncached.
  Result<CacheHandle> FetchDecoded(const PageFile& file, uint64_t leaf,
                                   int column, const UnitLoader& load,
                                   bool install = true) LSMCOL_EXCLUDES(mu_);

  /// Attachment slots per unit.
  static constexpr size_t kAttachmentSlots = 2;

  /// Bytes derived from a pinned unit — a column's seek index, a leaf's
  /// decoded keys or presence index — built once per slot (`slot` <
  /// kAttachmentSlots) by `build` (with mu_ released) and kept with the
  /// unit: charged with it, freed with it. A built attachment is read
  /// without the lock; the slots are independent. Concurrent first calls
  /// may both build; one result is kept. The bytes stay valid while
  /// `unit` is pinned.
  Result<Slice> Attachment(const CacheHandle& unit, const UnitLoader& build,
                           size_t slot = 0) LSMCOL_EXCLUDES(mu_);

  /// Count physical page reads, which bypass the cache's entries (a
  /// decoded unit's miss reads its pages straight from the file).
  void CountPagesRead(uint64_t pages) LSMCOL_EXCLUDES(mu_);
  /// Count physical page writes (components are written straight to
  /// their files, never through the cache).
  void CountPagesWritten(uint64_t pages) LSMCOL_EXCLUDES(mu_);

  /// Drop every cached unit of a file (component deletion after merge).
  /// A pinned entry is detached instead: it stays readable through its
  /// handles and is freed on the last unpin.
  void Invalidate(const PageFile& file) LSMCOL_EXCLUDES(mu_);

  /// Drop every cached entry (cold-cache measurements); pinned entries
  /// are detached as in Invalidate.
  void Clear() LSMCOL_EXCLUDES(mu_);

  /// Account for an AMAX staging buffer taken from the cache budget.
  void Confiscate(size_t bytes) LSMCOL_EXCLUDES(mu_);
  void ReturnConfiscated(size_t bytes) LSMCOL_EXCLUDES(mu_);

  /// Returns a consistent copy (counters move concurrently).
  CacheStats stats() const LSMCOL_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }
  void ResetStats() LSMCOL_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    stats_ = CacheStats();
  }
  size_t page_size() const { return page_size_; }
  /// Bytes charged against the capacity: decoded units and their
  /// attachments.
  size_t cached_bytes() const LSMCOL_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return charged_bytes_;
  }

 private:
  friend class CacheHandle;

  /// Entry identity: (file, leaf, column). Equality is exact, so an
  /// overflowing leaf number can never alias another file's entry.
  struct Key {
    uint64_t file_id;
    uint64_t index;
    int64_t column;
    bool operator==(const Key& other) const {
      return file_id == other.file_id && index == other.index &&
             column == other.column;
    }
  };
  /// Mixes every bit of the key into the low bits the table probes by.
  static uint64_t HashOf(const Key& k) {
    uint64_t h = k.file_id * 0x9E3779B97F4A7C15ULL;
    h ^= k.index * 0xC2B2AE3D27D4EB4FULL;
    h ^= static_cast<uint64_t>(k.column) * 0x165667B19E3779F9ULL;
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ULL;
    return h ^ (h >> 32);
  }

  // Entry fields are reached through Entry* rather than the cache, so
  // they carry no GUARDED_BY of their own; the invariant is structural:
  // all mutation happens under mu_, and a pinned entry's Buffer bytes
  // are immutable (what CacheHandle::data() reads lock-free).
  //
  // A hit reads the first cache line only (key, pins, flags, LRU links,
  // the data pointers); the line alignment keeps it one line.
  struct alignas(64) Entry {
    Key key{};
    int pins = 0;
    /// Placeholder published before the read so the miss I/O runs
    /// outside mu_; concurrent fetchers of the same entry wait on
    /// load_cv_ instead of reading twice. Pinned while loading, so never
    /// evicted or handed out.
    bool loading = false;
    /// In the table (and by_file_). A detached entry — private to a
    /// one-shot read, oversized, or invalidated while pinned — is owned
    /// by its pins and freed on the last unpin.
    bool resident = true;
    bool in_lru = false;
    /// Neighbours in the LRU list (unpinned resident entries only):
    /// prev is more recently used.
    Entry* lru_prev = nullptr;
    Entry* lru_next = nullptr;
    Buffer data;
    size_t charge = 0;  ///< bytes counted in charged_bytes_ (once loaded)
    size_t file_pos = 0;  ///< index into by_file_[key.file_id]
    /// Derived bytes (Attachment), one per slot: set once, under mu_,
    /// before its has_attachment flag, and freed with the entry, so
    /// readers holding a pin read them lock-free once the flag is set.
    /// Kept in the entry, not behind a pointer: a lookup reads one per
    /// column.
    Buffer attachment[kAttachmentSlots];
    std::atomic<bool> has_attachment[kAttachmentSlots]{};

    Entry() = default;
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;
  };

  /// One slot of the entry table: a resident entry and its key's hash
  /// (null entry: empty). Open addressing with linear probing over a
  /// power-of-two array at most half full, so a probe usually reads one
  /// cache line of slots and then the entry it finds.
  struct Slot {
    uint64_t hash = 0;
    Entry* entry = nullptr;
  };

  /// The slot holding `key`, or the empty slot that ends its probe.
  size_t FindSlotLocked(const Key& key, uint64_t hash) const
      LSMCOL_REQUIRES(mu_);
  /// Add a resident entry whose key is not in the table.
  void InsertLocked(Entry* entry) LSMCOL_REQUIRES(mu_);
  /// Remove the entry in slot `pos`, shifting later members of its probe
  /// run back so no probe stops early.
  void EraseSlotLocked(size_t pos) LSMCOL_REQUIRES(mu_);
  void LruPushFrontLocked(Entry* entry) LSMCOL_REQUIRES(mu_);
  void LruUnlinkLocked(Entry* entry) LSMCOL_REQUIRES(mu_);

  void Unpin(Entry* entry) LSMCOL_EXCLUDES(mu_);
  void EvictIfNeededLocked() LSMCOL_REQUIRES(mu_);
  /// Remove a resident entry from the table and per-file list and
  /// uncharge it. Frees it unless pinned (then it is detached).
  void DropLocked(Entry* entry) LSMCOL_REQUIRES(mu_);

  /// Guards every mutable member below (entries, LRU, per-file lists,
  /// counters). Physical I/O and decoding run *outside* it: misses
  /// publish a loading placeholder first.
  mutable Mutex mu_{MutexRank::kBufferCache};
  /// Signaled when a loading entry is published (or its load failed).
  CondVar load_cv_;
  size_t capacity_bytes_;
  size_t page_size_;
  size_t charged_bytes_ LSMCOL_GUARDED_BY(mu_) = 0;
  size_t confiscated_bytes_ LSMCOL_GUARDED_BY(mu_) = 0;
  CacheStats stats_ LSMCOL_GUARDED_BY(mu_);
  // The resident entries, which the table owns; size is a power of two
  // (or zero before the first insert).
  std::vector<Slot> slots_ LSMCOL_GUARDED_BY(mu_);
  size_t entry_count_ LSMCOL_GUARDED_BY(mu_) = 0;
  // Per-file entry list so Invalidate(file) stays O(entries of that file).
  std::unordered_map<uint64_t, std::vector<Entry*>> by_file_
      LSMCOL_GUARDED_BY(mu_);
  // Unpinned resident entries, most recently used first.
  Entry* lru_head_ LSMCOL_GUARDED_BY(mu_) = nullptr;
  Entry* lru_tail_ LSMCOL_GUARDED_BY(mu_) = nullptr;
};

}  // namespace lsmcol

#endif  // LSMCOL_STORAGE_BUFFER_CACHE_H_
