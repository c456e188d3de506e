// LSM secondary index (§4.6): maps an int64 secondary key (e.g. the
// tweet_2 timestamp) to primary keys. Like the primary index it is an LSM
// of immutable sorted components with anti-matter entries; maintenance on
// upsert requires cleaning out the old entry, which is what makes updates
// expensive for the columnar primary layouts (§6.3.2).
//
// A PrimaryKeyIndex is the paper's "primary key index": a secondary index
// holding only primary keys, consulted before the primary index on insert
// so lookups for brand-new keys never touch the (expensive to search)
// columnar primary components.

#ifndef LSMCOL_INDEX_SECONDARY_INDEX_H_
#define LSMCOL_INDEX_SECONDARY_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/storage/component_file.h"

namespace lsmcol {

struct SecondaryIndexOptions {
  std::string dir;
  std::string name = "index";
  size_t page_size = kDefaultPageSize;
  /// Entries buffered in memory before a flush.
  size_t memtable_entries = 64 * 1024;
  int max_components = 5;
};

/// An (sk, pk) pair produced by an index scan.
struct IndexEntry {
  int64_t secondary_key = 0;
  int64_t primary_key = 0;
};

class SecondaryIndex {
 public:
  static Result<std::unique_ptr<SecondaryIndex>> Create(
      const SecondaryIndexOptions& options, BufferCache* cache);

  /// Add a live entry.
  Status Insert(int64_t secondary_key, int64_t primary_key);
  /// Add an anti-matter entry (cleanout of a replaced/deleted record).
  Status Delete(int64_t secondary_key, int64_t primary_key);

  Status Flush();
  Status MergeAll();

  /// All live primary keys with secondary key in [lo, hi], in (sk, pk)
  /// order (callers sort by pk before batched primary lookups, §4.6).
  Status ScanRange(int64_t lo, int64_t hi, std::vector<IndexEntry>* out);

  /// True when (secondary_key == pk probe) exists — the PrimaryKeyIndex
  /// membership test.
  Result<bool> Contains(int64_t secondary_key);

  uint64_t OnDiskBytes() const;
  size_t component_count() const { return components_.size(); }

 private:
  // (sk, pk) -> anti-matter flag.
  using EntryMap = std::map<std::pair<int64_t, int64_t>, bool>;

  SecondaryIndex(const SecondaryIndexOptions& options, BufferCache* cache)
      : options_(options), cache_(cache) {}

  Status Add(int64_t sk, int64_t pk, bool anti);
  /// Write `entries` to a new component file and open it. With
  /// `drop_anti` (a full merge) anti-matter entries are left out.
  Result<std::unique_ptr<ComponentReader>> WriteComponent(
      const EntryMap& entries, bool drop_anti);
  /// Add the entries of `component` with secondary key in [lo, hi] to
  /// `merged`, keeping the (newer) state already there. Each leaf is read
  /// as a decoded unit; `install` false reads around the cache (a merge).
  Status ScanComponentRange(const ComponentReader& component, int64_t lo,
                            int64_t hi, bool install, EntryMap* merged);

  SecondaryIndexOptions options_;
  BufferCache* cache_;
  EntryMap memtable_;  // newest state wins
  std::vector<std::unique_ptr<ComponentReader>> components_;  // newest first
  uint64_t next_component_id_ = 1;
};

/// The "primary key index" of §4.6.
class PrimaryKeyIndex {
 public:
  static Result<std::unique_ptr<PrimaryKeyIndex>> Create(
      const SecondaryIndexOptions& options, BufferCache* cache) {
    auto index = SecondaryIndex::Create(options, cache);
    if (!index.ok()) return index.status();
    auto out = std::unique_ptr<PrimaryKeyIndex>(new PrimaryKeyIndex());
    out->index_ = std::move(*index);
    return out;
  }

  Status Insert(int64_t pk) { return index_->Insert(pk, 0); }
  Result<bool> MayContain(int64_t pk) { return index_->Contains(pk); }
  Status Flush() { return index_->Flush(); }
  uint64_t OnDiskBytes() const { return index_->OnDiskBytes(); }

 private:
  PrimaryKeyIndex() = default;
  std::unique_ptr<SecondaryIndex> index_;
};

}  // namespace lsmcol

#endif  // LSMCOL_INDEX_SECONDARY_INDEX_H_
