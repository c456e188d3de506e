#include "src/lsm/snapshot.h"

#include <optional>

namespace lsmcol {

// ----------------------------------------------------------- scan cursor

LsmScanCursor::LsmScanCursor(
    std::vector<std::unique_ptr<TupleCursor>> sources) {
  sources_.resize(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    sources_[i].cursor = std::move(sources[i]);
  }
}

Result<bool> LsmScanCursor::Next() {
  while (true) {
    // Refill any source consumed in the previous round.
    for (Source& src : sources_) {
      if (src.needs_advance) {
        LSMCOL_ASSIGN_OR_RETURN(src.has_current, src.cursor->Next());
        src.needs_advance = false;
      }
    }
    // Minimum key; ties resolved by recency (sources_ is newest-first).
    Source* min_src = nullptr;
    for (Source& src : sources_) {
      if (!src.has_current) continue;
      if (min_src == nullptr || src.cursor->key() < min_src->cursor->key()) {
        min_src = &src;
      }
    }
    if (min_src == nullptr) return false;
    const int64_t min_key = min_src->cursor->key();
    // Consume every source holding this key; the newest one wins, the
    // others are shadowed (replaced records / annihilated pairs, §2.1.1).
    Source* winner = nullptr;
    bool winner_anti = false;
    for (Source& src : sources_) {
      if (src.has_current && src.cursor->key() == min_key) {
        if (winner == nullptr) {
          winner = &src;
          winner_anti = src.cursor->anti_matter();
        }
        src.needs_advance = true;
      }
    }
    if (winner_anti) continue;  // deleted record
    winner_ = winner->cursor.get();
    return true;
  }
}

Status LsmScanCursor::SeekForward(int64_t target) {
  for (Source& src : sources_) {
    LSMCOL_RETURN_NOT_OK(src.cursor->SeekForward(target));
    if (src.has_current && !src.needs_advance &&
        src.cursor->key() < target) {
      src.needs_advance = true;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------- lookup batch

Status LookupBatch::Find(int64_t key, bool* found, Value* out) {
  *found = false;
  if (exhausted_) return Status::OK();
  if (has_current_ && cursor_->key() > key) return Status::OK();
  if (!has_current_ || cursor_->key() < key) {
    LSMCOL_RETURN_NOT_OK(cursor_->SeekForward(key));
    LSMCOL_ASSIGN_OR_RETURN(bool ok, cursor_->Next());
    if (!ok) {
      exhausted_ = true;
      return Status::OK();
    }
    has_current_ = true;
  }
  if (cursor_->key() == key) {
    *found = true;
    if (out != nullptr) LSMCOL_RETURN_NOT_OK(cursor_->Record(out));
  }
  return Status::OK();
}

// -------------------------------------------------------------- snapshot

namespace {

std::unique_ptr<TupleCursor> NewComponentCursor(
    const Component& component, const Projection& projection,
    const ScanPredicateSet* predicates,
    std::vector<std::pair<int64_t, int64_t>> foreign_ranges) {
  if (component.meta().layout == LayoutKind::kApax ||
      component.meta().layout == LayoutKind::kAmax) {
    return std::make_unique<ColumnarComponentCursor>(
        &component, projection, predicates, std::move(foreign_ranges));
  }
  return std::make_unique<RowComponentCursor>(&component);
}

// Whole-source [min, max] key range; nullopt when the source is empty.
std::optional<std::pair<int64_t, int64_t>> ComponentKeyRange(
    const Component& component) {
  const auto& leaves = component.reader().leaves();
  if (leaves.empty()) return std::nullopt;
  return std::make_pair(leaves.front().min_key, leaves.back().max_key);
}

std::optional<std::pair<int64_t, int64_t>> MemtableKeyRange(
    const MemTable& memtable) {
  if (memtable.empty()) return std::nullopt;
  return std::make_pair(memtable.first_key(), memtable.last_key());
}

}  // namespace

Result<std::unique_ptr<LsmScanCursor>> Snapshot::Scan(
    const Projection& projection) const {
  return Scan(projection, ScanPredicateSet());
}

Result<std::unique_ptr<LsmScanCursor>> Snapshot::Scan(
    const Projection& projection, const ScanPredicateSet& predicates) const {
  const ScanPredicateSet* preds = predicates.empty() ? nullptr : &predicates;
  // Reconciliation order, newest first: active memtable, sealed memtables
  // awaiting background flush, then disk components.
  const size_t n_memtables = 1 + immutables_.size();
  // Key ranges of every source: a columnar source may drop a whole leaf
  // only when no OTHER source holds keys in the leaf's range (otherwise a
  // skipped record could stop shadowing an older version, or a skipped
  // anti-matter entry could stop annihilating one).
  std::vector<std::optional<std::pair<int64_t, int64_t>>> ranges;
  if (preds != nullptr) {
    ranges.push_back(MemtableKeyRange(*memtable_));
    for (const auto& immutable : immutables_) {
      ranges.push_back(MemtableKeyRange(*immutable));
    }
    for (const auto& component : components_) {
      ranges.push_back(ComponentKeyRange(*component));
    }
  }
  auto foreign_for = [&](size_t self) {
    std::vector<std::pair<int64_t, int64_t>> foreign;
    for (size_t i = 0; i < ranges.size(); ++i) {
      if (i != self && ranges[i].has_value()) foreign.push_back(*ranges[i]);
    }
    return foreign;
  };
  std::vector<std::unique_ptr<TupleCursor>> sources;
  sources.push_back(
      std::make_unique<MemTableCursor>(memtable_.get(), row_codec_));
  for (const auto& immutable : immutables_) {
    sources.push_back(
        std::make_unique<MemTableCursor>(immutable.get(), row_codec_));
  }
  for (size_t i = 0; i < components_.size(); ++i) {
    sources.push_back(NewComponentCursor(
        *components_[i], projection, preds,
        preds != nullptr ? foreign_for(n_memtables + i)
                         : std::vector<std::pair<int64_t, int64_t>>()));
  }
  auto cursor = std::make_unique<LsmScanCursor>(std::move(sources));
  cursor->Pin(shared_from_this());
  return cursor;
}

Status Snapshot::Lookup(int64_t key, Value* out) const {
  return Lookup(key, Projection::All(), out);
}

Status Snapshot::Lookup(int64_t key, const Projection& projection,
                        Value* out) const {
  // The newest source holding the key decides (a record, or anti-matter
  // that deletes it), so sources are probed newest first and the first
  // that holds it ends the probe. No source builds a cursor.
  auto not_found = [key] {
    return Status::NotFound("key " + std::to_string(key));
  };
  const MemTable::Entry* entry = memtable_->Find(key);
  for (size_t i = 0; entry == nullptr && i < immutables_.size(); ++i) {
    entry = immutables_[i]->Find(key);
  }
  if (entry != nullptr) {
    if (entry->anti_matter) return not_found();
    return row_codec_->Decode(Slice(entry->row), out);
  }
  for (const auto& component : components_) {
    LSMCOL_ASSIGN_OR_RETURN(KeyProbe probe,
                            component->Lookup(key, projection, out));
    if (probe == KeyProbe::kRecord) return Status::OK();
    if (probe == KeyProbe::kAntiMatter) return not_found();
  }
  return not_found();
}

Result<std::unique_ptr<LookupBatch>> Snapshot::NewLookupBatch(
    const Projection& projection) const {
  LSMCOL_ASSIGN_OR_RETURN(auto cursor, Scan(projection));
  return std::unique_ptr<LookupBatch>(new LookupBatch(std::move(cursor)));
}

uint64_t Snapshot::OnDiskBytes() const {
  uint64_t total = 0;
  for (const auto& component : components_) total += component->size_bytes();
  return total;
}

}  // namespace lsmcol
