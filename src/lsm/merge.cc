#include "src/lsm/merge.h"

#include <algorithm>

#include "src/columnar/shredder.h"

namespace lsmcol {
namespace {

bool IsColumnar(LayoutKind layout) {
  return layout == LayoutKind::kApax || layout == LayoutKind::kAmax;
}

/// Emit the pending records as one leaf of the dataset's columnar layout.
Status EmitColumnarLeaf(const DatasetOptions& options,
                        ColumnWriterSet* writers, ComponentWriter* writer) {
  if (options.layout == LayoutKind::kApax) {
    return EmitApaxLeaf(writers, writer, options.compress);
  }
  AmaxOptions amax;
  amax.page_size = options.page_size;
  amax.compress = options.compress;
  amax.max_records = options.amax_max_records;
  amax.empty_page_tolerance = options.amax_empty_page_tolerance;
  return EmitAmaxLeaf(writers, writer, amax);
}

/// The flush's leaf-cut rule: emit a leaf once the pending chunks reach
/// the layout's budget; `force` emits any pending records.
Status MaybeEmitColumnarLeaf(const DatasetOptions& options,
                             ColumnWriterSet* writers,
                             ComponentWriter* writer, bool force) {
  if (writers->record_count() == 0) return Status::OK();
  bool cut = force;
  if (options.layout == LayoutKind::kApax) {
    const size_t budget = static_cast<size_t>(
        options.apax_fill_fraction * static_cast<double>(options.page_size));
    cut = cut || writers->EstimatedTotalSize() >= budget;
  } else {
    // AMAX: cap by record count and keep Page 0 (table + PK chunk) within
    // one physical page.
    cut = cut || writers->record_count() >= options.amax_max_records ||
          writers->record_count() >=
              AmaxPage0RecordBudget(options.page_size,
                                    writers->column_count());
  }
  return cut ? EmitColumnarLeaf(options, writers, writer) : Status::OK();
}

Status FlushColumnar(const DatasetOptions& options, const MemTable& memtable,
                     ComponentWriter* writer, Schema* schema) {
  // Columnar memtables hold VB-encoded rows (§4.5).
  const RowCodec& row_codec = GetRowCodec(LayoutKind::kVb);
  ColumnWriterSet writers(schema);
  RecordShredder shredder(schema, &writers);
  for (const auto& [key, entry] : memtable) {
    if (entry.anti_matter) {
      LSMCOL_RETURN_NOT_OK(shredder.ShredAntiMatter(key));
    } else {
      Value record;
      LSMCOL_RETURN_NOT_OK(row_codec.Decode(Slice(entry.row), &record));
      LSMCOL_RETURN_NOT_OK(shredder.Shred(record));
    }
    LSMCOL_RETURN_NOT_OK(
        MaybeEmitColumnarLeaf(options, &writers, writer, false));
  }
  return MaybeEmitColumnarLeaf(options, &writers, writer, true);
}

Status FlushRows(const DatasetOptions& options, const MemTable& memtable,
                 ComponentWriter* writer) {
  RowLeafBuilder builder(writer, options.page_size, options.compress);
  for (const auto& [key, entry] : memtable) {
    LSMCOL_RETURN_NOT_OK(
        builder.Add(key, entry.anti_matter, Slice(entry.row)));
  }
  return builder.Finish();
}

/// Row layouts: a k-way merge that copies each key's winning encoded row
/// without decoding it.
Status MergeRows(const DatasetOptions& options,
                 const std::vector<std::shared_ptr<Component>>& inputs,
                 bool includes_oldest, ComponentWriter* writer,
                 MergeOutcome* outcome) {
  const size_t count = inputs.size();
  std::vector<std::unique_ptr<RowComponentCursor>> cursors;
  std::vector<bool> has(count, false);
  for (size_t i = 0; i < count; ++i) {
    cursors.push_back(std::make_unique<RowComponentCursor>(
        inputs[i].get(), CacheUse::kOneShot));
    LSMCOL_ASSIGN_OR_RETURN(bool ok, cursors[i]->Next());
    has[i] = ok;
  }
  RowLeafBuilder builder(writer, options.page_size, options.compress);
  while (true) {
    size_t min_idx = count;
    for (size_t i = 0; i < count; ++i) {
      if (has[i] && (min_idx == count ||
                     cursors[i]->key() < cursors[min_idx]->key())) {
        min_idx = i;
      }
    }
    if (min_idx == count) break;
    const int64_t min_key = cursors[min_idx]->key();
    // Winner = newest (smallest index) holding the key.
    size_t winner = count;
    for (size_t i = 0; i < count; ++i) {
      if (has[i] && cursors[i]->key() == min_key) {
        if (winner == count) winner = i;
      }
    }
    const bool anti = cursors[winner]->anti_matter();
    if (!(anti && includes_oldest)) {
      LSMCOL_RETURN_NOT_OK(
          builder.Add(min_key, anti, cursors[winner]->row()));
      ++outcome->records_out;
    }
    for (size_t i = 0; i < count; ++i) {
      if (has[i] && cursors[i]->key() == min_key) {
        LSMCOL_ASSIGN_OR_RETURN(bool ok, cursors[i]->Next());
        has[i] = ok;
        ++outcome->records_in;
      }
    }
  }
  return builder.Finish();
}

/// Leaf-handle cache shared by the PK merge phase and all column streams
/// of one component during a vertical merge. Columns sweep the same
/// leaves in the same order, so a tiny FIFO turns the per-column re-reads
/// of a leaf into hits: each leaf's pages are read once however many
/// column streams reach it, instead of once per leaf per column (which is
/// quadratic-feeling for 900-column datasets). Entries are shared so a
/// stream suspended mid-leaf across output-leaf boundaries keeps its chunk
/// bytes alive even if the FIFO rotates the leaf out underneath it. Reads
/// are one-shot: a merge input is read once, so its leaves are not
/// installed in the buffer cache.
class MergeLeafCache {
 public:
  explicit MergeLeafCache(const Component* component)
      : component_(component) {}

  Result<std::shared_ptr<ColumnarLeaf>> Get(size_t leaf_index) {
    for (auto& [index, leaf] : entries_) {
      if (index == leaf_index) return leaf;
    }
    auto leaf = std::make_shared<ColumnarLeaf>();
    LSMCOL_RETURN_NOT_OK(component_->OpenColumnarLeaf(leaf_index, leaf.get(),
                                                      CacheUse::kOneShot));
    if (entries_.size() >= kCapacity) entries_.erase(entries_.begin());
    entries_.emplace_back(leaf_index, std::move(leaf));
    return entries_.back().second;
  }

 private:
  static constexpr size_t kCapacity = 8;
  const Component* component_;
  std::vector<std::pair<size_t, std::shared_ptr<ColumnarLeaf>>> entries_;
};

/// Streams one component's primary keys, each leaf decoded in one batch
/// (keys + anti-matter def levels) — the input side of the run-level
/// merge's PK phase. It reads only a leaf's head: an APAX leaf's image is
/// decoded up to the end of its PK chunk, the rest only if a column
/// stream copies from the leaf rather than adopting it.
class MergePkSource {
 public:
  MergePkSource(const Component* component, MergeLeafCache* leaf_cache)
      : component_(component), leaf_cache_(leaf_cache) {}

  /// Decode the next non-empty leaf's PK batch; false when exhausted.
  Result<bool> NextLeaf() {
    const auto& leaves = component_->reader().leaves();
    const ColumnInfo& info = component_->schema()->column(0);
    while (leaf_index_ < leaves.size()) {
      LSMCOL_ASSIGN_OR_RETURN(auto leaf, leaf_cache_->Get(leaf_index_));
      // PK batches copy keys and defs out of the chunk, so the leaf bytes
      // may be released right after this decode.
      Slice pk_chunk;
      CacheHandle pk_unit;  // stays empty: the leaf's head holds the PKs
      LSMCOL_RETURN_NOT_OK(
          component_->ColumnChunk(leaf.get(), 0, &pk_unit, &pk_chunk));
      LSMCOL_RETURN_NOT_OK(DecodeLeafKeys(
          pk_chunk, info, leaves[leaf_index_].record_count, &batch_));
      ++leaf_index_;
      pos_ = 0;
      if (batch_.entry_count() == 0) continue;
      leaf_has_anti_ = false;
      for (int d : batch_.defs) leaf_has_anti_ = leaf_has_anti_ || d == 0;
      return true;
    }
    return false;
  }

  int64_t key() const { return batch_.ints[pos_]; }
  bool anti_matter() const { return batch_.defs[pos_] == 0; }
  bool leaf_has_anti() const { return leaf_has_anti_; }
  size_t pos() const { return pos_; }
  size_t leaf_size() const { return batch_.entry_count(); }
  const int64_t* keys() const { return batch_.ints.data(); }
  const int* defs() const { return batch_.defs.data(); }
  /// Advance within the current leaf; the caller rolls leaves via
  /// NextLeaf once pos() reaches leaf_size().
  void Advance(size_t n) { pos_ += n; }

 private:
  const Component* component_;
  MergeLeafCache* leaf_cache_;
  size_t leaf_index_ = 0;
  size_t pos_ = 0;
  bool leaf_has_anti_ = false;
  ColumnEntryBatch batch_;
};

/// Streams one column of one columnar component across its leaves for the
/// vertical merge (§4.5.3). Leaf-span bookkeeping and chunk loading are
/// decoupled: Skip() is pure arithmetic until a chunk is actually needed,
/// so fully dropped or adopted leaves are never read or decoded, and a
/// skipped prefix of a leaf that IS copied from is replayed as one batched
/// SkipRecords at load time.
class ComponentColumnStream {
 public:
  ComponentColumnStream(const Component* component, int column_id,
                        MergeLeafCache* leaf_cache)
      : component_(component), column_id_(column_id),
        leaf_cache_(leaf_cache) {
    absent_in_component_ =
        column_id >= component->schema()->column_count();
  }

  /// Advance past n records without copying them (no I/O unless a later
  /// CopyN resumes inside a partially skipped leaf).
  Status Skip(uint64_t n) {
    if (absent_in_component_) return Status::OK();
    while (n > 0) {
      EnterLeafIfNeeded();
      const uint64_t take = std::min<uint64_t>(n, leaf_remaining_);
      if (leaf_loaded_ && leaf_exists_) {
        LSMCOL_RETURN_NOT_OK(reader_.SkipRecords(take));
      } else if (!leaf_loaded_) {
        pending_skip_ += take;
      }
      leaf_remaining_ -= take;
      n -= take;
    }
    return Status::OK();
  }

  /// Copy the next n records into `writer` through the batch decode/encode
  /// APIs: flat columns (and the PK) move as entry batches; array columns
  /// move as raw entry batches up to the leaf end and fall back to the
  /// per-record replay only for a mid-leaf stop.
  Status CopyN(uint64_t n, ColumnChunkWriter* writer) {
    if (absent_in_component_) {
      writer->AddNullRun(0, n);
      return Status::OK();
    }
    while (n > 0) {
      EnterLeafIfNeeded();
      LSMCOL_RETURN_NOT_OK(LoadChunkIfNeeded());
      const uint64_t take = std::min<uint64_t>(n, leaf_remaining_);
      if (!leaf_exists_) {
        // Column unknown when this leaf was written.
        writer->AddNullRun(0, take);
      } else {
        const ColumnInfo& info = component_->schema()->column(column_id_);
        if (take < kSmallCopy && take < leaf_remaining_) {
          // Tiny survivor runs (heavily interleaved inputs): the batch
          // machinery costs more than it saves — replay directly.
          for (uint64_t i = 0; i < take; ++i) {
            LSMCOL_RETURN_NOT_OK(reader_.CopyRecordTo(writer));
          }
        } else if (info.is_pk || info.array_count() == 0) {
          // One entry per record: bounded batches, no per-record calls.
          uint64_t left = take;
          while (left > 0) {
            const size_t b =
                static_cast<size_t>(std::min<uint64_t>(left, kCopyBatch));
            LSMCOL_RETURN_NOT_OK(reader_.NextEntryBatch(b, &batch_));
            writer->AppendEntries(batch_);
            left -= b;
          }
        } else if (take == leaf_remaining_) {
          // Copying to the end of the leaf: the chunk's remaining entries
          // are exactly these records' entries (values, NULLs, and
          // delimiters), so replay them as raw batches.
          while (!reader_.AtEnd()) {
            LSMCOL_RETURN_NOT_OK(
                reader_.NextEntryBatch(kCopyBatch, &batch_));
            writer->AppendEntries(batch_);
          }
        } else {
          // Mid-leaf stop on an array column: record boundaries are
          // delimiter-dependent, so replay record by record.
          for (uint64_t i = 0; i < take; ++i) {
            LSMCOL_RETURN_NOT_OK(reader_.CopyRecordTo(writer));
          }
        }
      }
      leaf_remaining_ -= take;
      n -= take;
    }
    return Status::OK();
  }

 private:
  static constexpr size_t kCopyBatch = 4096;
  static constexpr uint64_t kSmallCopy = 8;

  /// Roll to the next leaf's record span (bookkeeping only, no I/O).
  void EnterLeafIfNeeded() {
    while (leaf_remaining_ == 0) {
      const auto& leaves = component_->reader().leaves();
      LSMCOL_CHECK(leaf_index_ < leaves.size());
      leaf_remaining_ = leaves[leaf_index_].record_count;
      leaf_loaded_ = false;
      leaf_exists_ = false;
      pending_skip_ = 0;
      ++leaf_index_;
    }
  }

  /// Read + decode the current leaf's chunk (leaf_index_ - 1, as
  /// EnterLeafIfNeeded already advanced the index) and replay the skipped
  /// prefix in one batched SkipRecords.
  Status LoadChunkIfNeeded() {
    if (leaf_loaded_) return Status::OK();
    leaf_loaded_ = true;
    const size_t leaf = leaf_index_ - 1;
    const ColumnInfo& info = component_->schema()->column(column_id_);
    LSMCOL_ASSIGN_OR_RETURN(leaf_, leaf_cache_->Get(leaf));
    unit_ = CacheHandle();
    Slice chunk;
    LSMCOL_RETURN_NOT_OK(
        component_->ColumnChunk(leaf_.get(), column_id_, &unit_, &chunk));
    leaf_exists_ = !chunk.empty();
    if (leaf_exists_) LSMCOL_RETURN_NOT_OK(reader_.Init(chunk, info));
    if (leaf_exists_ && pending_skip_ > 0) {
      LSMCOL_RETURN_NOT_OK(
          reader_.SkipRecords(static_cast<size_t>(pending_skip_)));
    }
    pending_skip_ = 0;
    return Status::OK();
  }

  const Component* component_;
  int column_id_;
  MergeLeafCache* leaf_cache_;
  bool absent_in_component_ = false;
  size_t leaf_index_ = 0;        // next leaf to enter
  uint64_t leaf_remaining_ = 0;  // records left in the current leaf
  bool leaf_loaded_ = false;
  bool leaf_exists_ = false;
  uint64_t pending_skip_ = 0;    // records consumed before the chunk loaded
  std::shared_ptr<ColumnarLeaf> leaf_;
  CacheHandle unit_;  // with leaf_, pins the chunk reader_ decodes
  ColumnChunkReader reader_;
  ColumnEntryBatch batch_;
};

/// One survivor run of the merge plan: skip `skip` records of `input`,
/// then copy `take` records to the output. Runs appear in output (key)
/// order; each input's segments appear in its own record order, so the
/// per-input streams replay the plan with forward-only motion.
struct MergeRun {
  uint32_t input = 0;
  uint64_t skip = 0;
  uint64_t take = 0;
};

/// Sentinel for "no adoptable leaf here".
constexpr size_t kNoLeaf = static_cast<size_t>(-1);

/// Tracks an input's consumed-record position against its leaf
/// boundaries, for the whole-leaf adoption fast path.
struct InputLeafCursor {
  const std::vector<LeafEntry>* leaves = nullptr;
  size_t leaf = 0;          ///< leaf containing `pos` (== size when past)
  uint64_t leaf_start = 0;  ///< first record index of `leaf`
  uint64_t pos = 0;         ///< records consumed so far

  void Advance(uint64_t n) {
    pos += n;
    while (leaf < leaves->size() &&
           pos >= leaf_start + (*leaves)[leaf].record_count) {
      leaf_start += (*leaves)[leaf].record_count;
      ++leaf;
    }
  }

  /// Index of the leaf that `pos + skip` starts exactly at and whose whole
  /// record span fits within `avail` surviving records; kNoLeaf otherwise.
  size_t AdoptableLeaf(uint64_t skip, uint64_t avail) const {
    const uint64_t p = pos + skip;
    size_t l = leaf;
    uint64_t start = leaf_start;
    while (l < leaves->size() &&
           p >= start + (*leaves)[l].record_count) {
      start += (*leaves)[l].record_count;
      ++l;
    }
    if (l >= leaves->size() || p != start) return kNoLeaf;
    const uint32_t rc = (*leaves)[l].record_count;
    if (rc == 0 || avail < rc) return kNoLeaf;
    return l;
  }
};

/// The vertical merge (§4.5.3): a batched PK phase emits a run-length
/// survivor plan, then columns move run at a time, with whole-leaf
/// adoption where an output leaf is exactly one input leaf.
Status MergeColumnar(const DatasetOptions& options,
                     const std::vector<std::shared_ptr<Component>>& inputs,
                     bool includes_oldest, ComponentWriter* writer,
                     const Schema* schema, MergeOutcome* outcome) {
  const size_t count = inputs.size();
  // Per-input parsed-leaf caches, shared between the PK phase and the
  // column streams: small components merge with one read and parse per
  // leaf in total.
  std::vector<std::unique_ptr<MergeLeafCache>> leaf_caches(count);
  for (size_t i = 0; i < count; ++i) {
    leaf_caches[i] = std::make_unique<MergeLeafCache>(inputs[i].get());
    for (const auto& leaf : inputs[i]->reader().leaves()) {
      outcome->records_in += leaf.record_count;
    }
  }

  // --- Phase 1: merge the primary keys only — each input leaf's keys and
  // anti-matter defs decoded in one batch — into a run-length survivor
  // plan. Where input key ranges do not overlap (the append-mostly common
  // case) whole leaf stretches collapse to a single run; only records
  // whose key is currently held by several inputs reconcile one at a time.
  std::vector<std::unique_ptr<MergePkSource>> sources;
  std::vector<bool> live(count, false);
  for (size_t i = 0; i < count; ++i) {
    sources.push_back(std::make_unique<MergePkSource>(inputs[i].get(),
                                                      leaf_caches[i].get()));
    LSMCOL_ASSIGN_OR_RETURN(bool ok, sources[i]->NextLeaf());
    live[i] = ok;
  }

  std::vector<MergeRun> plan;
  std::vector<uint64_t> pending_skip(count, 0);
  // Append `n` survivors of `input`, coalescing with the previous run
  // when both the output and the input positions are contiguous.
  auto take_run = [&](size_t input, uint64_t n) {
    if (n == 0) return;
    if (!plan.empty() && plan.back().input == input &&
        pending_skip[input] == 0) {
      plan.back().take += n;
    } else {
      plan.push_back({static_cast<uint32_t>(input), pending_skip[input], n});
      pending_skip[input] = 0;
    }
    outcome->records_out += n;
  };
  auto advance = [&](size_t i, size_t n) -> Status {
    sources[i]->Advance(n);
    if (sources[i]->pos() == sources[i]->leaf_size()) {
      LSMCOL_ASSIGN_OR_RETURN(bool ok, sources[i]->NextLeaf());
      live[i] = ok;
    }
    return Status::OK();
  };

  while (true) {
    size_t min_idx = count;
    for (size_t i = 0; i < count; ++i) {
      if (live[i] && (min_idx == count ||
                      sources[i]->key() < sources[min_idx]->key())) {
        min_idx = i;
      }
    }
    if (min_idx == count) break;
    const int64_t min_key = sources[min_idx]->key();
    // Winner = newest (lowest index) holding the key.
    size_t winner = count, holders = 0;
    for (size_t i = 0; i < count; ++i) {
      if (live[i] && sources[i]->key() == min_key) {
        ++holders;
        if (winner == count) winner = i;
      }
    }
    if (holders == 1) {
      // Exclusive stretch: every key of the winner below the other
      // inputs' current minimum is unshadowed, so the whole stretch (up
      // to the leaf end) moves as one run — split only where anti-matter
      // annihilates (merges including the oldest component, §4.4).
      int64_t limit_key = 0;
      bool has_limit = false;
      for (size_t i = 0; i < count; ++i) {
        if (i != winner && live[i] &&
            (!has_limit || sources[i]->key() < limit_key)) {
          limit_key = sources[i]->key();
          has_limit = true;
        }
      }
      MergePkSource& src = *sources[winner];
      const size_t pos = src.pos();
      size_t end;
      if (!has_limit) {
        end = src.leaf_size();
      } else {
        const int64_t* keys = src.keys();
        if (pos + 1 >= src.leaf_size() || keys[pos + 1] >= limit_key) {
          // Strictly interleaved inputs land here every step; skip the
          // binary search for the single-record stretch.
          end = pos + 1;
        } else {
          end = static_cast<size_t>(
              std::lower_bound(keys + pos + 1, keys + src.leaf_size(),
                               limit_key) -
              keys);
        }
      }
      LSMCOL_DCHECK(end > pos);
      if (includes_oldest && src.leaf_has_anti()) {
        const int* defs = src.defs();
        size_t seg = pos;
        while (seg < end) {
          size_t j = seg;
          if (defs[seg] == 0) {
            while (j < end && defs[j] == 0) ++j;
            pending_skip[winner] += j - seg;
          } else {
            while (j < end && defs[j] != 0) ++j;
            take_run(winner, j - seg);
          }
          seg = j;
        }
      } else {
        take_run(winner, end - pos);
      }
      LSMCOL_RETURN_NOT_OK(advance(winner, end - pos));
    } else {
      // Key held by several inputs: reconcile this record alone.
      const bool anti = sources[winner]->anti_matter();
      if (anti && includes_oldest) {
        ++pending_skip[winner];
      } else {
        take_run(winner, 1);
      }
      for (size_t i = 0; i < count; ++i) {
        if (live[i] && sources[i]->key() == min_key) {
          if (i != winner) ++pending_skip[i];
          LSMCOL_RETURN_NOT_OK(advance(i, 1));
        }
      }
    }
  }
  sources.clear();

  // --- Phase 2: replay the plan column by column, one output leaf at a
  // time. A plan segment that lines up exactly with one whole input leaf
  // is *adopted*: its encoded payload is spliced through byte-for-byte
  // (zone stats and all) and every column stream just steps over it.
  const int ncols = schema->column_count();
  std::vector<std::vector<std::unique_ptr<ComponentColumnStream>>> streams(
      count);
  std::vector<InputLeafCursor> lcur(count);
  std::vector<bool> adoption_ok(count);
  for (size_t i = 0; i < count; ++i) {
    streams[i].resize(static_cast<size_t>(ncols));
    for (int c = 0; c < ncols; ++c) {
      streams[i][static_cast<size_t>(c)] =
          std::make_unique<ComponentColumnStream>(inputs[i].get(), c,
                                                  leaf_caches[i].get());
    }
    lcur[i].leaves = &inputs[i]->reader().leaves();
    // Adoption splices encoded bytes, so the input must match the output
    // component's framing exactly. Layout and page size are invariants of
    // the dataset (validated at Open); compression could differ if the
    // dataset was reopened with another setting, so check it per input.
    adoption_ok[i] = inputs[i]->meta().layout == options.layout &&
                     inputs[i]->meta().compressed == options.compress;
  }
  // Necessary condition for adoption from input i: the stretch must cover
  // at least its smallest leaf — a one-comparison pre-filter that spares
  // heavily interleaved plans (millions of 1-record runs) the per-run
  // leaf-boundary probe.
  std::vector<uint64_t> min_leaf_rc(count, 1);
  for (size_t i = 0; i < count; ++i) {
    uint64_t lo = UINT64_MAX;
    for (const auto& leaf : *lcur[i].leaves) {
      if (leaf.record_count > 0) lo = std::min<uint64_t>(lo, leaf.record_count);
    }
    min_leaf_rc[i] = lo == UINT64_MAX ? 1 : lo;
  }

  // Output leaf sizing.
  size_t records_per_leaf;
  if (options.layout == LayoutKind::kAmax) {
    records_per_leaf = std::max<size_t>(
        1, std::min(options.amax_max_records,
                    AmaxPage0RecordBudget(options.page_size,
                                          static_cast<size_t>(ncols))));
  } else {
    uint64_t total_bytes = 0, total_records = 0;
    for (size_t i = 0; i < count; ++i) {
      total_bytes += inputs[i]->size_bytes();
      for (const auto& leaf : inputs[i]->reader().leaves()) {
        total_records += leaf.record_count;
      }
    }
    const uint64_t bpr = total_records == 0 ? 64 : total_bytes / total_records;
    records_per_leaf = std::max<uint64_t>(
        1, options.page_size / std::max<uint64_t>(1, bpr));
  }

  ColumnWriterSet writers(schema);
  writers.SyncWithSchema();

  std::vector<MergeRun> slice;  // one output leaf's sub-runs
  size_t run_idx = 0;
  uint64_t run_off = 0;  // records of plan[run_idx].take already emitted

  while (run_idx < plan.size()) {
    {
      const MergeRun& run = plan[run_idx];
      const size_t in = run.input;
      const uint64_t skip = run_off == 0 ? run.skip : 0;
      const uint64_t avail = run.take - run_off;
      // Whole-leaf adoption fast path: only at an output-leaf boundary
      // (pending writers would otherwise interleave with the spliced
      // leaf's records).
      if (writers.record_count() == 0 && adoption_ok[in] &&
          avail >= min_leaf_rc[in]) {
        const size_t leaf = lcur[in].AdoptableLeaf(skip, avail);
        if (leaf != kNoLeaf) {
          const LeafEntry& entry = (*lcur[in].leaves)[leaf];
          Buffer payload;
          LSMCOL_RETURN_NOT_OK(inputs[in]->ReadLeaf(leaf, &payload));
          LSMCOL_RETURN_NOT_OK(writer->AppendLeaf(payload.slice(),
                                                  entry.min_key,
                                                  entry.max_key,
                                                  entry.record_count));
          for (int c = 0; c < ncols; ++c) {
            LSMCOL_RETURN_NOT_OK(streams[in][static_cast<size_t>(c)]->Skip(
                skip + entry.record_count));
          }
          lcur[in].Advance(skip + entry.record_count);
          run_off += entry.record_count;
          if (run_off == run.take) {
            ++run_idx;
            run_off = 0;
          }
          ++outcome->leaves_adopted;
          continue;
        }
      }
    }
    // Assemble one output leaf's slice of the plan.
    slice.clear();
    uint64_t n = 0;
    while (n < records_per_leaf && run_idx < plan.size()) {
      const MergeRun& run = plan[run_idx];
      const uint64_t skip = run_off == 0 ? run.skip : 0;
      const uint64_t avail = run.take - run_off;
      // Cut the leaf short when the next stretch could be adopted whole:
      // the slightly underfilled leaf buys an undecoded splice.
      if (n > 0 && adoption_ok[run.input] &&
          avail >= min_leaf_rc[run.input] &&
          lcur[run.input].AdoptableLeaf(skip, avail) != kNoLeaf) {
        break;
      }
      const uint64_t t = std::min<uint64_t>(avail, records_per_leaf - n);
      slice.push_back({run.input, skip, t});
      lcur[run.input].Advance(skip + t);
      n += t;
      run_off += t;
      if (run_off == run.take) {
        ++run_idx;
        run_off = 0;
      }
    }
    if (n == 0) break;  // defensive: the plan holds no empty runs
    // Vertical: column by column across this output leaf's segments.
    for (int c = 0; c < ncols; ++c) {
      ColumnChunkWriter& w = writers.writer(c);
      for (const MergeRun& seg : slice) {
        ComponentColumnStream& stream =
            *streams[seg.input][static_cast<size_t>(c)];
        if (seg.skip > 0) LSMCOL_RETURN_NOT_OK(stream.Skip(seg.skip));
        LSMCOL_RETURN_NOT_OK(stream.CopyN(seg.take, &w));
      }
    }
    writers.NoteRecordsComplete(static_cast<size_t>(n));
    outcome->runs_copied += slice.size();
    LSMCOL_RETURN_NOT_OK(EmitColumnarLeaf(options, &writers, writer));
  }
  return Status::OK();
}

}  // namespace

Status BuildFlushLeaves(const DatasetOptions& options,
                        const MemTable& memtable, ComponentWriter* writer,
                        Schema* schema) {
  if (IsColumnar(options.layout)) {
    return FlushColumnar(options, memtable, writer, schema);
  }
  return FlushRows(options, memtable, writer);
}

Status BuildMergeLeaves(const DatasetOptions& options,
                        const std::vector<std::shared_ptr<Component>>& inputs,
                        bool includes_oldest, ComponentWriter* writer,
                        const Schema* schema, MergeOutcome* outcome) {
  if (IsColumnar(options.layout)) {
    return MergeColumnar(options, inputs, includes_oldest, writer, schema,
                         outcome);
  }
  return MergeRows(options, inputs, includes_oldest, writer, outcome);
}

}  // namespace lsmcol
