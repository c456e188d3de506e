#include "src/columnar/column_writer.h"

#include <algorithm>
#include <limits>
#include <string_view>

#include "src/encoding/bitpack.h"

namespace lsmcol {

ColumnChunkWriter::ColumnChunkWriter(const ColumnInfo& info) : info_(info) {
  def_bit_width_ = BitWidth(static_cast<uint64_t>(info.max_def));
  if (def_bit_width_ == 0) def_bit_width_ = 1;  // PK-less corner; keep 1 bit
  defs_ = RleEncoder(def_bit_width_);
}

void ColumnChunkWriter::AddBool(bool v) {
  LSMCOL_DCHECK(info_.type == AtomicType::kBoolean);
  NoteValue();
  bools_.Add(v ? 1 : 0);
  // Booleans reuse the int min/max (0/1) for zone filters.
  int64_t iv = v ? 1 : 0;
  if (value_count_ == 1) {
    min_int_ = max_int_ = iv;
  } else {
    min_int_ = std::min(min_int_, iv);
    max_int_ = std::max(max_int_, iv);
  }
}

void ColumnChunkWriter::AddInt64(int64_t v) {
  LSMCOL_DCHECK(info_.type == AtomicType::kInt64);
  NoteValue();
  ints_.Add(v);
  if (value_count_ == 1) {
    min_int_ = max_int_ = v;
  } else {
    min_int_ = std::min(min_int_, v);
    max_int_ = std::max(max_int_, v);
  }
}

void ColumnChunkWriter::AddDouble(double v) {
  LSMCOL_DCHECK(info_.type == AtomicType::kDouble);
  NoteValue();
  doubles_.AppendDouble(v);
  if (v != v) {
    // NaN is unordered, so min/max cannot describe it — and the engine's
    // CompareValues treats NaN as equal to everything, so a chunk holding
    // one may match any inclusive bound. Widen the zone to everything so
    // zone filters never veto such a chunk.
    min_double_ = -std::numeric_limits<double>::infinity();
    max_double_ = std::numeric_limits<double>::infinity();
    return;
  }
  if (value_count_ == 1) {
    min_double_ = max_double_ = v;
  } else {
    // NaN-sticky: once widened to +-inf, min/max stay there.
    min_double_ = std::min(min_double_, v);
    max_double_ = std::max(max_double_, v);
  }
}

void ColumnChunkWriter::AddString(Slice v) {
  LSMCOL_DCHECK(info_.type == AtomicType::kString);
  NoteValue();
  strings_.Add(v);
  const std::string_view sv = v.view();
  if (value_count_ == 1) {
    min_string_.assign(sv);
    max_string_.assign(sv);
  } else {
    if (sv < std::string_view(min_string_)) min_string_.assign(sv);
    if (sv > std::string_view(max_string_)) max_string_.assign(sv);
  }
}

void ColumnChunkWriter::AddKey(int64_t key, bool anti_matter) {
  LSMCOL_DCHECK(info_.is_pk);
  defs_.Add(anti_matter ? 0 : 1);
  ++entry_count_;
  ++value_count_;
  ints_.Add(key);
  if (value_count_ == 1) {
    min_int_ = max_int_ = key;
  } else {
    min_int_ = std::min(min_int_, key);
    max_int_ = std::max(max_int_, key);
  }
}

void ColumnChunkWriter::AppendEntries(const ColumnEntryBatch& batch) {
  const size_t n = batch.entry_count();
  if (n == 0) return;
  // Def levels, one AddRun per maximal run (flat columns collapse to a
  // single run per batch).
  const std::vector<int>& defs = batch.defs;
  size_t i = 0;
  while (i < n) {
    size_t j = i + 1;
    while (j < n && defs[j] == defs[i]) ++j;
    defs_.AddRun(static_cast<uint64_t>(defs[i]), j - i);
    i = j;
  }
  entry_count_ += n;

  // Present values, in entry order (the batch's typed span already is).
  switch (info_.type) {
    case AtomicType::kBoolean: {
      const size_t nv = batch.bools.size();
      if (nv == 0) break;
      bool any0 = false, any1 = false;
      size_t k = 0;
      while (k < nv) {
        size_t j = k + 1;
        while (j < nv && batch.bools[j] == batch.bools[k]) ++j;
        bools_.AddRun(batch.bools[k], j - k);
        if (batch.bools[k] != 0) {
          any1 = true;
        } else {
          any0 = true;
        }
        k = j;
      }
      const int64_t lo = any0 ? 0 : 1;
      const int64_t hi = any1 ? 1 : 0;
      if (value_count_ == 0) {
        min_int_ = lo;
        max_int_ = hi;
      } else {
        min_int_ = std::min(min_int_, lo);
        max_int_ = std::max(max_int_, hi);
      }
      value_count_ += nv;
      break;
    }
    case AtomicType::kInt64: {
      // Covers the PK column too: its batches carry a key for every entry
      // (anti-matter included), matching AddKey's min/max semantics.
      const size_t nv = batch.ints.size();
      if (nv == 0) break;
      int64_t lo = batch.ints[0], hi = batch.ints[0];
      for (size_t k = 1; k < nv; ++k) {
        lo = std::min(lo, batch.ints[k]);
        hi = std::max(hi, batch.ints[k]);
      }
      if (value_count_ == 0) {
        min_int_ = lo;
        max_int_ = hi;
      } else {
        min_int_ = std::min(min_int_, lo);
        max_int_ = std::max(max_int_, hi);
      }
      ints_.AddBatch(batch.ints.data(), nv);
      value_count_ += nv;
      break;
    }
    case AtomicType::kDouble: {
      const size_t nv = batch.doubles.size();
      if (nv == 0) break;
      bool saw_nan = false;
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (size_t k = 0; k < nv; ++k) {
        const double v = batch.doubles[k];
        if (v != v) {
          saw_nan = true;
        } else {
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
      }
      if (value_count_ == 0 && lo <= hi) {
        min_double_ = lo;
        max_double_ = hi;
      } else if (lo <= hi) {
        min_double_ = std::min(min_double_, lo);
        max_double_ = std::max(max_double_, hi);
      }
      if (saw_nan) {
        // Same NaN-sticky widening as AddDouble: the zone must never veto
        // a chunk that holds an unordered value.
        min_double_ = -std::numeric_limits<double>::infinity();
        max_double_ = std::numeric_limits<double>::infinity();
      }
      doubles_.Append(Slice(
          reinterpret_cast<const char*>(batch.doubles.data()), 8 * nv));
      value_count_ += nv;
      break;
    }
    case AtomicType::kString: {
      const size_t nv = batch.strings.size();
      if (nv == 0) break;
      for (size_t k = 0; k < nv; ++k) {
        const std::string_view sv = batch.strings[k].view();
        if (value_count_ == 0 && k == 0) {
          min_string_.assign(sv);
          max_string_.assign(sv);
        } else {
          if (sv < std::string_view(min_string_)) min_string_.assign(sv);
          if (sv > std::string_view(max_string_)) max_string_.assign(sv);
        }
      }
      strings_.AddBatch(batch.strings.data(), nv);
      value_count_ += nv;
      break;
    }
  }
}

size_t ColumnChunkWriter::EstimatedSize() const {
  size_t defs = entry_count_ / 4 + 8;
  size_t values = 0;
  switch (info_.type) {
    case AtomicType::kBoolean:
      values = value_count_ / 8 + 8;
      break;
    case AtomicType::kInt64:
      values = value_count_ * 5 + 16;  // delta typically beats this
      break;
    case AtomicType::kDouble:
      values = doubles_.size();
      break;
    case AtomicType::kString:
      values = strings_.EstimatedSize();
      break;
  }
  return defs + values;
}

void ColumnChunkWriter::FinishInto(Buffer* out) {
  Buffer def_stream;
  defs_.FinishInto(&def_stream);
  out->AppendVarint64(def_stream.size());
  out->Append(def_stream.slice());
  switch (info_.type) {
    case AtomicType::kBoolean:
      bools_.FinishInto(out);
      break;
    case AtomicType::kInt64:
      ints_.FinishInto(out);
      break;
    case AtomicType::kDouble:
      out->AppendVarint64(value_count_);
      out->Append(doubles_.slice());
      break;
    case AtomicType::kString:
      strings_.FinishInto(out);
      break;
  }
  Clear();
}

void ColumnChunkWriter::Clear() {
  defs_.Clear();
  entry_count_ = 0;
  value_count_ = 0;
  ints_.Clear();
  doubles_.clear();
  bools_.Clear();
  strings_.Clear();
  min_int_ = max_int_ = 0;
  min_double_ = max_double_ = 0;
  min_string_.clear();
  max_string_.clear();
}

void ColumnWriterSet::SyncWithSchema() {
  while (writers_.size() < static_cast<size_t>(schema_->column_count())) {
    const ColumnInfo& info = schema_->column(static_cast<int>(writers_.size()));
    auto writer = std::make_unique<ColumnChunkWriter>(info);
    // Backfill: previous records of this chunk never saw this column.
    writer->AddNullRun(0, record_count_);
    writers_.push_back(std::move(writer));
  }
}

size_t ColumnWriterSet::EstimatedTotalSize() const {
  size_t total = 0;
  for (const auto& w : writers_) total += w->EstimatedSize();
  return total;
}

void ColumnWriterSet::ClearAll() {
  for (auto& w : writers_) w->Clear();
  record_count_ = 0;
}

}  // namespace lsmcol
