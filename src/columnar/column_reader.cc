#include "src/columnar/column_reader.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "src/columnar/column_writer.h"
#include "src/encoding/bitpack.h"

namespace lsmcol {

Status ColumnChunkReader::Init(Slice chunk, const ColumnInfo& info) {
  info_ = info;
  max_delim_ = info.array_count() - 1;
  entries_read_ = 0;
  BufferReader reader(chunk);
  uint64_t def_size = 0;
  LSMCOL_RETURN_NOT_OK(reader.ReadVarint64(&def_size));
  Slice def_bytes;
  LSMCOL_RETURN_NOT_OK(reader.ReadBytes(def_size, &def_bytes));
  int width = BitWidth(static_cast<uint64_t>(info.max_def));
  if (width == 0) width = 1;
  LSMCOL_RETURN_NOT_OK(defs_.Init(def_bytes, width));
  Slice values = reader.rest();
  switch (info_.type) {
    case AtomicType::kBoolean:
      return bools_.Init(values, 1);
    case AtomicType::kInt64:
      return ints_.Init(values);
    case AtomicType::kDouble: {
      BufferReader vr(values);
      uint64_t count = 0;
      LSMCOL_RETURN_NOT_OK(vr.ReadVarint64(&count));
      doubles_input_ = vr.rest();
      doubles_ = vr;
      doubles_count_ = count;
      doubles_remaining_ = count;
      return Status::OK();
    }
    case AtomicType::kString:
      return strings_.Init(values);
  }
  return Status::Corruption("unknown column type");
}

Status ColumnChunkReader::ReadValueInto(ColumnRecord* out) {
  switch (info_.type) {
    case AtomicType::kBoolean: {
      uint64_t v = 0;
      LSMCOL_RETURN_NOT_OK(bools_.Next(&v));
      out->values.push_back(Value::Bool(v != 0));
      return Status::OK();
    }
    case AtomicType::kInt64: {
      int64_t v = 0;
      LSMCOL_RETURN_NOT_OK(ints_.Next(&v));
      out->values.push_back(Value::Int(v));
      return Status::OK();
    }
    case AtomicType::kDouble: {
      double v = 0;
      if (doubles_remaining_ == 0) {
        return Status::Corruption("double column values exhausted");
      }
      LSMCOL_RETURN_NOT_OK(doubles_.ReadDouble(&v));
      --doubles_remaining_;
      out->values.push_back(Value::Double(v));
      return Status::OK();
    }
    case AtomicType::kString: {
      Slice v;
      LSMCOL_RETURN_NOT_OK(strings_.Next(&v));
      out->values.push_back(Value::String(v.ToString()));
      return Status::OK();
    }
  }
  return Status::Corruption("unknown column type");
}

Status ColumnChunkReader::SkipValue() {
  switch (info_.type) {
    case AtomicType::kBoolean:
      return bools_.Skip(1);
    case AtomicType::kInt64:
      return ints_.Skip(1);
    case AtomicType::kDouble:
      if (doubles_remaining_ == 0) {
        return Status::Corruption("double column values exhausted");
      }
      --doubles_remaining_;
      return doubles_.Skip(8);
    case AtomicType::kString:
      return strings_.Skip(1);
  }
  return Status::Corruption("unknown column type");
}

Status ColumnChunkReader::TransferValue(ColumnChunkWriter* writer) {
  switch (info_.type) {
    case AtomicType::kBoolean: {
      uint64_t v = 0;
      LSMCOL_RETURN_NOT_OK(bools_.Next(&v));
      writer->AddBool(v != 0);
      return Status::OK();
    }
    case AtomicType::kInt64: {
      int64_t v = 0;
      LSMCOL_RETURN_NOT_OK(ints_.Next(&v));
      writer->AddInt64(v);
      return Status::OK();
    }
    case AtomicType::kDouble: {
      double v = 0;
      if (doubles_remaining_ == 0) {
        return Status::Corruption("double column values exhausted");
      }
      --doubles_remaining_;
      LSMCOL_RETURN_NOT_OK(doubles_.ReadDouble(&v));
      writer->AddDouble(v);
      return Status::OK();
    }
    case AtomicType::kString: {
      Slice v;
      LSMCOL_RETURN_NOT_OK(strings_.Next(&v));
      writer->AddString(v);
      return Status::OK();
    }
  }
  return Status::Corruption("unknown column type");
}

Status ColumnChunkReader::ParseRecordInto(ColumnRecord* out, ParseMode mode,
                                          ColumnChunkWriter* writer) {
  if (AtEnd()) return Status::OutOfRange("column chunk exhausted");
  const bool materialize = mode == ParseMode::kMaterialize;
  const bool copy = mode == ParseMode::kCopy;
  uint64_t first = 0;
  LSMCOL_RETURN_NOT_OK(defs_.Next(&first));
  ++entries_read_;
  const int d0 = static_cast<int>(first);

  if (info_.is_pk) {
    // PK: one entry per record, value always present, def 0 = anti-matter.
    if (materialize) {
      out->anti_matter = (d0 == 0);
      out->root = ShredCell();
      out->root.kind = ShredCell::Kind::kLeaf;
      out->root.def = d0;
      out->root.value_index = 0;
      return ReadValueInto(out);
    }
    if (copy) {
      int64_t key = 0;
      LSMCOL_RETURN_NOT_OK(ints_.Next(&key));
      writer->AddKey(key, /*anti_matter=*/d0 == 0);
      return Status::OK();
    }
    return SkipValue();
  }

  const int m = info_.array_count();
  if (m == 0) {
    if (d0 == info_.max_def) {
      if (materialize) {
        out->root.kind = ShredCell::Kind::kLeaf;
        out->root.def = d0;
        out->root.value_index = 0;
        return ReadValueInto(out);
      }
      if (copy) return TransferValue(writer);
      return SkipValue();
    }
    if (materialize) out->root = ShredCell::Missing(d0);
    if (copy) writer->AddNull(d0);
    return Status::OK();
  }

  const std::vector<int>& darr = info_.array_defs;
  if (d0 < darr[0]) {
    // Outermost array (or an ancestor) missing: standalone entry, no
    // terminating delimiter (§3.2.1).
    if (materialize) out->root = ShredCell::Missing(d0);
    if (copy) writer->AddNull(d0);
    return Status::OK();
  }

  // Array present: parse entries until the record's closing delimiter 0.
  ShredCell root;
  root.kind = ShredCell::Kind::kList;
  root.def = darr[0];
  std::vector<ShredCell*> stack;  // open lists, levels 1..current
  if (materialize) stack.push_back(&root);
  // For the skip/copy paths we only track depth.
  int current = 1;

  // Processes one value entry with definition level e.
  auto process_value = [&](int e) -> Status {
    // k = number of arrays this entry implies open.
    int k = 0;
    while (k < m && darr[k] <= e) ++k;
    if (k < current) {
      // A well-formed writer never lets a value close open arrays.
      return Status::Corruption("column value entry closes open arrays");
    }
    if (materialize) {
      while (current < k) {
        ShredCell list;
        list.kind = ShredCell::Kind::kList;
        list.def = darr[current];
        stack.back()->children.push_back(std::move(list));
        stack.push_back(&stack.back()->children.back());
        ++current;
      }
      if (e == info_.max_def) {
        ShredCell leaf;
        leaf.kind = ShredCell::Kind::kLeaf;
        leaf.def = e;
        leaf.value_index = static_cast<int>(out->values.size());
        stack.back()->children.push_back(std::move(leaf));
        return ReadValueInto(out);
      }
      stack.back()->children.push_back(ShredCell::Missing(e));
      return Status::OK();
    }
    current = k;
    if (e == info_.max_def) {
      if (copy) return TransferValue(writer);
      return SkipValue();
    }
    if (copy) writer->AddNull(e);
    return Status::OK();
  };

  LSMCOL_RETURN_NOT_OK(process_value(d0));
  while (true) {
    if (entries_read_ >= entry_count()) {
      return Status::Corruption("column record missing closing delimiter");
    }
    uint64_t raw = 0;
    LSMCOL_RETURN_NOT_OK(defs_.Next(&raw));
    ++entries_read_;
    const int e = static_cast<int>(raw);
    if (e <= current - 1) {
      // Delimiter: e arrays remain open.
      if (copy) writer->AddDelimiter(e);
      if (e == 0) break;  // record complete
      if (materialize) {
        while (current > e) {
          stack.pop_back();
          --current;
        }
      } else {
        current = e;
      }
    } else {
      LSMCOL_RETURN_NOT_OK(process_value(e));
    }
  }
  if (materialize) out->root = std::move(root);
  return Status::OK();
}

Status ColumnChunkReader::NextRecord(ColumnRecord* out) {
  out->root = ShredCell();
  out->values.clear();
  out->anti_matter = false;
  return ParseRecordInto(out, ParseMode::kMaterialize, nullptr);
}

Status ColumnChunkReader::SkipValues(size_t n) {
  if (n == 0) return Status::OK();
  switch (info_.type) {
    case AtomicType::kBoolean:
      return bools_.Skip(n);
    case AtomicType::kInt64:
      return ints_.Skip(n);
    case AtomicType::kDouble:
      if (doubles_remaining_ < n) {
        return Status::Corruption("double column values exhausted");
      }
      doubles_remaining_ -= n;
      return doubles_.Skip(8 * n);
    case AtomicType::kString:
      return strings_.Skip(n);
  }
  return Status::Corruption("unknown column type");
}

Status ColumnChunkReader::SkipRecords(size_t n) {
  if (n == 0) return Status::OK();
  // Flat columns (and the PK) store exactly one entry per record, so the
  // whole skip advances the def stream run-at-a-time and the value
  // decoder once (§4.4's batched iterator advance, now run-granular).
  if (info_.is_pk || info_.array_count() == 0) {
    if (n > entry_count() - entries_read_) {
      return Status::OutOfRange("column chunk exhausted");
    }
    size_t values = 0;
    LSMCOL_RETURN_NOT_OK(defs_.SkipAndCount(
        n, static_cast<uint64_t>(info_.max_def), &values));
    entries_read_ += n;
    // The PK stores a key for every entry, including anti-matter (def 0).
    if (info_.is_pk) values = n;
    return SkipValues(values);
  }
  // Array columns: record boundaries are delimiter-dependent, so each
  // record must still be walked entry by entry.
  for (size_t i = 0; i < n; ++i) {
    LSMCOL_RETURN_NOT_OK(ParseRecordInto(nullptr, ParseMode::kSkip, nullptr));
  }
  return Status::OK();
}

namespace {

template <typename T>
void AppendRaw(Buffer* out, const T& value) {
  out->Append(Slice(reinterpret_cast<const char*>(&value), sizeof(T)));
}

template <typename T>
T ReadRaw(const char* src) {
  T value;
  std::memcpy(&value, src, sizeof(T));
  return value;
}

}  // namespace

size_t ColumnChunkReader::MarkSize() const {
  size_t value_mark = 0;
  switch (info_.type) {
    case AtomicType::kBoolean:
      value_mark = sizeof(RleDecoder::Mark);
      break;
    case AtomicType::kInt64:
      value_mark = sizeof(DeltaInt64Decoder::Mark);
      break;
    case AtomicType::kDouble:
      value_mark = sizeof(uint64_t);
      break;
    case AtomicType::kString:
      value_mark = sizeof(DeltaLengthStringDecoder::Mark);
      break;
  }
  return sizeof(RleDecoder::Mark) + value_mark;
}

void ColumnChunkReader::AppendMark(Buffer* out) const {
  AppendRaw(out, defs_.mark());
  switch (info_.type) {
    case AtomicType::kBoolean:
      AppendRaw(out, bools_.mark());
      return;
    case AtomicType::kInt64:
      AppendRaw(out, ints_.mark());
      return;
    case AtomicType::kDouble:
      AppendRaw(out, static_cast<uint64_t>(doubles_count_ -
                                           doubles_remaining_));
      return;
    case AtomicType::kString:
      AppendRaw(out, strings_.mark());
      return;
  }
}

Status ColumnChunkReader::RestoreMark(const char* mark) {
  const auto defs = ReadRaw<RleDecoder::Mark>(mark);
  LSMCOL_RETURN_NOT_OK(defs_.Restore(defs));
  entries_read_ = defs.position;
  const char* value_mark = mark + sizeof(RleDecoder::Mark);
  switch (info_.type) {
    case AtomicType::kBoolean:
      return bools_.Restore(ReadRaw<RleDecoder::Mark>(value_mark));
    case AtomicType::kInt64:
      return ints_.Restore(ReadRaw<DeltaInt64Decoder::Mark>(value_mark));
    case AtomicType::kDouble: {
      const auto consumed = ReadRaw<uint64_t>(value_mark);
      if (consumed > doubles_count_ || consumed > doubles_input_.size() / 8) {
        return Status::Corruption("double mark out of range");
      }
      doubles_ = BufferReader(doubles_input_.SubSlice(
          8 * consumed, doubles_input_.size() - 8 * consumed));
      doubles_remaining_ = doubles_count_ - consumed;
      return Status::OK();
    }
    case AtomicType::kString:
      return strings_.Restore(
          ReadRaw<DeltaLengthStringDecoder::Mark>(value_mark));
  }
  return Status::Corruption("unknown column type");
}

Status ColumnChunkReader::BuildSeekIndex(Buffer* out) {
  out->clear();
  const bool flat = info_.is_pk || info_.array_count() == 0;
  while (!AtEnd()) {
    AppendMark(out);
    if (flat) {
      // One entry per record: the stride is a run-granular skip.
      const size_t left = entry_count() - entries_read_;
      LSMCOL_RETURN_NOT_OK(SkipRecords(std::min(left, kSeekStride)));
      continue;
    }
    for (size_t i = 0; i < kSeekStride && !AtEnd(); ++i) {
      LSMCOL_RETURN_NOT_OK(SkipRecords(1));
    }
  }
  return Status::OK();
}

Status ColumnChunkReader::Seek(size_t record, Slice seek_index) {
  const size_t mark_size = MarkSize();
  if (seek_index.size() % mark_size != 0) {
    return Status::Corruption("seek index does not match the column type");
  }
  const size_t checkpoints = seek_index.size() / mark_size;
  if (checkpoints == 0) {
    // An empty chunk: only its end exists.
    return record == 0 ? Status::OK()
                       : Status::OutOfRange("seek past the column chunk's end");
  }
  const size_t checkpoint = std::min(record / kSeekStride, checkpoints - 1);
  LSMCOL_RETURN_NOT_OK(RestoreMark(seek_index.data() + checkpoint * mark_size));
  return SkipRecords(record - checkpoint * kSeekStride);
}

Status ColumnChunkReader::CopyRecordTo(ColumnChunkWriter* writer) {
  return ParseRecordInto(nullptr, ParseMode::kCopy, writer);
}

template <typename OnRun>
Status ColumnChunkReader::DecodeDefRuns(size_t n, ColumnEntryBatch* out,
                                        size_t* values, OnRun&& on_run) {
  if (n > static_cast<size_t>(INT32_MAX)) {
    return Status::Corruption("column chunk holds too many entries");
  }
  out->defs.resize(n);
  out->value_index.resize(n);
  const uint64_t max_def = static_cast<uint64_t>(info_.max_def);
  const bool pk = info_.is_pk;
  int* defs = out->defs.data();
  int32_t* index = out->value_index.data();
  int32_t next_value = 0;
  size_t i = 0;
  LSMCOL_RETURN_NOT_OK(defs_.VisitRuns(
      n,
      [&](uint64_t def, size_t count) {
        const int e = static_cast<int>(def);
        std::fill_n(defs + i, count, e);
        if (pk || def == max_def) {
          std::iota(index + i, index + i + count, next_value);
          next_value += static_cast<int32_t>(count);
        } else {
          std::fill_n(index + i, count, -1);
        }
        on_run(e, i, count);
        i += count;
      },
      [&](const uint64_t* packed, size_t count) {
        for (size_t j = 0; j < count; ++j) {
          defs[i + j] = static_cast<int>(packed[j]);
          index[i + j] = pk || packed[j] == max_def ? next_value++ : -1;
        }
        for (size_t j = 0; j < count; ++j) {
          on_run(static_cast<int>(packed[j]), i + j, 1);
        }
        i += count;
      }));
  if (i != n) return Status::Corruption("def levels exhausted");
  entries_read_ += n;
  *values = static_cast<size_t>(next_value);
  return Status::OK();
}

Status ColumnChunkReader::NextEntryBatch(size_t max_entries,
                                         ColumnEntryBatch* out) {
  out->Clear();
  size_t n = entry_count() - entries_read_;
  if (n > max_entries) n = max_entries;
  if (n == 0) return Status::OK();
  size_t values = 0;
  LSMCOL_RETURN_NOT_OK(
      DecodeDefRuns(n, out, &values, [](int, size_t, size_t) {}));
  // All present values in one typed batch.
  return DecodeValues(values, out);
}

Status ColumnChunkReader::DecodeRecords(ColumnEntryBatch* out,
                                        std::vector<uint32_t>* starts,
                                        size_t* values) {
  out->Clear();
  starts->clear();
  *values = 0;
  const size_t n = entry_count() - entries_read_;
  const bool flat = info_.is_pk || info_.array_count() == 0;
  const std::vector<int>& darr = info_.array_defs;
  const int m = info_.array_count();
  // Arrays an entry of def level e implies open (ParseRecordInto's k).
  auto opened = [&](int e) {
    int k = 0;
    while (k < m && darr[k] <= e) ++k;
    return k;
  };
  bool in_record = false;  // a record's closing delimiter is still due
  int current = 0;         // arrays open while in_record
  auto split = [&](int e, size_t first, size_t count) {
    if (flat) {
      // One entry per record.
      for (size_t j = 0; j < count; ++j) {
        starts->push_back(static_cast<uint32_t>(first + j));
      }
      return;
    }
    for (size_t j = 0; j < count;) {
      if (!in_record) {
        // A record's first entry. One whose outermost array is missing
        // is the whole record.
        starts->push_back(static_cast<uint32_t>(first + j++));
        if (e >= darr[0]) {
          in_record = true;
          current = opened(e);
        }
      } else if (e > current - 1) {
        // Value entries: opened(e) <= e, so after the first the rest of
        // the run are values that leave `current` where it is.
        current = opened(e);
        return;
      } else {
        // A delimiter: e arrays remain open; 0 closes the record.
        ++j;
        if (e == 0) {
          in_record = false;
        } else {
          current = e;
        }
      }
    }
  };
  LSMCOL_RETURN_NOT_OK(DecodeDefRuns(n, out, values, split));
  if (in_record) {
    return Status::Corruption("column record missing closing delimiter");
  }
  starts->push_back(static_cast<uint32_t>(n));
  return Status::OK();
}

Status ColumnChunkReader::DecodeValues(size_t n, ColumnEntryBatch* out) {
  if (n == 0) return Status::OK();
  size_t decoded = 0;
  switch (info_.type) {
    case AtomicType::kBoolean:
      out->bools.resize(n);
      LSMCOL_RETURN_NOT_OK(bools_.DecodeBatch(n, out->bools.data(), &decoded));
      break;
    case AtomicType::kInt64:
      out->ints.resize(n);
      LSMCOL_RETURN_NOT_OK(ints_.DecodeBatch(n, out->ints.data(), &decoded));
      break;
    case AtomicType::kDouble: {
      if (doubles_remaining_ < n) break;
      // Plain-encoded: one contiguous read instead of per-value calls.
      Slice raw;
      LSMCOL_RETURN_NOT_OK(doubles_.ReadBytes(8 * n, &raw));
      out->doubles.resize(n);
      std::memcpy(out->doubles.data(), raw.data(), 8 * n);
      doubles_remaining_ -= n;
      decoded = n;
      break;
    }
    case AtomicType::kString:
      out->strings.resize(n);
      LSMCOL_RETURN_NOT_OK(
          strings_.NextBatch(n, out->strings.data(), &decoded));
      break;
  }
  if (decoded != n) {
    return Status::Corruption("column values exhausted");
  }
  return Status::OK();
}

}  // namespace lsmcol
