#include "src/layouts/amax.h"

#include <algorithm>
#include <cstring>

#include "src/encoding/lz.h"

namespace lsmcol {
namespace {

void FillPrefixes(const ColumnChunkWriter& w, AmaxColumnExtent* extent) {
  if (w.value_count() == 0) return;
  switch (w.info().type) {
    case AtomicType::kBoolean:
    case AtomicType::kInt64: {
      int64_t lo = w.min_int(), hi = w.max_int();
      std::memcpy(extent->min_prefix, &lo, 8);
      std::memcpy(extent->max_prefix, &hi, 8);
      break;
    }
    case AtomicType::kDouble: {
      double lo = w.min_double(), hi = w.max_double();
      std::memcpy(extent->min_prefix, &lo, 8);
      std::memcpy(extent->max_prefix, &hi, 8);
      break;
    }
    case AtomicType::kString: {
      const std::string& lo = w.min_string();
      const std::string& hi = w.max_string();
      std::memcpy(extent->min_prefix, lo.data(), std::min<size_t>(8, lo.size()));
      std::memcpy(extent->max_prefix, hi.data(), std::min<size_t>(8, hi.size()));
      break;
    }
  }
}

}  // namespace

Status EmitAmaxLeaf(ColumnWriterSet* writers, ComponentWriter* out,
                    const AmaxOptions& options) {
  if (writers->record_count() == 0) return Status::OK();
  const size_t ncols = writers->column_count();
  const size_t page_size = options.page_size;
  ColumnChunkWriter& pk = writers->writer(0);
  const int64_t min_key = pk.min_int();
  const int64_t max_key = pk.max_int();
  const uint32_t record_count = static_cast<uint32_t>(writers->record_count());

  // Build each column's on-disk megapage image (string min/max prefix +
  // optional compression) and record zone-filter prefixes.
  std::vector<AmaxColumnExtent> extents(ncols > 0 ? ncols - 1 : 0);
  std::vector<Buffer> megapages(ncols > 0 ? ncols - 1 : 0);
  for (size_t c = 1; c < ncols; ++c) {
    ColumnChunkWriter& w = writers->writer(static_cast<int>(c));
    AmaxColumnExtent& extent = extents[c - 1];
    FillPrefixes(w, &extent);
    Buffer& image = megapages[c - 1];
    if (w.info().type == AtomicType::kString) {
      // Full min/max: 8-byte prefixes are not decisive for strings (§4.3).
      image.AppendLengthPrefixed(Slice(w.min_string()));
      image.AppendLengthPrefixed(Slice(w.max_string()));
    }
    Buffer chunk;
    w.FinishInto(&chunk);
    if (options.compress) {
      LzCompress(chunk.slice(), &image);
    } else {
      image.Append(chunk.slice());
    }
  }

  // Page 0: header + column table + encoded PKs.
  Buffer pk_chunk;
  pk.FinishInto(&pk_chunk);
  Buffer page0;
  page0.AppendFixed32(record_count);
  page0.AppendFixed32(static_cast<uint32_t>(ncols));
  page0.AppendFixed64(static_cast<uint64_t>(min_key));
  page0.AppendFixed64(static_cast<uint64_t>(max_key));
  page0.AppendFixed32(static_cast<uint32_t>(pk_chunk.size()));
  const size_t table_offset = page0.size();
  for (size_t c = 1; c < ncols; ++c) {
    page0.AppendFixed64(0);  // offset, patched below
    page0.AppendFixed64(0);  // size, patched below
    page0.Append(extents[c - 1].min_prefix, 8);
    page0.Append(extents[c - 1].max_prefix, 8);
  }
  page0.Append(pk_chunk.slice());
  if (page0.size() > page_size) {
    return Status::ResourceExhausted(
        "AMAX Page 0 overflow (" + std::to_string(page0.size()) +
        " bytes): lower max_records or raise the page size");
  }

  // Lay megapages out after Page 0, largest first (§4.3).
  std::vector<size_t> order;
  for (size_t c = 1; c < ncols; ++c) order.push_back(c);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return megapages[a - 1].size() > megapages[b - 1].size();
  });
  uint64_t cursor = page_size;  // megapages start after Page 0
  const uint64_t tolerance_bytes =
      static_cast<uint64_t>(options.empty_page_tolerance *
                            static_cast<double>(page_size));
  for (size_t c : order) {
    const uint64_t size = megapages[c - 1].size();
    if (size == 0) {
      extents[c - 1].offset = cursor;
      extents[c - 1].size = 0;
      continue;
    }
    const uint64_t in_page = cursor % page_size;
    if (in_page != 0) {
      const uint64_t space_left = page_size - in_page;
      // Start page-aligned when the column does not fit in the leftover
      // space and the waste is within tolerance.
      if (size > space_left && space_left <= tolerance_bytes) {
        cursor += space_left;
      }
    }
    extents[c - 1].offset = cursor;
    extents[c - 1].size = size;
    cursor += size;
  }

  // Assemble the leaf payload: Page 0 (padded) + megapages at their
  // offsets.
  for (size_t c = 1; c < ncols; ++c) {
    page0.PatchFixed32(table_offset + (c - 1) * 32, 0);  // placeholder
  }
  Buffer payload;
  payload.Append(page0.slice());
  payload.AppendZeros(page_size - page0.size());
  for (size_t c : order) {
    const AmaxColumnExtent& extent = extents[c - 1];
    if (extent.size == 0) continue;
    LSMCOL_CHECK(extent.offset >= payload.size());
    payload.AppendZeros(extent.offset - payload.size());
    payload.Append(megapages[c - 1].slice());
  }
  // Patch the table with final offsets/sizes.
  for (size_t c = 1; c < ncols; ++c) {
    const size_t entry = table_offset + (c - 1) * 32;
    EncodeFixed64(payload.mutable_data() + entry, extents[c - 1].offset);
    EncodeFixed64(payload.mutable_data() + entry + 8, extents[c - 1].size);
  }

  Status st = out->AppendLeaf(payload.slice(), min_key, max_key, record_count);
  writers->ClearAll();
  return st;
}

size_t AmaxPage0RecordBudget(size_t page_size, size_t column_count) {
  const size_t budget = page_size - page_size / 8;
  const size_t fixed = 64 + column_count * 32;
  if (budget <= fixed) return 1;
  const size_t records = (budget - fixed) / 3;
  return records < 1 ? 1 : records;
}

Status AmaxPageZero::Parse(Slice page0) {
  BufferReader r(page0);
  uint32_t pk_size = 0;
  LSMCOL_RETURN_NOT_OK(r.ReadFixed32(&record_count_));
  LSMCOL_RETURN_NOT_OK(r.ReadFixed32(&column_count_));
  uint64_t min_raw = 0, max_raw = 0;
  LSMCOL_RETURN_NOT_OK(r.ReadFixed64(&min_raw));
  LSMCOL_RETURN_NOT_OK(r.ReadFixed64(&max_raw));
  min_key_ = static_cast<int64_t>(min_raw);
  max_key_ = static_cast<int64_t>(max_raw);
  LSMCOL_RETURN_NOT_OK(r.ReadFixed32(&pk_size));
  if (column_count_ == 0) return Status::Corruption("amax: zero columns");
  // Each non-PK column takes a 32-byte table entry.
  if (uint64_t{column_count_ - 1} * 32 > r.remaining()) {
    return Status::Corruption("amax: column table exceeds Page 0");
  }
  LSMCOL_RETURN_NOT_OK(
      r.ReadBytes(static_cast<size_t>(column_count_ - 1) * 32, &table_));
  return r.ReadBytes(pk_size, &pk_chunk_);
}

Status AmaxPageZero::Init(Slice page0) {
  LSMCOL_RETURN_NOT_OK(Parse(page0));
  // Everything parsed ends with the PK chunk; the page's padding is not
  // kept.
  storage_.clear();
  storage_.Append(
      Slice(page0.data(), pk_chunk_.data() + pk_chunk_.size() - page0.data()));
  return Parse(storage_.slice());
}

AmaxColumnExtent AmaxPageZero::extent(int column_id) const {
  AmaxColumnExtent extent;
  if (column_id <= 0 ||
      static_cast<uint32_t>(column_id) >= column_count_) {
    return extent;
  }
  const char* entry = table_.data() + static_cast<size_t>(column_id - 1) * 32;
  extent.offset = DecodeFixed64(entry);
  extent.size = DecodeFixed64(entry + 8);
  std::memcpy(extent.min_prefix, entry + 16, 8);
  std::memcpy(extent.max_prefix, entry + 24, 8);
  return extent;
}

Status ParseAmaxMegapage(Slice raw, const ColumnInfo& info, bool compressed,
                         Buffer* chunk, std::string* min_value,
                         std::string* max_value) {
  BufferReader r(raw);
  if (info.type == AtomicType::kString) {
    Slice lo, hi;
    LSMCOL_RETURN_NOT_OK(r.ReadLengthPrefixed(&lo));
    LSMCOL_RETURN_NOT_OK(r.ReadLengthPrefixed(&hi));
    if (min_value != nullptr) *min_value = lo.ToString();
    if (max_value != nullptr) *max_value = hi.ToString();
  }
  chunk->clear();
  if (compressed) {
    return LzDecompress(r.rest(), chunk);
  }
  chunk->Append(r.rest());
  return Status::OK();
}

}  // namespace lsmcol
