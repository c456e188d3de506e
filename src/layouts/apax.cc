#include "src/layouts/apax.h"

#include <algorithm>

namespace lsmcol {
namespace {

void AppendChunkStats(const ColumnChunkWriter& w, Buffer* out) {
  if (w.value_count() == 0) {
    out->AppendByte(0);
    return;
  }
  out->AppendByte(1);
  out->AppendByte(static_cast<uint8_t>(w.info().type));
  switch (w.info().type) {
    case AtomicType::kBoolean:
    case AtomicType::kInt64:
      out->AppendSignedVarint64(w.min_int());
      out->AppendSignedVarint64(w.max_int());
      break;
    case AtomicType::kDouble:
      out->AppendDouble(w.min_double());
      out->AppendDouble(w.max_double());
      break;
    case AtomicType::kString:
      out->AppendLengthPrefixed(Slice(w.min_string()));
      out->AppendLengthPrefixed(Slice(w.max_string()));
      break;
  }
}

/// Reads one stats entry into `into`; with `into` null the entry is only
/// checked, and no string is copied.
Status ReadChunkStats(BufferReader* r, ApaxChunkStats* into) {
  ApaxChunkStats checked;
  ApaxChunkStats* stats = into != nullptr ? into : &checked;
  uint8_t has_stats = 0;
  LSMCOL_RETURN_NOT_OK(r->ReadByte(&has_stats));
  stats->has_stats = has_stats != 0;
  if (!stats->has_stats) return Status::OK();
  uint8_t type = 0;
  LSMCOL_RETURN_NOT_OK(r->ReadByte(&type));
  if (type > 3) return Status::Corruption("apax stats: bad type byte");
  stats->type = static_cast<AtomicType>(type);
  switch (stats->type) {
    case AtomicType::kBoolean:
    case AtomicType::kInt64:
      LSMCOL_RETURN_NOT_OK(r->ReadSignedVarint64(&stats->min_int));
      LSMCOL_RETURN_NOT_OK(r->ReadSignedVarint64(&stats->max_int));
      break;
    case AtomicType::kDouble:
      LSMCOL_RETURN_NOT_OK(r->ReadDouble(&stats->min_double));
      LSMCOL_RETURN_NOT_OK(r->ReadDouble(&stats->max_double));
      break;
    case AtomicType::kString: {
      Slice lo, hi;
      LSMCOL_RETURN_NOT_OK(r->ReadLengthPrefixed(&lo));
      LSMCOL_RETURN_NOT_OK(r->ReadLengthPrefixed(&hi));
      if (into != nullptr) {
        stats->min_string = lo.ToString();
        stats->max_string = hi.ToString();
      }
      break;
    }
  }
  return Status::OK();
}

}  // namespace

Status EmitApaxLeaf(ColumnWriterSet* writers, ComponentWriter* out,
                    bool compress) {
  if (writers->record_count() == 0) return Status::OK();
  const size_t ncols = writers->column_count();
  LSMCOL_CHECK(ncols >= 1);
  ColumnChunkWriter& pk = writers->writer(0);
  const int64_t min_key = pk.min_int();
  const int64_t max_key = pk.max_int();
  const uint32_t record_count = static_cast<uint32_t>(writers->record_count());

  // Zone stats must be captured before FinishInto clears the writers.
  Buffer stats_blob;
  for (size_t c = 0; c < ncols; ++c) {
    AppendChunkStats(writers->writer(static_cast<int>(c)), &stats_blob);
  }

  // Encode every column chunk into temporary buffers first (§4.5.1), then
  // align them as minipages in the page image.
  std::vector<Buffer> chunks(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    writers->writer(static_cast<int>(c)).FinishInto(&chunks[c]);
  }

  Buffer payload;
  payload.AppendVarint64(record_count);
  payload.AppendVarint64(ncols);
  payload.AppendSignedVarint64(min_key);
  payload.AppendSignedVarint64(max_key);
  for (const Buffer& chunk : chunks) payload.AppendVarint64(chunk.size());
  payload.Append(stats_blob.slice());
  for (const Buffer& chunk : chunks) payload.Append(chunk.slice());

  Status st;
  if (compress) {
    Buffer compressed;
    LzCompress(payload.slice(), &compressed);
    st = out->AppendLeaf(compressed.slice(), min_key, max_key, record_count);
  } else {
    st = out->AppendLeaf(payload.slice(), min_key, max_key, record_count);
  }
  writers->ClearAll();
  return st;
}

Status ApaxLeaf::Open(Slice payload, bool compressed) {
  payload_ = payload;
  lazy_ = compressed;
  if (compressed) {
    image_buf_.clear();
    LSMCOL_RETURN_NOT_OK(lz_.Reset(payload, &image_buf_));
    image_size_ = lz_.size();
  } else {
    image_size_ = payload.size();
  }
  return ParseHead();
}

Status ApaxLeaf::Init(Slice payload, bool compressed) {
  if (!compressed) {
    copy_.clear();
    copy_.Append(payload);
    payload = copy_.slice();
  }
  LSMCOL_RETURN_NOT_OK(Open(payload, compressed));
  return Reach(image_size_);
}

Status ApaxLeaf::Reach(size_t end) {
  return lazy_ ? lz_.DecodeTo(end) : Status::OK();
}

Status ApaxLeaf::ReachChunk(int column_id) {
  if (lazy_) lz_.Reserve(image_size_);
  return Reach(chunk_offsets_[static_cast<size_t>(column_id) + 1]);
}

Status ApaxLeaf::ParseHead() {
  // The image may move as it grows: each step reads it after its Reach.
  const size_t size = image_size_;
  // The fixed header is four varints: at most 40 bytes.
  LSMCOL_RETURN_NOT_OK(Reach(40));
  BufferReader r(Slice(image(), std::min<size_t>(size, 40)));
  uint64_t record_count = 0, column_count = 0;
  LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&record_count));
  LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&column_count));
  LSMCOL_RETURN_NOT_OK(r.ReadSignedVarint64(&min_key_));
  LSMCOL_RETURN_NOT_OK(r.ReadSignedVarint64(&max_key_));
  size_t pos = static_cast<size_t>(r.rest().data() - image());
  // Each column takes at least a size byte and a stats byte: a count the
  // payload cannot hold is corrupt, not an allocation to attempt.
  if (record_count > UINT32_MAX || column_count > (size - pos) / 2) {
    return Status::Corruption("apax leaf: bad record or column count");
  }
  record_count_ = static_cast<uint32_t>(record_count);
  column_count_ = static_cast<uint32_t>(column_count);

  // Chunk sizes (varints of at most 10 bytes each). The chunks fill the
  // payload's end, so their total places the stats table before them.
  const size_t sizes_end = std::min<size_t>(size, pos + 10 * column_count);
  LSMCOL_RETURN_NOT_OK(Reach(sizes_end));
  r = BufferReader(Slice(image() + pos, sizes_end - pos));
  chunk_offsets_.resize(column_count_ + 1);
  uint64_t chunk_bytes = 0;
  for (uint32_t c = 0; c < column_count_; ++c) {
    uint64_t chunk_size = 0;
    LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&chunk_size));
    if (chunk_size > size) {
      return Status::Corruption("apax leaf: chunk larger than the leaf");
    }
    chunk_offsets_[c + 1] = static_cast<size_t>(chunk_size);
    chunk_bytes += chunk_size;
  }
  pos = sizes_end - r.remaining();
  if (chunk_bytes > size - pos) {
    return Status::Corruption("apax leaf: chunks overrun the leaf");
  }
  chunk_offsets_[0] = size - static_cast<size_t>(chunk_bytes);
  for (uint32_t c = 0; c < column_count_; ++c) {
    chunk_offsets_[c + 1] += chunk_offsets_[c];
  }

  // The stats table, then the PK chunk: the rest of the head.
  stats_begin_ = pos;
  LSMCOL_RETURN_NOT_OK(Reach(chunk_offsets_[column_count_ > 0 ? 1 : 0]));
  r = BufferReader(Slice(image() + pos, chunk_offsets_[0] - pos));
  // Every stats entry is checked here but decoded only from a column unit
  // (ParseApaxColumnUnit).
  stats_offsets_.resize(column_count_ + 1);
  for (uint32_t c = 0; c < column_count_; ++c) {
    stats_offsets_[c] =
        static_cast<uint32_t>(r.rest().data() - (image() + stats_begin_));
    LSMCOL_RETURN_NOT_OK(ReadChunkStats(&r, nullptr));
  }
  if (r.remaining() != 0) {
    return Status::Corruption("apax leaf: stats table and chunks disagree");
  }
  stats_offsets_[column_count_] =
      static_cast<uint32_t>(chunk_offsets_[0] - stats_begin_);
  return Status::OK();
}

Status ApaxLeaf::Chunk(int column_id, Slice* out) {
  *out = Slice();
  if (column_id < 0 || static_cast<uint32_t>(column_id) >= column_count_) {
    return Status::OK();
  }
  LSMCOL_RETURN_NOT_OK(ReachChunk(column_id));
  *out = chunk(column_id);
  return Status::OK();
}

void ApaxLeaf::HeadUnit(Buffer* out) const {
  const Slice pk = chunk(0);
  out->reserve(out->size() + 5 + pk.size());  // a uint32 varint
  out->AppendVarint64(column_count_);
  out->Append(pk);
}

Status ApaxLeaf::ColumnUnit(int column_id, Buffer* out) {
  LSMCOL_DCHECK(column_id >= 1 &&
                static_cast<uint32_t>(column_id) < column_count_);
  const auto c = static_cast<size_t>(column_id);
  LSMCOL_RETURN_NOT_OK(ReachChunk(column_id));
  const Slice minipage = chunk(column_id);
  const Slice entry(image() + stats_begin_ + stats_offsets_[c],
                    stats_offsets_[c + 1] - stats_offsets_[c]);
  out->reserve(out->size() + 4 + minipage.size() + entry.size());
  out->AppendFixed32(static_cast<uint32_t>(minipage.size()));
  out->Append(minipage);
  out->Append(entry);
  return Status::OK();
}

Status ApaxHead::Parse(Slice unit) {
  BufferReader r(unit);
  uint64_t column_count = 0;
  LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&column_count));
  if (column_count > UINT32_MAX) {
    return Status::Corruption("apax head: bad column count");
  }
  column_count_ = static_cast<uint32_t>(column_count);
  pk_chunk_ = r.rest();
  return Status::OK();
}

Status ParseApaxColumnUnit(Slice unit, Slice* chunk, ApaxChunkStats* stats) {
  BufferReader r(unit);
  uint32_t chunk_size = 0;
  LSMCOL_RETURN_NOT_OK(r.ReadFixed32(&chunk_size));
  LSMCOL_RETURN_NOT_OK(r.ReadBytes(chunk_size, chunk));
  if (stats == nullptr) return Status::OK();
  return ReadChunkStats(&r, stats);
}

}  // namespace lsmcol
