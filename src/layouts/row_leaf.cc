#include "src/layouts/row_leaf.h"

#include "src/encoding/lz.h"

namespace lsmcol {

Status RowLeafBuilder::Add(int64_t key, bool anti_matter, Slice row) {
  if (count_ == 0) {
    min_key_ = key;
    rows_.AppendZeros(0);
  } else {
    LSMCOL_DCHECK(key > max_key_);
  }
  max_key_ = key;
  rows_.AppendSignedVarint64(key);
  rows_.AppendByte(anti_matter ? 1 : 0);
  rows_.AppendLengthPrefixed(row);
  ++count_;
  if (rows_.size() >= page_size_) return EmitLeaf();
  return Status::OK();
}

Status RowLeafBuilder::EmitLeaf() {
  if (count_ == 0) return Status::OK();
  Buffer payload;
  payload.AppendVarint64(count_);
  payload.Append(rows_.slice());
  Status st;
  if (compress_) {
    Buffer compressed;
    LzCompress(payload.slice(), &compressed);
    st = out_->AppendLeaf(compressed.slice(), min_key_, max_key_, count_);
  } else {
    st = out_->AppendLeaf(payload.slice(), min_key_, max_key_, count_);
  }
  rows_.clear();
  count_ = 0;
  return st;
}

Status RowLeafBuilder::Finish() { return EmitLeaf(); }

Status RowLeafReader::Init(Slice payload) {
  reader_ = BufferReader(payload);
  uint64_t count = 0;
  LSMCOL_RETURN_NOT_OK(reader_.ReadVarint64(&count));
  count_ = static_cast<uint32_t>(count);
  position_ = 0;
  return Status::OK();
}

Status RowLeafReader::Next(int64_t* key, bool* anti_matter, Slice* row) {
  if (AtEnd()) return Status::OutOfRange("row leaf exhausted");
  LSMCOL_RETURN_NOT_OK(reader_.ReadSignedVarint64(key));
  uint8_t flag = 0;
  LSMCOL_RETURN_NOT_OK(reader_.ReadByte(&flag));
  *anti_matter = flag != 0;
  LSMCOL_RETURN_NOT_OK(reader_.ReadLengthPrefixed(row));
  ++position_;
  return Status::OK();
}

}  // namespace lsmcol
