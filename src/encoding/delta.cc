#include "src/encoding/delta.h"

#include <algorithm>

#include "src/encoding/bitpack.h"

namespace lsmcol {

void DeltaInt64Encoder::Add(int64_t value) {
  if (value_count_ == 0) {
    first_value_ = value;
  } else {
    // Deltas use wrap-around (unsigned) arithmetic so INT64 extremes are
    // well-defined.
    pending_deltas_.push_back(static_cast<int64_t>(
        static_cast<uint64_t>(value) - static_cast<uint64_t>(previous_)));
    if (pending_deltas_.size() == kBlockSize) FlushBlock();
  }
  previous_ = value;
  ++value_count_;
}

void DeltaInt64Encoder::AddBatch(const int64_t* values, size_t n) {
  size_t i = 0;
  if (n == 0) return;
  if (value_count_ == 0) {
    first_value_ = values[0];
    previous_ = values[0];
    ++value_count_;
    i = 1;
  }
  while (i < n) {
    size_t take = kBlockSize - pending_deltas_.size();
    if (take > n - i) take = n - i;
    for (size_t j = 0; j < take; ++j) {
      const int64_t v = values[i + j];
      pending_deltas_.push_back(static_cast<int64_t>(
          static_cast<uint64_t>(v) - static_cast<uint64_t>(previous_)));
      previous_ = v;
    }
    i += take;
    value_count_ += take;
    if (pending_deltas_.size() == kBlockSize) FlushBlock();
  }
}

void DeltaInt64Encoder::FlushBlock() {
  if (pending_deltas_.empty()) return;
  int64_t min_delta = pending_deltas_[0];
  for (int64_t d : pending_deltas_) {
    if (d < min_delta) min_delta = d;
  }
  body_.AppendSignedVarint64(min_delta);
  std::vector<uint64_t> adjusted(pending_deltas_.size());
  uint64_t max_adjusted = 0;
  for (size_t i = 0; i < pending_deltas_.size(); ++i) {
    adjusted[i] = static_cast<uint64_t>(pending_deltas_[i]) -
                  static_cast<uint64_t>(min_delta);
    if (adjusted[i] > max_adjusted) max_adjusted = adjusted[i];
  }
  const int width = BitWidth(max_adjusted);
  body_.AppendByte(static_cast<uint8_t>(width));
  BitPack(adjusted.data(), adjusted.size(), width, &body_);
  pending_deltas_.clear();
}

void DeltaInt64Encoder::FinishInto(Buffer* out) {
  FlushBlock();
  out->AppendVarint64(value_count_);
  if (value_count_ > 0) {
    out->AppendSignedVarint64(first_value_);
    out->Append(body_.slice());
  }
}

void DeltaInt64Encoder::Clear() {
  value_count_ = 0;
  first_value_ = 0;
  previous_ = 0;
  pending_deltas_.clear();
  body_.clear();
}

Status DeltaInt64Decoder::Init(Slice input) {
  input_ = input;
  reader_ = BufferReader(input);
  position_ = 0;
  resume_in_block_ = 0;
  block_.clear();
  block_pos_ = 0;
  uint64_t count = 0;
  LSMCOL_RETURN_NOT_OK(reader_.ReadVarint64(&count));
  value_count_ = count;
  first_pending_ = value_count_ > 0;
  if (first_pending_) {
    LSMCOL_RETURN_NOT_OK(reader_.ReadSignedVarint64(&first_value_));
  }
  return Status::OK();
}

Status DeltaInt64Decoder::LoadBlock() {
  block_offset_ = offset();
  int64_t min_delta = 0;
  LSMCOL_RETURN_NOT_OK(reader_.ReadSignedVarint64(&min_delta));
  uint8_t width = 0;
  LSMCOL_RETURN_NOT_OK(reader_.ReadByte(&width));
  if (width > 64) return Status::Corruption("delta block bit width > 64");
  // LoadBlock runs only when the previous block is exhausted (or, after a
  // Restore, to resume inside this one), so the remaining deltas are
  // exactly the values left from the block's start. The final block is
  // short.
  const size_t deltas_remaining = value_count_ - position_ + resume_in_block_;
  const size_t n = deltas_remaining < DeltaInt64Encoder::kBlockSize
                       ? deltas_remaining
                       : DeltaInt64Encoder::kBlockSize;
  if (resume_in_block_ >= n && n > 0) {
    return Status::Corruption("delta mark out of range");
  }
  std::vector<uint64_t> raw(n);
  LSMCOL_RETURN_NOT_OK(BitUnpack(&reader_, n, width, raw.data()));
  block_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    block_[i] = static_cast<int64_t>(raw[i] + static_cast<uint64_t>(min_delta));
  }
  block_pos_ = resume_in_block_;
  resume_in_block_ = 0;
  return Status::OK();
}

DeltaInt64Decoder::Mark DeltaInt64Decoder::mark() const {
  Mark m;
  m.position = position_;
  m.previous = previous_;
  m.first_pending = first_pending_;
  if (block_pos_ < block_.size()) {
    m.offset = block_offset_;
    m.in_block = static_cast<uint32_t>(block_pos_);
  } else {
    m.offset = offset();
    m.in_block = static_cast<uint32_t>(resume_in_block_);
  }
  return m;
}

Status DeltaInt64Decoder::Restore(const Mark& m) {
  if (m.offset > input_.size() || m.position > value_count_ ||
      m.in_block >= DeltaInt64Encoder::kBlockSize ||
      m.in_block > m.position) {
    return Status::Corruption("delta mark out of range");
  }
  reader_ = BufferReader(input_.SubSlice(m.offset, input_.size() - m.offset));
  position_ = m.position;
  first_pending_ = m.first_pending;
  previous_ = m.previous;
  block_.clear();
  block_pos_ = 0;
  // The block is unpacked by the first read, if one comes.
  resume_in_block_ = m.in_block;
  return Status::OK();
}

Status DeltaInt64Decoder::EncodedSize(Slice input, size_t* size) {
  BufferReader reader(input);
  uint64_t count = 0;
  LSMCOL_RETURN_NOT_OK(reader.ReadVarint64(&count));
  if (count > 0) {
    int64_t first = 0;
    LSMCOL_RETURN_NOT_OK(reader.ReadSignedVarint64(&first));
  }
  for (uint64_t left = count > 0 ? count - 1 : 0; left > 0;) {
    const uint64_t n = std::min<uint64_t>(left, DeltaInt64Encoder::kBlockSize);
    int64_t min_delta = 0;
    uint8_t width = 0;
    LSMCOL_RETURN_NOT_OK(reader.ReadSignedVarint64(&min_delta));
    LSMCOL_RETURN_NOT_OK(reader.ReadByte(&width));
    if (width > 64) return Status::Corruption("delta block bit width > 64");
    LSMCOL_RETURN_NOT_OK(reader.Skip(BitPackedSize(n, width)));
    left -= n;
  }
  *size = input.size() - reader.remaining();
  return Status::OK();
}

Status DeltaInt64Decoder::Next(int64_t* out) {
  if (position_ >= value_count_) {
    return Status::OutOfRange("delta decoder exhausted");
  }
  if (first_pending_) {
    first_pending_ = false;
    previous_ = first_value_;
    *out = first_value_;
    ++position_;
    return Status::OK();
  }
  if (block_pos_ >= block_.size()) LSMCOL_RETURN_NOT_OK(LoadBlock());
  previous_ = static_cast<int64_t>(static_cast<uint64_t>(previous_) +
                                   static_cast<uint64_t>(block_[block_pos_]));
  ++block_pos_;
  ++position_;
  *out = previous_;
  return Status::OK();
}

Status DeltaInt64Decoder::Skip(size_t n) {
  // Deltas form a prefix-sum chain, so skipping still decodes each block,
  // but the chain only needs the running sum — fold whole blocks into
  // previous_ without surfacing values.
  if (n > remaining()) return Status::OutOfRange("delta skip past end");
  if (n > 0 && first_pending_) {
    first_pending_ = false;
    previous_ = first_value_;
    ++position_;
    --n;
  }
  uint64_t acc = static_cast<uint64_t>(previous_);
  while (n > 0) {
    if (block_pos_ >= block_.size()) {
      previous_ = static_cast<int64_t>(acc);
      LSMCOL_RETURN_NOT_OK(LoadBlock());
    }
    size_t take = block_.size() - block_pos_;
    if (take > n) take = n;
    const int64_t* deltas = block_.data() + block_pos_;
    for (size_t i = 0; i < take; ++i) acc += static_cast<uint64_t>(deltas[i]);
    block_pos_ += take;
    position_ += take;
    n -= take;
  }
  previous_ = static_cast<int64_t>(acc);
  return Status::OK();
}

Status DeltaInt64Decoder::DecodeBatch(size_t n, int64_t* out, size_t* decoded) {
  if (n > remaining()) n = remaining();
  size_t produced = 0;
  if (n > 0 && first_pending_) {
    first_pending_ = false;
    previous_ = first_value_;
    out[produced++] = first_value_;
    ++position_;
  }
  uint64_t acc = static_cast<uint64_t>(previous_);
  while (produced < n) {
    if (block_pos_ >= block_.size()) {
      previous_ = static_cast<int64_t>(acc);
      LSMCOL_RETURN_NOT_OK(LoadBlock());
    }
    size_t take = block_.size() - block_pos_;
    if (take > n - produced) take = n - produced;
    const int64_t* deltas = block_.data() + block_pos_;
    for (size_t i = 0; i < take; ++i) {
      acc += static_cast<uint64_t>(deltas[i]);
      out[produced + i] = static_cast<int64_t>(acc);
    }
    block_pos_ += take;
    position_ += take;
    produced += take;
  }
  previous_ = static_cast<int64_t>(acc);
  if (decoded != nullptr) *decoded = produced;
  return Status::OK();
}

Status DeltaInt64Decoder::DecodeAll(std::vector<int64_t>* out) {
  out->reserve(out->size() + remaining());
  while (remaining() > 0) {
    int64_t v;
    LSMCOL_RETURN_NOT_OK(Next(&v));
    out->push_back(v);
  }
  return Status::OK();
}

}  // namespace lsmcol
