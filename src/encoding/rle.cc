#include "src/encoding/rle.h"

#include <algorithm>

#include "src/encoding/bitpack.h"

namespace lsmcol {

RleEncoder::RleEncoder(int bit_width) : bit_width_(bit_width) {
  LSMCOL_CHECK(bit_width >= 0 && bit_width <= 32);
}

void RleEncoder::Add(uint64_t value) {
  ++value_count_;
  if (run_length_ == 0) {
    run_value_ = value;
    run_length_ = 1;
    return;
  }
  if (value == run_value_) {
    ++run_length_;
    return;
  }
  EmitRun();
  run_value_ = value;
  run_length_ = 1;
}

void RleEncoder::EmitRun() {
  if (run_length_ == 0) return;
  if (run_length_ >= kMinRleRun) {
    // Mid-stream bit-packed runs may only contain complete groups of 8
    // (padding would inject phantom values). Complete the open group by
    // borrowing leading values from this run; kMinRleRun > 7 guarantees
    // at least kMinRleRun - 7 values remain for the RLE run.
    while (buffered_.size() % 8 != 0) {
      buffered_.push_back(run_value_);
      --run_length_;
    }
    FlushBufferedAsBitPacked();
    FlushRle();
  } else {
    for (size_t i = 0; i < run_length_; ++i) buffered_.push_back(run_value_);
    run_length_ = 0;
  }
}

void RleEncoder::AddRun(uint64_t value, size_t count) {
  if (count == 0) return;
  if (run_length_ > 0 && value == run_value_) {
    // Extends the open candidate run; stays O(1) regardless of count.
    run_length_ += count;
    value_count_ += count;
    return;
  }
  if (count < kMinRleRun) {
    for (size_t i = 0; i < count; ++i) Add(value);
    return;
  }
  // Long run of a new value: retire the previous candidate and install the
  // whole run as the new one in a single step (the run-level merge feeds
  // def streams through here, so this path must not be per-value).
  EmitRun();
  run_value_ = value;
  run_length_ = count;
  value_count_ += count;
}

void RleEncoder::FlushRle() {
  if (run_length_ == 0) return;
  body_.AppendVarint64(static_cast<uint64_t>(run_length_) << 1);
  const int value_bytes = (bit_width_ + 7) / 8;
  uint64_t v = run_value_;
  for (int i = 0; i < value_bytes; ++i) {
    body_.AppendByte(static_cast<uint8_t>(v & 0xFF));
    v >>= 8;
  }
  run_length_ = 0;
}

void RleEncoder::FlushBufferedAsBitPacked() {
  if (buffered_.empty()) return;
  const size_t groups = (buffered_.size() + 7) / 8;
  buffered_.resize(groups * 8, 0);  // zero-pad the trailing group
  body_.AppendVarint64((static_cast<uint64_t>(groups) << 1) | 1);
  BitPack(buffered_.data(), buffered_.size(), bit_width_, &body_);
  buffered_.clear();
}

void RleEncoder::FinishInto(Buffer* out) {
  EmitRun();
  // Zero-padding the trailing group is safe only here: the decoder's value
  // count stops it before the padding.
  FlushBufferedAsBitPacked();
  out->AppendVarint64(value_count_);
  out->Append(body_.slice());
}

void RleEncoder::Clear() {
  value_count_ = 0;
  run_value_ = 0;
  run_length_ = 0;
  buffered_.clear();
  body_.clear();
}

Status RleDecoder::Init(Slice input, int bit_width) {
  input_ = input;
  reader_ = BufferReader(input);
  bit_width_ = bit_width;
  position_ = 0;
  in_rle_run_ = false;
  run_remaining_ = 0;
  unpacked_.clear();
  unpacked_pos_ = 0;
  packed_groups_left_ = 0;
  refill_groups_ = SIZE_MAX;
  uint64_t count = 0;
  LSMCOL_RETURN_NOT_OK(reader_.ReadVarint64(&count));
  value_count_ = count;
  return Status::OK();
}

Status RleDecoder::Refill() {
  if (packed_groups_left_ > 0) return UnpackGroups(refill_groups_);
  uint64_t header = 0;
  LSMCOL_RETURN_NOT_OK(reader_.ReadVarint64(&header));
  if ((header & 1) == 0) {
    in_rle_run_ = true;
    run_remaining_ = header >> 1;
    if (run_remaining_ == 0) return Status::Corruption("empty RLE run");
    const int value_bytes = (bit_width_ + 7) / 8;
    uint64_t v = 0;
    for (int i = 0; i < value_bytes; ++i) {
      uint8_t b = 0;
      LSMCOL_RETURN_NOT_OK(reader_.ReadByte(&b));
      v |= static_cast<uint64_t>(b) << (8 * i);
    }
    rle_value_ = v;
  } else {
    packed_groups_left_ = header >> 1;
    if (packed_groups_left_ == 0) {
      return Status::Corruption("empty bit-packed run");
    }
    LSMCOL_RETURN_NOT_OK(CheckPackedBytes(offset()));
    return UnpackGroups(refill_groups_);
  }
  return Status::OK();
}

Status RleDecoder::UnpackGroups(size_t max_groups) {
  // A group of 8 values packs into exactly bit_width_ bytes, so any group
  // boundary is a byte offset. Groups past the declared value count are
  // never read, so where unpacking starts (a Restore lands mid-run) does
  // not change which bytes a decode needs.
  const size_t groups =
      std::min({packed_groups_left_, max_groups, GroupsNeeded()});
  in_rle_run_ = false;
  unpacked_offset_ = offset();
  unpacked_.resize(groups * 8);
  LSMCOL_RETURN_NOT_OK(
      BitUnpack(&reader_, unpacked_.size(), bit_width_, unpacked_.data()));
  packed_groups_left_ -= groups;
  unpacked_pos_ = 0;
  run_remaining_ = unpacked_.size();
  return Status::OK();
}

size_t RleDecoder::GroupsNeeded() const {
  const size_t left = value_count_ - position_;
  return left / 8 + (left % 8 != 0 ? 1 : 0);
}

Status RleDecoder::CheckPackedBytes(size_t offset) const {
  // The run's groups up to the one holding the last declared value must
  // be present: a decode then succeeds or fails the same wherever in the
  // run it starts (sequentially, or from a Mark).
  const size_t groups = std::min(packed_groups_left_, GroupsNeeded());
  const auto bytes_per_group = static_cast<size_t>(bit_width_);
  if (bytes_per_group != 0 &&
      groups > (input_.size() - offset) / bytes_per_group) {
    return Status::Corruption("bit-packed run runs past its input");
  }
  return Status::OK();
}

RleDecoder::Mark RleDecoder::mark() const {
  Mark m;
  m.position = position_;
  if (run_remaining_ == 0) {
    m.offset = offset();
    m.run = packed_groups_left_;
    m.kind = packed_groups_left_ > 0 ? Mark::kPacked : Mark::kBetweenRuns;
  } else if (in_rle_run_) {
    m.offset = offset();
    m.run = run_remaining_;
    m.value = static_cast<uint32_t>(rle_value_);
    m.kind = Mark::kRle;
  } else {
    const size_t group = unpacked_pos_ / 8;
    m.offset = unpacked_offset_ + group * static_cast<size_t>(bit_width_);
    m.run = packed_groups_left_ + unpacked_.size() / 8 - group;
    m.value = static_cast<uint32_t>(unpacked_pos_ % 8);
    m.kind = Mark::kPacked;
  }
  return m;
}

// A seek walks fewer than 64 records from its checkpoint.
constexpr size_t kRestoredRefillGroups = 8;

Status RleDecoder::Restore(const Mark& m) {
  if (m.offset > input_.size() || m.position > value_count_) {
    return Status::Corruption("RLE mark out of range");
  }
  reader_ = BufferReader(input_.SubSlice(m.offset, input_.size() - m.offset));
  position_ = m.position;
  run_remaining_ = 0;
  packed_groups_left_ = 0;
  refill_groups_ = kRestoredRefillGroups;
  switch (m.kind) {
    case Mark::kBetweenRuns:
      return Status::OK();
    case Mark::kRle:
      in_rle_run_ = true;
      rle_value_ = m.value;
      run_remaining_ = m.run;
      return Status::OK();
    case Mark::kPacked:
      if (m.run == 0 || m.value >= 8 || m.value > m.position) {
        return Status::Corruption("RLE mark out of range");
      }
      packed_groups_left_ = m.run;
      position_ = m.position - m.value;  // the group's first value
      LSMCOL_RETURN_NOT_OK(CheckPackedBytes(m.offset));
      if (m.value == 0) return Status::OK();  // unpacked on the next read
      LSMCOL_RETURN_NOT_OK(UnpackGroups(1));
      position_ = m.position;
      unpacked_pos_ = m.value;
      run_remaining_ -= m.value;
      return Status::OK();
  }
  return Status::Corruption("RLE mark out of range");
}

Status RleDecoder::Next(uint64_t* out) {
  if (position_ >= value_count_) {
    return Status::OutOfRange("RLE decoder exhausted");
  }
  if (run_remaining_ == 0) LSMCOL_RETURN_NOT_OK(Refill());
  if (in_rle_run_) {
    *out = rle_value_;
  } else {
    *out = unpacked_[unpacked_pos_++];
  }
  --run_remaining_;
  ++position_;
  return Status::OK();
}

Status RleDecoder::Skip(size_t n) {
  if (n > remaining()) return Status::OutOfRange("RLE skip past end");
  while (n > 0) {
    if (run_remaining_ == 0) LSMCOL_RETURN_NOT_OK(Refill());
    size_t take = n < run_remaining_ ? n : run_remaining_;
    // The trailing bit-packed group may be padded past value_count_;
    // position_ accounting keeps us from reading the padding.
    if (!in_rle_run_) unpacked_pos_ += take;
    run_remaining_ -= take;
    position_ += take;
    n -= take;
  }
  return Status::OK();
}

Status RleDecoder::DecodeBatch(size_t n, uint64_t* out, size_t* decoded) {
  if (n > remaining()) n = remaining();
  size_t produced = 0;
  while (produced < n) {
    if (run_remaining_ == 0) LSMCOL_RETURN_NOT_OK(Refill());
    size_t take = n - produced;
    if (take > run_remaining_) take = run_remaining_;
    if (in_rle_run_) {
      for (size_t i = 0; i < take; ++i) out[produced + i] = rle_value_;
    } else {
      const uint64_t* src = unpacked_.data() + unpacked_pos_;
      for (size_t i = 0; i < take; ++i) out[produced + i] = src[i];
      unpacked_pos_ += take;
    }
    run_remaining_ -= take;
    position_ += take;
    produced += take;
  }
  if (decoded != nullptr) *decoded = produced;
  return Status::OK();
}

Status RleDecoder::SkipAndCount(size_t n, uint64_t target, size_t* count) {
  if (n > remaining()) return Status::OutOfRange("RLE skip past end");
  size_t matched = 0;
  while (n > 0) {
    if (run_remaining_ == 0) LSMCOL_RETURN_NOT_OK(Refill());
    size_t take = n < run_remaining_ ? n : run_remaining_;
    if (in_rle_run_) {
      if (rle_value_ == target) matched += take;
    } else {
      const uint64_t* src = unpacked_.data() + unpacked_pos_;
      for (size_t i = 0; i < take; ++i) matched += (src[i] == target) ? 1 : 0;
      unpacked_pos_ += take;
    }
    run_remaining_ -= take;
    position_ += take;
    n -= take;
  }
  *count = matched;
  return Status::OK();
}

Status RleDecoder::DecodeAll(std::vector<uint64_t>* out) {
  out->reserve(out->size() + remaining());
  while (remaining() > 0) {
    uint64_t v;
    LSMCOL_RETURN_NOT_OK(Next(&v));
    out->push_back(v);
  }
  return Status::OK();
}

}  // namespace lsmcol
