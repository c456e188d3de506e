#include "src/encoding/strings.h"

#include <algorithm>

namespace lsmcol {

Status DeltaLengthStringDecoder::Init(Slice input) {
  input_ = input;
  byte_pos_ = 0;
  return lengths_.Init(input);
}

Status DeltaLengthStringDecoder::LocatePayload() {
  if (byte_pos_ != 0) return Status::OK();
  return DeltaInt64Decoder::EncodedSize(input_, &byte_pos_);
}

Status DeltaLengthStringDecoder::Restore(const Mark& mark) {
  if (mark.byte_pos > input_.size()) {
    return Status::Corruption("string mark out of range");
  }
  LSMCOL_RETURN_NOT_OK(lengths_.Restore(mark.lengths));
  byte_pos_ = mark.byte_pos;
  return Status::OK();
}

Status DeltaLengthStringDecoder::ReadLengths(size_t n, size_t* total) {
  LSMCOL_RETURN_NOT_OK(LocatePayload());
  batch_.resize(n);
  LSMCOL_RETURN_NOT_OK(lengths_.DecodeBatch(n, batch_.data(), nullptr));
  const size_t available = input_.size() - byte_pos_;
  size_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t len = batch_[i];
    if (len < 0) return Status::Corruption("negative string length");
    if (static_cast<uint64_t>(len) > available - sum) {
      return Status::Corruption("string payload shorter than lengths imply");
    }
    sum += static_cast<size_t>(len);
  }
  *total = sum;
  return Status::OK();
}

Status DeltaLengthStringDecoder::Next(Slice* out) {
  if (remaining() == 0) return Status::OutOfRange("string decoder exhausted");
  LSMCOL_RETURN_NOT_OK(LocatePayload());
  int64_t len = 0;
  LSMCOL_RETURN_NOT_OK(lengths_.Next(&len));
  if (len < 0) return Status::Corruption("negative string length");
  if (static_cast<uint64_t>(len) > input_.size() - byte_pos_) {
    return Status::Corruption("string payload shorter than lengths imply");
  }
  *out = input_.SubSlice(byte_pos_, static_cast<size_t>(len));
  byte_pos_ += static_cast<size_t>(len);
  return Status::OK();
}

Status DeltaLengthStringDecoder::Skip(size_t n) {
  if (n > remaining()) return Status::OutOfRange("string skip past end");
  // Lengths in bounded steps: a skip costs no n-sized scratch.
  constexpr size_t kStep = DeltaInt64Encoder::kBlockSize;
  while (n > 0) {
    const size_t take = std::min(n, kStep);
    size_t total = 0;
    LSMCOL_RETURN_NOT_OK(ReadLengths(take, &total));
    byte_pos_ += total;
    n -= take;
  }
  return Status::OK();
}

Status DeltaLengthStringDecoder::NextBatchRaw(size_t n, const int64_t** lengths,
                                              Slice* payload) {
  if (n > remaining()) return Status::OutOfRange("string batch past end");
  size_t total = 0;
  LSMCOL_RETURN_NOT_OK(ReadLengths(n, &total));
  *lengths = batch_.data();
  *payload = input_.SubSlice(byte_pos_, total);
  byte_pos_ += total;
  return Status::OK();
}

Status DeltaLengthStringDecoder::NextBatch(size_t n, Slice* out,
                                           size_t* decoded) {
  if (n > remaining()) n = remaining();
  const int64_t* lengths = nullptr;
  Slice payload;
  LSMCOL_RETURN_NOT_OK(NextBatchRaw(n, &lengths, &payload));
  size_t offset = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t len = static_cast<size_t>(lengths[i]);
    out[i] = payload.SubSlice(offset, len);
    offset += len;
  }
  if (decoded != nullptr) *decoded = n;
  return Status::OK();
}

void DeltaStringEncoder::Add(Slice value) {
  size_t prefix = 0;
  const size_t max_prefix =
      previous_.size() < value.size() ? previous_.size() : value.size();
  while (prefix < max_prefix && previous_[prefix] == value[prefix]) ++prefix;
  prefix_lengths_.Add(static_cast<int64_t>(prefix));
  suffix_lengths_.Add(static_cast<int64_t>(value.size() - prefix));
  suffixes_.Append(value.data() + prefix, value.size() - prefix);
  previous_.assign(value.data(), value.size());
}

void DeltaStringEncoder::FinishInto(Buffer* out) {
  prefix_lengths_.FinishInto(out);
  suffix_lengths_.FinishInto(out);
  out->Append(suffixes_.slice());
}

void DeltaStringEncoder::Clear() {
  prefix_lengths_.Clear();
  suffix_lengths_.Clear();
  suffixes_.clear();
  previous_.clear();
}

Status DeltaStringDecoder::Init(Slice input) {
  prefix_lengths_.clear();
  suffix_lengths_.clear();
  position_ = 0;
  suffix_pos_ = 0;
  current_.clear();
  DeltaInt64Decoder prefix_decoder;
  LSMCOL_RETURN_NOT_OK(prefix_decoder.Init(input));
  LSMCOL_RETURN_NOT_OK(prefix_decoder.DecodeAll(&prefix_lengths_));
  DeltaInt64Decoder suffix_decoder;
  LSMCOL_RETURN_NOT_OK(suffix_decoder.Init(prefix_decoder.rest()));
  LSMCOL_RETURN_NOT_OK(suffix_decoder.DecodeAll(&suffix_lengths_));
  suffixes_ = suffix_decoder.rest();
  if (prefix_lengths_.size() != suffix_lengths_.size()) {
    return Status::Corruption("prefix/suffix count mismatch");
  }
  value_count_ = prefix_lengths_.size();
  return Status::OK();
}

Status DeltaStringDecoder::Next(Slice* out) {
  if (position_ >= value_count_) {
    return Status::OutOfRange("delta string decoder exhausted");
  }
  const int64_t prefix = prefix_lengths_[position_];
  const int64_t suffix = suffix_lengths_[position_];
  if (prefix < 0 || suffix < 0 ||
      static_cast<size_t>(prefix) > current_.size() ||
      suffix_pos_ + static_cast<size_t>(suffix) > suffixes_.size()) {
    return Status::Corruption("invalid front-coding lengths");
  }
  current_.resize(static_cast<size_t>(prefix));
  current_.append(suffixes_.data() + suffix_pos_, static_cast<size_t>(suffix));
  suffix_pos_ += static_cast<size_t>(suffix);
  ++position_;
  *out = Slice(current_);
  return Status::OK();
}

Status DeltaStringDecoder::Skip(size_t n) {
  // Front coding chains values, so Skip must still reconstruct each one.
  Slice scratch;
  for (size_t i = 0; i < n; ++i) {
    LSMCOL_RETURN_NOT_OK(Next(&scratch));
  }
  return Status::OK();
}

}  // namespace lsmcol
