// String codecs:
//  * DELTA_LENGTH_BYTE_ARRAY — all lengths delta-binary-packed up front,
//    followed by the concatenated bytes. The default for string columns.
//  * DELTA_BYTE_ARRAY ("delta strings") — incremental front coding: per
//    value, the prefix length shared with the previous value plus the
//    suffix. Wins on sorted or highly repetitive strings; offered for the
//    encoding ablation and for sorted key columns.

#ifndef LSMCOL_ENCODING_STRINGS_H_
#define LSMCOL_ENCODING_STRINGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/status.h"
#include "src/encoding/delta.h"

namespace lsmcol {

/// DELTA_LENGTH_BYTE_ARRAY encoder.
class DeltaLengthStringEncoder {
 public:
  void Add(Slice value) {
    lengths_.Add(static_cast<int64_t>(value.size()));
    bytes_.Append(value);
  }
  /// Append n values at once. When the slices are back-to-back views over
  /// one buffer (as DeltaLengthStringDecoder::NextBatch returns them) the
  /// payload moves with a single copy instead of one per value.
  void AddBatch(const Slice* values, size_t n) {
    if (n == 0) return;
    bool contiguous = true;
    size_t total = values[0].size();
    for (size_t i = 1; i < n; ++i) {
      contiguous = contiguous &&
                   values[i - 1].data() + values[i - 1].size() ==
                       values[i].data();
      total += values[i].size();
    }
    for (size_t i = 0; i < n; ++i) {
      lengths_.Add(static_cast<int64_t>(values[i].size()));
    }
    if (contiguous) {
      bytes_.Append(Slice(values[0].data(), total));
    } else {
      for (size_t i = 0; i < n; ++i) bytes_.Append(values[i]);
    }
  }
  size_t value_count() const { return lengths_.value_count(); }
  /// Approximate encoded size so far (for page-budget decisions).
  size_t EstimatedSize() const { return bytes_.size() + value_count() * 2; }

  void FinishInto(Buffer* out) {
    lengths_.FinishInto(out);
    out->Append(bytes_.slice());
  }
  void Clear() {
    lengths_.Clear();
    bytes_.clear();
  }

 private:
  DeltaInt64Encoder lengths_;
  Buffer bytes_;
};

/// DELTA_LENGTH_BYTE_ARRAY decoder; values are returned as Slices into the
/// input buffer (zero-copy), so the input must outlive the decoder.
///
/// Lengths are decoded lazily, as values are read: Init reads only the
/// value count, the first read walks the length stream's block headers to
/// find the payload, and restoring a Mark does not even do that. Each
/// length is checked when it is read — a negative one, or one running
/// past the payload, returns Corruption from the read that reaches it — so
/// reading every value validates the whole stream.
///
/// Batch-API invariant: the batched accessors consume exactly
/// min(n, remaining()) values and interleave freely with Next/Skip.
class DeltaLengthStringDecoder {
 public:
  /// The decoder's position: the length stream's, and the next value's
  /// offset in the input (0 while the payload is not located yet).
  struct Mark {
    DeltaInt64Decoder::Mark lengths;
    uint64_t byte_pos = 0;
  };

  Status Init(Slice input);

  size_t value_count() const { return lengths_.value_count(); }
  size_t remaining() const { return lengths_.remaining(); }

  Mark mark() const { return Mark{lengths_.mark(), byte_pos_}; }
  Status Restore(const Mark& mark);

  Status Next(Slice* out);
  Status Skip(size_t n);

  /// Zero-copy batch: *lengths points at the next n entry lengths (valid
  /// until the next call) and *payload covers exactly their concatenated
  /// bytes — one contiguous slice, no per-value splitting. Consumes the
  /// values; n must be <= remaining().
  Status NextBatchRaw(size_t n, const int64_t** lengths, Slice* payload);

  /// Decode exactly min(n, remaining()) values as Slices into out[0..];
  /// *decoded reports how many were written.
  Status NextBatch(size_t n, Slice* out, size_t* decoded);

 private:
  /// Point byte_pos_ at the payload (after the length stream) if unset.
  Status LocatePayload();
  /// Decode the next n lengths into batch_ and check them against the
  /// payload; *total is their sum.
  Status ReadLengths(size_t n, size_t* total);

  Slice input_;
  DeltaInt64Decoder lengths_;  // reads from the front of input_
  std::vector<int64_t> batch_;
  size_t byte_pos_ = 0;  // offset in input_; 0 = payload not located yet
};

/// DELTA_BYTE_ARRAY (front-coded) encoder.
class DeltaStringEncoder {
 public:
  void Add(Slice value);
  size_t value_count() const { return prefix_lengths_.value_count(); }
  void FinishInto(Buffer* out);
  void Clear();

 private:
  DeltaInt64Encoder prefix_lengths_;
  DeltaInt64Encoder suffix_lengths_;
  Buffer suffixes_;
  std::string previous_;
};

/// DELTA_BYTE_ARRAY decoder. Values are materialized into an internal
/// string (front coding needs the previous value), returned by reference.
class DeltaStringDecoder {
 public:
  Status Init(Slice input);

  size_t value_count() const { return value_count_; }
  size_t remaining() const { return value_count_ - position_; }

  /// The returned Slice points into internal storage valid until the next
  /// Next/Skip call.
  Status Next(Slice* out);
  Status Skip(size_t n);

 private:
  std::vector<int64_t> prefix_lengths_;
  std::vector<int64_t> suffix_lengths_;
  Slice suffixes_;
  size_t suffix_pos_ = 0;
  std::string current_;
  size_t value_count_ = 0;
  size_t position_ = 0;
};

}  // namespace lsmcol

#endif  // LSMCOL_ENCODING_STRINGS_H_
