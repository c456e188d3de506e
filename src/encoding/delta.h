// Delta binary-packed codec for int64 values (Parquet DELTA_BINARY_PACKED,
// simplified to one miniblock per block).
//
// Wire format:
//   varint   value_count
//   if value_count > 0:
//     signed-varint first_value
//     blocks of up to kBlockSize deltas, each:
//       signed-varint min_delta
//       byte          bit_width
//       bit-packed    (delta - min_delta) for each value in the block
//
// Monotone sequences (timestamps, primary keys) collapse to almost nothing;
// random data degrades to ~64 bits/value, matching plain encoding.

#ifndef LSMCOL_ENCODING_DELTA_H_
#define LSMCOL_ENCODING_DELTA_H_

#include <cstdint>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/status.h"

namespace lsmcol {

/// Streaming delta encoder for int64.
class DeltaInt64Encoder {
 public:
  static constexpr size_t kBlockSize = 64;

  void Add(int64_t value);
  /// Append n values with block-at-a-time delta accumulation — the batch
  /// entry point the run-level merge copy path feeds decoded spans into.
  void AddBatch(const int64_t* values, size_t n);
  size_t value_count() const { return value_count_; }
  void FinishInto(Buffer* out);
  void Clear();

 private:
  void FlushBlock();

  size_t value_count_ = 0;
  int64_t first_value_ = 0;
  int64_t previous_ = 0;
  std::vector<int64_t> pending_deltas_;
  Buffer body_;
};

/// Streaming delta decoder with block-granular Skip.
///
/// Batch-API invariant: DecodeBatch consumes exactly min(n, remaining())
/// values and interleaves freely with Next/Skip; encoded blocks crossing
/// a batch boundary are resumed transparently on the next call.
class DeltaInt64Decoder {
 public:
  /// The decoder's position, restorable without decoding from the start:
  /// the current block's offset, the index in it, and the running value
  /// of the delta chain. Trivially copyable (seek tables store raw bytes).
  struct Mark {
    uint64_t offset = 0;    ///< the current block's header (or next block)
    uint64_t position = 0;  ///< values consumed
    int64_t previous = 0;   ///< last value reconstructed
    uint32_t in_block = 0;  ///< deltas consumed from the block at `offset`
    bool first_pending = false;
  };

  Status Init(Slice input);

  /// The current position; Restore(mark) returns to it (same input).
  Mark mark() const;
  Status Restore(const Mark& mark);

  /// Byte size of the encoded stream at the front of `input`, found by
  /// walking the block headers without unpacking any delta.
  static Status EncodedSize(Slice input, size_t* size);

  size_t value_count() const { return value_count_; }
  size_t remaining() const { return value_count_ - position_; }

  Status Next(int64_t* out);
  Status Skip(size_t n);

  /// Decode exactly min(n, remaining()) values into out[0..]; *decoded
  /// reports how many were written. Prefix sums run block-at-a-time with
  /// no per-value call overhead.
  Status DecodeBatch(size_t n, int64_t* out, size_t* decoded);

  Status DecodeAll(std::vector<int64_t>* out);

  /// Unconsumed bytes after the encoded stream. Valid once all values have
  /// been decoded; used by composite formats that append payloads after a
  /// delta-encoded stream.
  Slice rest() const { return reader_.rest(); }

 private:
  Status LoadBlock();
  size_t offset() const { return input_.size() - reader_.remaining(); }

  Slice input_;
  BufferReader reader_{Slice()};
  size_t value_count_ = 0;
  size_t position_ = 0;
  int64_t previous_ = 0;  // last reconstructed value
  bool first_pending_ = false;
  int64_t first_value_ = 0;
  std::vector<int64_t> block_;  // decoded deltas of the current block
  size_t block_pos_ = 0;
  size_t block_offset_ = 0;     // where the current block's header starts
  size_t resume_in_block_ = 0;  // after Restore: deltas of the next block
                                // already consumed
};

}  // namespace lsmcol

#endif  // LSMCOL_ENCODING_DELTA_H_
