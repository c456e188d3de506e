// RLE / bit-packed hybrid codec (Parquet-style) for small unsigned integers
// with a known maximum bit width. Used for definition levels (including the
// delimiter values of the extended Dremel format, §3.2.1) and for boolean
// columns (bit width 1).
//
// Wire format, after a varint value count:
//   repeated runs, each starting with a varint header h:
//     h & 1 == 0:  RLE run. count = h >> 1, followed by the repeated value
//                  in ceil(bit_width / 8) little-endian bytes.
//     h & 1 == 1:  bit-packed run. group_count = h >> 1, followed by
//                  group_count * 8 values bit-packed (the trailing group of
//                  the final run may be padded with zeros).

#ifndef LSMCOL_ENCODING_RLE_H_
#define LSMCOL_ENCODING_RLE_H_

#include <cstdint>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/status.h"

namespace lsmcol {

/// Streaming encoder. Values must satisfy v < 2^bit_width. Call Add for
/// each value, then FinishInto exactly once.
class RleEncoder {
 public:
  explicit RleEncoder(int bit_width);

  void Add(uint64_t value);
  void AddRun(uint64_t value, size_t count);

  size_t value_count() const { return value_count_; }

  /// Append the encoded stream (with its varint count header) to out.
  void FinishInto(Buffer* out);

  /// Reset to an empty stream (reusable across pages).
  void Clear();

 private:
  // Must exceed 7 so completing a bit-packed group never exhausts a run.
  static constexpr size_t kMinRleRun = 16;

  void EmitRun();
  void FlushBufferedAsBitPacked();
  void FlushRle();

  int bit_width_;
  size_t value_count_ = 0;
  // Current candidate RLE run.
  uint64_t run_value_ = 0;
  size_t run_length_ = 0;
  // Values pending in an open bit-packed run (multiple of 8 flushed).
  std::vector<uint64_t> buffered_;
  Buffer body_;
};

/// Streaming decoder with O(1)-amortized Skip. Reads the varint count
/// header on Init. A bit-packed run is unpacked whole when reached;
/// restoring a Mark inside one unpacks just the group it lands in, and the
/// next refill the rest of the run.
///
/// Batch-API invariants (shared by DecodeBatch/VisitRuns/SkipAndCount):
///  * they consume exactly the requested number of values (clamped to
///    remaining()), never more, and interleave freely with Next/Skip;
///  * an encoded run crossing a batch boundary is resumed on the next
///    call — batch boundaries are invisible in the decoded stream.
class RleDecoder {
 public:
  /// The decoder's position, restorable without decoding from the start:
  /// where its next byte is and what is left of the run it stands in.
  /// Trivially copyable, so seek tables store it as raw bytes.
  struct Mark {
    enum Kind : uint8_t { kBetweenRuns, kRle, kPacked };
    uint64_t offset = 0;    ///< next input byte; kPacked: current group
    uint64_t position = 0;  ///< values consumed
    uint64_t run = 0;       ///< kRle: values left; kPacked: groups left
    uint32_t value = 0;     ///< kRle: run value; kPacked: index in group
    Kind kind = kBetweenRuns;
  };

  RleDecoder() = default;

  Status Init(Slice input, int bit_width);

  /// The current position; Restore(mark) returns to it (same input).
  Mark mark() const;
  Status Restore(const Mark& mark);

  size_t value_count() const { return value_count_; }
  size_t remaining() const { return value_count_ - position_; }

  Status Next(uint64_t* out);
  Status Skip(size_t n);

  /// Decode exactly min(n, remaining()) values into out[0..]; *decoded
  /// reports how many were written. RLE runs are expanded with a fill
  /// loop, bit-packed regions are copied — no per-value call overhead.
  Status DecodeBatch(size_t n, uint64_t* out, size_t* decoded);

  /// Decode exactly min(n, remaining()) values as the stream stores them:
  /// on_run(value, count) for a stretch of an RLE run, and
  /// on_packed(values, count) for a stretch of bit-packed values (the
  /// array is valid during the call). A stretch ends at an encoded-run or
  /// batch boundary, so an RLE run costs one call however long it is,
  /// and bit-packed values cost no per-value coalescing.
  template <typename OnRun, typename OnPacked>
  Status VisitRuns(size_t n, OnRun&& on_run, OnPacked&& on_packed) {
    if (n > remaining()) n = remaining();
    while (n > 0) {
      if (run_remaining_ == 0) LSMCOL_RETURN_NOT_OK(Refill());
      const size_t take = n < run_remaining_ ? n : run_remaining_;
      if (in_rle_run_) {
        on_run(rle_value_, take);
      } else {
        on_packed(unpacked_.data() + unpacked_pos_, take);
        unpacked_pos_ += take;
      }
      run_remaining_ -= take;
      position_ += take;
      n -= take;
    }
    return Status::OK();
  }

  /// Skip exactly n values while counting how many equal `target` —
  /// run-granular: an RLE run contributes in O(1). Used to advance a
  /// value decoder past skipped records (count = values present).
  Status SkipAndCount(size_t n, uint64_t target, size_t* count);

  /// Decode all remaining values into out (appending).
  Status DecodeAll(std::vector<uint64_t>* out);

 private:
  Status Refill();
  /// Unpack the next min(packed_groups_left_, max_groups) groups (never
  /// past the group holding the last declared value).
  Status UnpackGroups(size_t max_groups = SIZE_MAX);
  size_t offset() const { return input_.size() - reader_.remaining(); }
  /// Groups holding the values left to decode.
  size_t GroupsNeeded() const;
  /// Corruption unless the packed run at `offset` holds every group
  /// GroupsNeeded() asks of it.
  Status CheckPackedBytes(size_t offset) const;

  Slice input_;
  BufferReader reader_{Slice()};
  int bit_width_ = 0;
  size_t value_count_ = 0;
  size_t position_ = 0;
  // Current run state.
  bool in_rle_run_ = false;
  uint64_t rle_value_ = 0;
  size_t run_remaining_ = 0;  // values left in current run (either kind)
  // Bit-packed run: the unpacked groups, and where they start.
  std::vector<uint64_t> unpacked_;
  size_t unpacked_pos_ = 0;
  size_t unpacked_offset_ = 0;
  size_t packed_groups_left_ = 0;  // of the run, not yet unpacked
  /// Groups a Refill unpacks at most: all of the run after Init, a few
  /// after a Restore. A restored decoder serves a seek, which reads a few
  /// dozen values; unpacking the rest of a long bit-packed run would cost
  /// more than the seek.
  size_t refill_groups_ = SIZE_MAX;
};

}  // namespace lsmcol

#endif  // LSMCOL_ENCODING_RLE_H_
