// Buffer: growable byte buffer with append-side codecs, and BufferReader:
// a cursor over a Slice with checked decode helpers. These are the two
// workhorses of every on-disk format in lsmcol.

#ifndef LSMCOL_COMMON_BUFFER_H_
#define LSMCOL_COMMON_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"

namespace lsmcol {

/// std::allocator that default-initializes: a vector growing through
/// resize(n) without a fill value leaves the new bytes uninitialized.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}  // NOLINT

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Growable, contiguous byte buffer. Appends never fail (they grow the
/// backing store); absolute writes require the offset to be in range.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(size_t reserve) { data_.reserve(reserve); }

  const char* data() const { return data_.data(); }
  char* mutable_data() { return data_.data(); }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  void clear() { data_.clear(); }
  void reserve(size_t n) { data_.reserve(n); }
  /// Drops spare capacity (reallocates and copies when there is any).
  void ShrinkToFit() { data_.shrink_to_fit(); }
  /// Growth zero-fills the new bytes; shrinking keeps the prefix.
  void resize(size_t n) { data_.resize(n, '\0'); }

  /// Grows by n bytes left uninitialized and returns a pointer to the
  /// first; the caller must write all n (or resize() them away).
  char* AppendUninitialized(size_t n) {
    const size_t old = data_.size();
    data_.resize(old + n);
    return data_.data() + old;
  }

  Slice slice() const { return Slice(data_.data(), data_.size()); }

  void Append(const void* src, size_t n) {
    if (n == 0) return;
    // src may point into this buffer: keep its offset across a regrowth.
    const uintptr_t offset = reinterpret_cast<uintptr_t>(src) -
                             reinterpret_cast<uintptr_t>(data_.data());
    const bool inside = offset < data_.size();
    char* dst = AppendUninitialized(n);
    std::memcpy(dst, inside ? data_.data() + offset : src, n);
  }
  void Append(Slice s) { Append(s.data(), s.size()); }
  void AppendByte(uint8_t b) { data_.push_back(static_cast<char>(b)); }
  void AppendZeros(size_t n) { data_.insert(data_.end(), n, '\0'); }

  void AppendFixed32(uint32_t v) {
    char tmp[4];
    EncodeFixed32(tmp, v);
    Append(tmp, 4);
  }
  void AppendFixed64(uint64_t v) {
    char tmp[8];
    EncodeFixed64(tmp, v);
    Append(tmp, 8);
  }
  void AppendDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    AppendFixed64(bits);
  }

  /// LEB128 unsigned varint (1-10 bytes).
  void AppendVarint64(uint64_t v) {
    while (v >= 0x80) {
      AppendByte(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    AppendByte(static_cast<uint8_t>(v));
  }
  void AppendVarint32(uint32_t v) { AppendVarint64(v); }
  void AppendSignedVarint64(int64_t v) { AppendVarint64(ZigZagEncode(v)); }

  /// Varint length prefix followed by the bytes.
  void AppendLengthPrefixed(Slice s) {
    AppendVarint64(s.size());
    Append(s);
  }

  /// Overwrite 4 bytes at an absolute offset (used to backpatch sizes).
  void PatchFixed32(size_t offset, uint32_t v) {
    LSMCOL_DCHECK(offset + 4 <= data_.size());
    EncodeFixed32(data_.data() + offset, v);
  }

 private:
  std::vector<char, DefaultInitAllocator<char>> data_;
};

/// Checked sequential reader over a Slice. All Read* methods return
/// Corruption when the input is exhausted or malformed.
class BufferReader {
 public:
  explicit BufferReader(Slice input) : input_(input) {}

  size_t remaining() const { return input_.size(); }
  bool empty() const { return input_.empty(); }
  Slice rest() const { return input_; }

  Status ReadFixed32(uint32_t* out) {
    if (input_.size() < 4) return Truncated("fixed32");
    *out = DecodeFixed32(input_.data());
    input_.RemovePrefix(4);
    return Status::OK();
  }
  Status ReadFixed64(uint64_t* out) {
    if (input_.size() < 8) return Truncated("fixed64");
    *out = DecodeFixed64(input_.data());
    input_.RemovePrefix(8);
    return Status::OK();
  }
  Status ReadDouble(double* out) {
    uint64_t bits = 0;
    LSMCOL_RETURN_NOT_OK(ReadFixed64(&bits));
    std::memcpy(out, &bits, 8);
    return Status::OK();
  }
  Status ReadByte(uint8_t* out) {
    if (input_.empty()) return Truncated("byte");
    *out = static_cast<uint8_t>(input_[0]);
    input_.RemovePrefix(1);
    return Status::OK();
  }
  Status ReadVarint64(uint64_t* out) {
    uint64_t result = 0;
    for (int shift = 0; shift <= 63; shift += 7) {
      if (input_.empty()) return Truncated("varint64");
      uint8_t byte = static_cast<uint8_t>(input_[0]);
      input_.RemovePrefix(1);
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = result;
        return Status::OK();
      }
    }
    return Status::Corruption("varint64 too long");
  }
  Status ReadVarint32(uint32_t* out) {
    uint64_t v;
    LSMCOL_RETURN_NOT_OK(ReadVarint64(&v));
    if (v > UINT32_MAX) return Status::Corruption("varint32 overflow");
    *out = static_cast<uint32_t>(v);
    return Status::OK();
  }
  Status ReadSignedVarint64(int64_t* out) {
    uint64_t v = 0;
    LSMCOL_RETURN_NOT_OK(ReadVarint64(&v));
    *out = ZigZagDecode(v);
    return Status::OK();
  }
  Status ReadBytes(size_t n, Slice* out) {
    if (input_.size() < n) return Truncated("bytes");
    *out = Slice(input_.data(), n);
    input_.RemovePrefix(n);
    return Status::OK();
  }
  Status ReadLengthPrefixed(Slice* out) {
    uint64_t len = 0;
    LSMCOL_RETURN_NOT_OK(ReadVarint64(&len));
    return ReadBytes(len, out);
  }
  Status Skip(size_t n) {
    if (input_.size() < n) return Truncated("skip");
    input_.RemovePrefix(n);
    return Status::OK();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::Corruption(std::string("truncated input reading ") + what);
  }

  Slice input_;
};

}  // namespace lsmcol

#endif  // LSMCOL_COMMON_BUFFER_H_
