// Byte-oriented LZ77 compressor used for page-level compression — the
// repo's substitute for Snappy (§6; docs/FORMAT.md, "Encoding framings").
// Greedy single-probe hash matcher over a 64 KiB window; format:
//   varint uncompressed_length
//   tokens (one raw tag byte each):
//     tag & 1 == 0: literal run, length = tag >> 1 (1..127), bytes follow
//                   (long runs use repeated tokens)
//     tag & 1 == 1: match, length = (tag >> 1) + 4 (4..131), then a varint
//                   back-offset (1 .. 65535)
// Like Snappy, it compresses row pages (repeated field names, JSON syntax)
// well, and already-encoded column pages poorly — which is exactly the
// behaviour the paper's storage results depend on.

#ifndef LSMCOL_ENCODING_LZ_H_
#define LSMCOL_ENCODING_LZ_H_

#include "src/common/buffer.h"
#include "src/common/status.h"

namespace lsmcol {

/// Compress input, appending to out. Always succeeds; incompressible data
/// grows by at most ~1/127 plus the header (adversarial inputs by up to
/// ~1/5, see LzMaxCompressedSize).
void LzCompress(Slice input, Buffer* out);

/// Decompress a stream produced by LzCompress, appending exactly its
/// declared length to out. Any malformed input returns Corruption and
/// leaves out unchanged. An LzDecoder run to the stream's end.
Status LzDecompress(Slice input, Buffer* out);

/// Resumable decoding of one LzCompress stream: decodes a prefix of the
/// output on demand, whole tokens at a time, so a reader that needs only
/// the start of a page decodes only that. The output buffer likewise
/// holds only about as much as has been asked for: it grows, moving
/// data(), when a request needs more room than Reserve gave it.
class LzDecoder {
 public:
  /// Start decoding `input` into `out`, after the bytes `out` already
  /// holds; reads only the header. Neither is copied or owned: `input`
  /// must outlive the decoding, and `out` the decoder. Corruption on a
  /// bad header.
  Status Reset(Slice input, Buffer* out);

  /// The stream's declared output length.
  size_t size() const { return size_; }
  /// Output bytes decoded so far; each equals the whole decode's byte at
  /// its offset.
  size_t decoded() const { return decoded_; }
  /// The output; its first decoded() bytes are valid.
  const char* data() const { return out_->data() + base_; }

  /// Make room for the first min(n, size()) bytes of output: data() does
  /// not move again until a DecodeTo asks for more.
  void Reserve(size_t n);
  /// Decode until at least min(n, size()) bytes are decoded. A stream
  /// that fails stays failed: this and every later call return its
  /// Corruption, and decoded() drops to 0.
  Status DecodeTo(size_t n);

 private:
  Buffer* out_ = nullptr;  // holds the output from offset base_ on
  size_t base_ = 0;
  Slice tokens_;           // the input not yet decoded
  size_t size_ = 0;
  size_t decoded_ = 0;
  Status status_;
};

/// Upper bound of LzCompress output size for `n` input bytes.
size_t LzMaxCompressedSize(size_t n);

}  // namespace lsmcol

#endif  // LSMCOL_ENCODING_LZ_H_
