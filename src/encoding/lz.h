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
/// leaves out unchanged.
Status LzDecompress(Slice input, Buffer* out);

/// Upper bound of LzCompress output size for `n` input bytes.
size_t LzMaxCompressedSize(size_t n);

}  // namespace lsmcol

#endif  // LSMCOL_ENCODING_LZ_H_
