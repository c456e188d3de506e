// libFuzzer entry point for the LZ page decoder. On any input LzDecompress
// must either return OK having appended exactly the declared length, or
// return Corruption having left its output untouched; a decoded payload
// must also survive an encode/decode round trip. Any other outcome aborts.
//
// tests/CMakeLists.txt builds this target only when the compiler accepts
// -fsanitize=fuzzer (clang). Run it over a seed corpus of compressed pages:
//
//   mkdir -p lz-corpus && ./build/tests/lz_fuzz_corpus lz-corpus
//   ./build/tests/lz_fuzz -max_total_time=60 lz-corpus

#include <cstdint>
#include <cstdlib>

#include "src/common/buffer.h"
#include "src/encoding/lz.h"

namespace {

constexpr char kPrefix[] = "bytes already in out";
constexpr size_t kPrefixSize = sizeof(kPrefix) - 1;

void Check(bool condition) {
  if (!condition) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using lsmcol::Buffer;
  using lsmcol::Slice;
  const Slice input(data, size);
  Buffer out;
  out.Append(kPrefix, kPrefixSize);
  const lsmcol::Status status = lsmcol::LzDecompress(input, &out);
  Check(out.size() >= kPrefixSize &&
        out.slice().SubSlice(0, kPrefixSize) == Slice(kPrefix, kPrefixSize));
  if (!status.ok()) {
    Check(status.IsCorruption() && out.size() == kPrefixSize);
    return 0;
  }
  lsmcol::BufferReader header(input);
  uint64_t declared = 0;
  Check(header.ReadVarint64(&declared).ok());
  Check(out.size() - kPrefixSize == declared);

  const Slice decoded = out.slice().SubSlice(kPrefixSize, declared);
  Buffer compressed;
  lsmcol::LzCompress(decoded, &compressed);
  Check(compressed.size() <= lsmcol::LzMaxCompressedSize(decoded.size()));
  Buffer again;
  Check(lsmcol::LzDecompress(compressed.slice(), &again).ok());
  Check(again.slice() == decoded);
  return 0;
}
