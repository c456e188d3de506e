// libFuzzer entry point for the LZ page codec. Every input, taken as raw
// bytes, must compress within LzMaxCompressedSize and decompress back to
// itself, whatever the match finder's probe step does on it. Taken as a
// stream, LzDecompress must either return OK having appended exactly the
// declared length, or return Corruption having left its output untouched;
// a decoded payload must also survive an encode/decode round trip. The
// resumable decoder (LzDecoder), asked for a few more bytes at a time,
// must expose only bytes of the whole decode, reach the end exactly when
// LzDecompress succeeds, and once it fails return Corruption on every call
// with nothing exposed. Any other outcome aborts.
//
// tests/CMakeLists.txt builds this target only when the compiler accepts
// -fsanitize=fuzzer (clang). Run it over a seed corpus of compressed pages:
//
//   mkdir -p lz-corpus && ./build/tests/lz_fuzz_corpus lz-corpus
//   ./build/tests/lz_fuzz -max_total_time=60 lz-corpus

#include <algorithm>
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

/// Compresses `raw` and checks the bound and the round trip.
void CheckRoundTrip(lsmcol::Slice raw) {
  lsmcol::Buffer compressed;
  lsmcol::LzCompress(raw, &compressed);
  Check(compressed.size() <= lsmcol::LzMaxCompressedSize(raw.size()));
  lsmcol::Buffer again;
  Check(lsmcol::LzDecompress(compressed.slice(), &again).ok());
  Check(again.slice() == raw);
}

/// Decodes `input` with LzDecoder, asking for `step` more bytes per call.
/// `whole` is LzDecompress's output when it succeeded, else null. Returns
/// whether the decoder reached the end.
bool DecodeInSteps(lsmcol::Slice input, size_t step,
                   const lsmcol::Slice* whole) {
  lsmcol::Buffer out;
  lsmcol::LzDecoder decoder;
  lsmcol::Status st = decoder.Reset(input, &out);
  size_t want = 0;
  while (st.ok() && decoder.decoded() < decoder.size()) {
    want += step;
    st = decoder.DecodeTo(want);
    if (!st.ok()) break;
    Check(decoder.decoded() >= std::min(want, decoder.size()) &&
          decoder.decoded() <= decoder.size());
    if (whole != nullptr) {
      Check(decoder.size() == whole->size() &&
            lsmcol::Slice(decoder.data(), decoder.decoded()) ==
                whole->SubSlice(0, decoder.decoded()));
    }
  }
  if (st.ok()) return true;
  Check(st.IsCorruption() && decoder.decoded() == 0);
  Check(decoder.DecodeTo(decoder.size()).IsCorruption() &&
        decoder.decoded() == 0);
  return false;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using lsmcol::Buffer;
  using lsmcol::Slice;
  const Slice input(data, size);
  CheckRoundTrip(input);
  Buffer out;
  out.Append(kPrefix, kPrefixSize);
  const lsmcol::Status status = lsmcol::LzDecompress(input, &out);
  Check(out.size() >= kPrefixSize &&
        out.slice().SubSlice(0, kPrefixSize) == Slice(kPrefix, kPrefixSize));
  // The step comes from the input's last byte: 1 to ~9,400 bytes.
  const size_t step = 1 + (size > 0 ? data[size - 1] : 0) * 37u;
  if (!status.ok()) {
    Check(status.IsCorruption() && out.size() == kPrefixSize);
    Check(!DecodeInSteps(input, step, nullptr));
    return 0;
  }
  lsmcol::BufferReader header(input);
  uint64_t declared = 0;
  Check(header.ReadVarint64(&declared).ok());
  Check(out.size() - kPrefixSize == declared);

  const Slice decoded = out.slice().SubSlice(kPrefixSize, declared);
  Check(DecodeInSteps(input, step, &decoded));
  CheckRoundTrip(decoded);
  return 0;
}
