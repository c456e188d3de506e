// libFuzzer entry point for the row-leaf parsers: RowLeafReader over a
// decompressed Open or VB leaf payload, and each row codec's Decode over
// every row it yields — the code a row-layout scan or point lookup runs
// in place over a cached leaf. On any input, Init and each Next must
// return OK or Corruption, and a row must lie inside the input. Both
// codecs' Decode must return OK or Corruption on every row (an Open row
// is fed to VB and back too). A row that decodes must encode again to a
// row the same codec decodes. Anything else aborts; ASan catches reads
// out of bounds, and a crash or stack overflow is a failure.
//
// tests/CMakeLists.txt builds this target only when the compiler accepts
// -fsanitize=fuzzer (clang). Run it over a seed corpus of real Open and
// VB leaves:
//
//   mkdir -p row-corpus
//   ./build/tests/row_leaf_fuzz_corpus row-corpus
//   ./build/tests/row_leaf_fuzz -max_total_time=60 row-corpus

#include <cstdint>
#include <cstdlib>

#include "src/layouts/row_codec.h"
#include "src/layouts/row_leaf.h"

namespace {

void Check(bool condition) {
  if (!condition) std::abort();
}

void CheckDecode(const lsmcol::RowCodec& codec, lsmcol::Slice row) {
  lsmcol::Value value;
  const lsmcol::Status st = codec.Decode(row, &value);
  Check(st.ok() || st.IsCorruption());
  if (!st.ok()) return;
  lsmcol::Buffer again;
  codec.Encode(value, &again);
  lsmcol::Value decoded;
  Check(codec.Decode(again.slice(), &decoded).ok());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const lsmcol::Slice payload(reinterpret_cast<const char*>(data), size);
  lsmcol::RowLeafReader reader;
  lsmcol::Status st = reader.Init(payload);
  Check(st.ok() || st.IsCorruption());
  if (!st.ok()) return 0;
  const char* const end = payload.data() + payload.size();
  while (!reader.AtEnd()) {
    int64_t key = 0;
    bool anti_matter = false;
    lsmcol::Slice row;
    st = reader.Next(&key, &anti_matter, &row);
    Check(st.ok() || st.IsCorruption());
    if (!st.ok()) return 0;
    Check(row.empty() || (row.data() >= payload.data() && row.size() <= size &&
                          row.data() <= end - row.size()));
    CheckDecode(lsmcol::GetRowCodec(lsmcol::LayoutKind::kOpen), row);
    CheckDecode(lsmcol::GetRowCodec(lsmcol::LayoutKind::kVb), row);
  }
  return 0;
}
