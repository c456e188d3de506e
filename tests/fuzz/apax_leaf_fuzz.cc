// libFuzzer entry point for the APAX leaf parser (ApaxLeaf::Open over an
// uncompressed payload): the code every cold APAX scan and lookup runs
// over a leaf's head. On any input, Open must return OK or Corruption;
// after a clean open, every chunk(c) — one past the last column included
// — must lie inside the input. Then the cached units a miss cuts from the
// leaf are built and parsed back: the head unit (ApaxHead) and every
// column's unit (ParseApaxColumnUnit). Open checked every stats entry, so
// each of these parses returns OK and gives back the leaf's column count,
// PK chunk and minipage. Anything else aborts; ASan catches reads out of
// bounds.
//
// tests/CMakeLists.txt builds this target only when the compiler accepts
// -fsanitize=fuzzer (clang). Run it over a seed corpus of real tweet_1
// leaves:
//
//   mkdir -p apax-corpus
//   ./build/tests/apax_leaf_fuzz_corpus apax-corpus
//   ./build/tests/apax_leaf_fuzz -max_total_time=60 apax-corpus

#include <cstdint>
#include <cstdlib>

#include "src/layouts/apax.h"

namespace {

void Check(bool condition) {
  if (!condition) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const lsmcol::Slice payload(reinterpret_cast<const char*>(data), size);
  lsmcol::ApaxLeaf leaf;
  const lsmcol::Status st = leaf.Open(payload, /*compressed=*/false);
  Check(st.ok() || st.IsCorruption());
  if (!st.ok()) return 0;
  const char* const end = payload.data() + payload.size();
  for (uint32_t c = 0; c <= leaf.column_count(); ++c) {
    const int column = static_cast<int>(c);
    const lsmcol::Slice chunk = leaf.chunk(column);
    Check(chunk.empty() ||
          (chunk.data() >= payload.data() && chunk.size() <= size &&
           chunk.data() <= end - chunk.size()));
    if (c == leaf.column_count()) Check(chunk.empty());
  }

  lsmcol::Buffer unit;
  leaf.HeadUnit(&unit);
  lsmcol::ApaxHead head;
  Check(head.Parse(unit.slice()).ok());
  Check(head.column_count() == leaf.column_count() &&
        head.pk_chunk() == leaf.chunk(0));
  for (uint32_t c = 1; c < leaf.column_count(); ++c) {
    const int column = static_cast<int>(c);
    unit.clear();
    Check(leaf.ColumnUnit(column, &unit).ok());
    lsmcol::Slice chunk;
    lsmcol::ApaxChunkStats stats;
    Check(lsmcol::ParseApaxColumnUnit(unit.slice(), &chunk, &stats).ok());
    Check(chunk == leaf.chunk(column));
  }
  return 0;
}
