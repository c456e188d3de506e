// libFuzzer entry point for the AMAX Page 0 parser (AmaxPageZero::Init):
// the code every merge input leaf, cold AMAX scan and lookup runs before
// it reads a megapage. On any input, Init must return OK or Corruption;
// after a clean parse, extent(c) must answer for every column id — the
// PK's 0 and one past the last included — and the PK chunk must walk
// with ColumnChunkReader, as the merge's key phase decodes it, each step
// returning OK or Corruption. Anything else aborts; ASan catches reads
// out of bounds, and a column count the page cannot hold must not be
// allocated for.
//
// tests/CMakeLists.txt builds this target only when the compiler accepts
// -fsanitize=fuzzer (clang). Run it over a seed corpus of real sensors
// and tweet_2 Page 0s:
//
//   mkdir -p amax-corpus
//   ./build/tests/amax_page0_fuzz_corpus amax-corpus
//   ./build/tests/amax_page0_fuzz -max_total_time=60 amax-corpus

#include <cstdint>
#include <cstdlib>

#include "src/columnar/column_reader.h"
#include "src/layouts/amax.h"

namespace {

// PK chunks claiming more entries are only initialized: decoding 2^40
// run-length keys would time out, not fail.
constexpr size_t kMaxEntries = 1 << 16;

void Check(bool condition) {
  if (!condition) std::abort();
}

bool Expected(const lsmcol::Status& st) {
  return st.ok() || st.IsCorruption();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const lsmcol::Slice input(reinterpret_cast<const char*>(data), size);
  lsmcol::AmaxPageZero page0;
  lsmcol::Status st = page0.Init(input);
  Check(Expected(st));
  if (!st.ok()) return 0;
  for (uint32_t c = 0; c <= page0.column_count(); ++c) {
    const lsmcol::AmaxColumnExtent& extent =
        page0.extent(static_cast<int>(c));
    if (c == 0 || c == page0.column_count()) Check(extent.size == 0);
  }

  lsmcol::ColumnInfo pk;
  pk.id = 0;
  pk.type = lsmcol::AtomicType::kInt64;
  pk.max_def = 1;
  pk.path = "id";
  pk.is_pk = true;
  lsmcol::ColumnChunkReader reader;
  st = reader.Init(page0.pk_chunk(), pk);
  Check(Expected(st));
  if (!st.ok() || reader.entry_count() > kMaxEntries) return 0;
  lsmcol::ColumnEntryBatch batch;
  while (st.ok() && !reader.AtEnd()) {
    st = reader.NextEntryBatch(100, &batch);
    Check(Expected(st));
  }
  return 0;
}
