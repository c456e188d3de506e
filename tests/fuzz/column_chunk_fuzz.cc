// libFuzzer entry point for the column chunk reader (ColumnChunkReader):
// the decoder point lookups and scans run over every cached megapage and
// APAX minipage. The input's first bytes choose a well-formed ColumnInfo
// (type, PK flag, definition levels of the array ancestors), the rest is
// the chunk. On any input Init, NextEntryBatch, DecodeRecords,
// DecodeValues, SkipRecords, NextRecord, BuildSeekIndex and Seek must
// return OK, Corruption or OutOfRange, and DecodeRecords' spans and value
// indices must stay in bounds; when the whole chunk walks cleanly,
// DecodeRecords must split it into as many records, and Seek(r) then
// NextRecord must parse exactly what SkipRecords(r) then NextRecord does.
// Anything else aborts; ASan catches reads out of bounds.
//
// tests/CMakeLists.txt builds this target only when the compiler accepts
// -fsanitize=fuzzer (clang). Run it over a seed corpus of real tweet_2
// and sensors column chunks:
//
//   mkdir -p column-corpus
//   ./build/tests/column_chunk_fuzz_corpus column-corpus
//   ./build/tests/column_chunk_fuzz -max_total_time=60 column-corpus

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/columnar/column_reader.h"
#include "src/common/buffer.h"
#include "src/json/value.h"

namespace {

// Chunks claiming more entries are only initialized: walking an RLE run
// of 2^40 entries record by record would time out, not fail.
constexpr size_t kMaxEntries = 1 << 16;

void Check(bool condition) {
  if (!condition) std::abort();
}

bool Expected(const lsmcol::Status& st) {
  return st.ok() || st.IsCorruption() ||
         st.code() == lsmcol::StatusCode::kOutOfRange;
}

// Header: byte 0 = type (bits 0-1) | PK flag (bit 2); byte 1 = max_def;
// byte 2 = array count (mod 5); then one byte per array's def level.
// Levels are raised to what a schema could produce: strictly increasing,
// array i at level >= i + 1, max_def at or above the innermost array.
size_t ParseInfo(const uint8_t* data, size_t size, lsmcol::ColumnInfo* info) {
  if (size < 3) return 0;
  info->id = 1;
  info->path = "fuzz";
  info->is_pk = (data[0] & 4) != 0;
  info->type = static_cast<lsmcol::AtomicType>(data[0] & 3);
  info->max_def = data[1];
  const size_t arrays = data[2] % 5;
  if (size < 3 + arrays) return 0;
  int level = 0;
  for (size_t i = 0; i < arrays; ++i) {
    level = std::max<int>(data[3 + i], level + 1);
    info->array_defs.push_back(level);
  }
  info->max_def = std::max(info->max_def, level);
  if (info->is_pk) {
    info->type = lsmcol::AtomicType::kInt64;
    info->array_defs.clear();
    info->max_def = 1;
  }
  return 3 + arrays;
}

// A record's cell tree; its values are compared apart.
std::string Describe(const lsmcol::ShredCell& cell) {
  std::string out = std::to_string(static_cast<int>(cell.kind)) + ":" +
                    std::to_string(cell.def) + ":" +
                    std::to_string(cell.value_index);
  for (const auto& child : cell.children) out += "(" + Describe(child) + ")";
  return out;
}

bool SameRecord(const lsmcol::ColumnRecord& a, const lsmcol::ColumnRecord& b) {
  if (Describe(a.root) != Describe(b.root) ||
      a.anti_matter != b.anti_matter || a.values.size() != b.values.size()) {
    return false;
  }
  for (size_t i = 0; i < a.values.size(); ++i) {
    if (!lsmcol::ValueEquivalent(a.values[i], b.values[i])) return false;
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using lsmcol::Buffer;
  using lsmcol::ColumnChunkReader;
  using lsmcol::ColumnRecord;
  using lsmcol::Slice;
  using lsmcol::Status;
  lsmcol::ColumnInfo info;
  const size_t header = ParseInfo(data, size, &info);
  if (header == 0) return 0;
  const Slice chunk(reinterpret_cast<const char*>(data) + header,
                    size - header);

  ColumnChunkReader batch_reader;
  Status st = batch_reader.Init(chunk, info);
  Check(Expected(st));
  if (!st.ok() || batch_reader.entry_count() > kMaxEntries) return 0;
  lsmcol::ColumnEntryBatch batch;
  while (st.ok() && !batch_reader.AtEnd()) {
    st = batch_reader.NextEntryBatch(100, &batch);
    Check(Expected(st));
  }

  // The whole-chunk decode behind a cursor's RecordSpan: its spans stay
  // inside the entries and its value indices inside the values.
  ColumnChunkReader whole;
  Check(whole.Init(chunk, info).ok());
  std::vector<uint32_t> starts;
  size_t values = 0;
  const Status split = whole.DecodeRecords(&batch, &starts, &values);
  Check(Expected(split));
  if (split.ok()) {
    Check(!starts.empty() && starts.front() == 0 &&
          starts.back() == batch.entry_count() &&
          std::is_sorted(starts.begin(), starts.end()));
    for (const int32_t vi : batch.value_index) {
      Check(vi >= -1 && vi < static_cast<int64_t>(values));
    }
    Check(Expected(whole.DecodeValues(values, &batch)));
  }

  // Record by record, counting the records of a clean walk.
  ColumnChunkReader walker;
  Check(walker.Init(chunk, info).ok());
  size_t records = 0;
  bool clean = true;
  ColumnRecord record;
  while (!walker.AtEnd()) {
    st = (records % 2 == 0) ? walker.NextRecord(&record)
                            : walker.SkipRecords(1);
    Check(Expected(st));
    if (!st.ok()) {
      clean = false;
      break;
    }
    ++records;
  }

  // A clean walk's records are the whole-chunk decode's spans.
  if (clean) Check(split.ok() && starts.size() == records + 1);

  ColumnChunkReader indexer;
  Check(indexer.Init(chunk, info).ok());
  Buffer index;
  st = indexer.BuildSeekIndex(&index);
  Check(Expected(st));
  Check(st.ok() || !clean);
  if (!st.ok()) return 0;

  // Seek must agree with a walk from the chunk's start, in any order.
  ColumnChunkReader seeker;
  Check(seeker.Init(chunk, info).ok());
  const size_t last = records > 0 ? records - 1 : 0;
  const size_t probes[] = {records, 0,           records / 2,
                           last,    records / 3, records + 1};
  for (size_t r : probes) {
    ColumnChunkReader skipper;
    Check(skipper.Init(chunk, info).ok());
    const Status skipped = skipper.SkipRecords(r);
    const Status sought = seeker.Seek(r, index.slice());
    Check(Expected(skipped) && Expected(sought));
    Check(skipped.ok() == sought.ok());
    if (!skipped.ok()) continue;
    ColumnRecord a, b;
    const Status next_a = skipper.NextRecord(&a);
    const Status next_b = seeker.NextRecord(&b);
    Check(Expected(next_a) && Expected(next_b));
    Check(next_a.ok() == next_b.ok());
    if (next_a.ok()) Check(SameRecord(a, b));
  }
  return 0;
}
