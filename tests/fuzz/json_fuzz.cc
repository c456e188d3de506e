// libFuzzer entry point for the JSON parser. On any input ParseJson must
// return OK or InvalidArgument. A document it accepts must print, compact
// and indented, to text that parses back to an equal Value. Any other
// outcome aborts.
//
// tests/CMakeLists.txt builds this target only when the compiler accepts
// -fsanitize=fuzzer (clang). Run it over a seed corpus of documents:
//
//   mkdir -p json-corpus && ./build/tests/json_fuzz_corpus json-corpus
//   ./build/tests/json_fuzz -max_total_time=60 json-corpus

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "src/json/parser.h"

namespace {

void Check(bool condition) {
  if (!condition) std::abort();
}

void CheckReparses(const std::string& text, const lsmcol::Value& v) {
  const lsmcol::Result<lsmcol::Value> again = lsmcol::ParseJson(text);
  Check(again.ok() && again->Equals(v));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  const lsmcol::Result<lsmcol::Value> parsed = lsmcol::ParseJson(text);
  if (!parsed.ok()) {
    Check(parsed.status().IsInvalidArgument());
    return 0;
  }
  CheckReparses(lsmcol::ToJson(*parsed), *parsed);
  CheckReparses(lsmcol::ToPrettyJson(*parsed), *parsed);
  return 0;
}
