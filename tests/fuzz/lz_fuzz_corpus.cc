// Writes a seed corpus for lz_fuzz: LzCompress output for page-shaped
// inputs (JSON text, short-match column bytes, incompressible doubles,
// runs of one byte, and tiny payloads), one file per stream.
//
//   ./build/tests/lz_fuzz_corpus <dir>

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/rng.h"
#include "src/encoding/lz.h"

namespace {

std::vector<std::string> SeedPages() {
  lsmcol::Rng rng(1);
  std::vector<std::string> pages;
  std::string json;
  while (json.size() < 4096) {
    json += "{\"id\":" + std::to_string(rng.Uniform(100000)) +
            ",\"user\":\"" + rng.Word(3, 10) + "\",\"tags\":[\"" +
            rng.Word(2, 6) + "\"]}\n";
  }
  pages.push_back(json);
  std::vector<std::string> values(64);
  for (auto& v : values) {
    for (uint64_t i = 0, n = 4 + rng.Uniform(6); i < n; ++i) {
      v.push_back(static_cast<char>(rng.Next()));
    }
  }
  std::string column;
  while (column.size() < 4096) column += values[rng.Uniform(values.size())];
  pages.push_back(column);
  std::string doubles;
  while (doubles.size() < 2048) {
    const double v = -40.0 + 100.0 * rng.NextDouble();
    doubles.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  pages.push_back(doubles);
  pages.push_back(std::string(3000, '\0'));
  pages.push_back("abcabcabcabcabcabcabcabcabcabcabcabcabcabc");
  pages.push_back("tiny");
  pages.push_back("");
  return pages;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  const std::vector<std::string> pages = SeedPages();
  for (size_t i = 0; i < pages.size(); ++i) {
    lsmcol::Buffer stream;
    lsmcol::LzCompress(lsmcol::Slice(pages[i]), &stream);
    const std::string path =
        std::string(argv[1]) + "/page_" + std::to_string(i) + ".lz";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(stream.data(), 1, stream.size(), f) != stream.size() ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "lz_fuzz_corpus: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  return 0;
}
