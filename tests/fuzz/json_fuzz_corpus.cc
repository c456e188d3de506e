// Writes a seed corpus for json_fuzz: the compact JSON of a few documents
// from each workload generator, and truncated copies of some of them, one
// file per document.
//
//   ./build/tests/json_fuzz_corpus <dir>

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/datagen/datagen.h"
#include "src/json/parser.h"

namespace {

std::vector<std::string> SeedDocuments() {
  lsmcol::Rng rng(1);
  std::vector<std::string> docs;
  for (lsmcol::Workload w :
       {lsmcol::Workload::kCell, lsmcol::Workload::kSensors,
        lsmcol::Workload::kTweet1, lsmcol::Workload::kWos,
        lsmcol::Workload::kTweet2}) {
    for (int64_t id = 0; id < 3; ++id) {
      docs.push_back(lsmcol::ToJson(lsmcol::MakeRecord(w, id, &rng)));
    }
  }
  // Truncated at a third and at two thirds: unterminated strings, objects
  // and arrays.
  const size_t whole = docs.size();
  for (size_t i = 0; i < whole; i += 3) {
    docs.push_back(docs[i].substr(0, docs[i].size() / 3));
    docs.push_back(docs[i].substr(0, docs[i].size() * 2 / 3));
  }
  return docs;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  const std::vector<std::string> docs = SeedDocuments();
  for (size_t i = 0; i < docs.size(); ++i) {
    const std::string path =
        std::string(argv[1]) + "/doc_" + std::to_string(i) + ".json";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(docs[i].data(), 1, docs[i].size(), f) != docs[i].size() ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "json_fuzz_corpus: cannot write %s\n",
                   path.c_str());
      return 1;
    }
  }
  return 0;
}
