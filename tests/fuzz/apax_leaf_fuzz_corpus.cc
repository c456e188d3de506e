// Writes a seed corpus for apax_leaf_fuzz: the decompressed payloads of
// real APAX leaves over generated tweet_1 documents (anti-matter
// included), cut at several batch sizes so the leaves carry different
// column counts, one file per leaf.
//
//   ./build/tests/apax_leaf_fuzz_corpus <dir>

#include <cstdio>
#include <memory>
#include <string>

#include "src/columnar/shredder.h"
#include "src/common/rng.h"
#include "src/datagen/datagen.h"
#include "src/layouts/apax.h"

namespace {

constexpr size_t kPageSize = 128 * 1024;

lsmcol::Status WriteLeaves(const std::string& dir) {
  const std::string path = dir + "/apax_leaves.tmp";
  lsmcol::BufferCache cache(64 * kPageSize, kPageSize);
  {
    LSMCOL_ASSIGN_OR_RETURN(auto writer,
                            lsmcol::ComponentWriter::Create(path, &cache,
                                                            kPageSize));
    lsmcol::Schema schema("id");
    lsmcol::ColumnWriterSet writers(&schema);
    lsmcol::RecordShredder shredder(&schema, &writers);
    lsmcol::Rng rng(7);
    int64_t id = 0;
    for (int batch : {1, 10, 40, 120}) {
      for (int i = 0; i < batch; ++i, ++id) {
        LSMCOL_RETURN_NOT_OK(
            id % 17 == 5
                ? shredder.ShredAntiMatter(id)
                : shredder.Shred(lsmcol::MakeRecord(lsmcol::Workload::kTweet1,
                                                    id, &rng)));
      }
      LSMCOL_RETURN_NOT_OK(
          lsmcol::EmitApaxLeaf(&writers, writer.get(), /*compress=*/false));
    }
    LSMCOL_RETURN_NOT_OK(writer->Finish(lsmcol::Slice("")));
  }
  LSMCOL_ASSIGN_OR_RETURN(
      auto reader, lsmcol::ComponentReader::Open(path, &cache, kPageSize));
  for (size_t leaf = 0; leaf < reader->leaves().size(); ++leaf) {
    lsmcol::Buffer payload;
    LSMCOL_RETURN_NOT_OK(reader->ReadLeaf(leaf, &payload));
    const std::string out = dir + "/tweet_1_leaf_" + std::to_string(leaf);
    std::FILE* f = std::fopen(out.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(payload.data(), 1, payload.size(), f) != payload.size() ||
        std::fclose(f) != 0) {
      return lsmcol::Status::IOError("cannot write " + out);
    }
  }
  return reader->Destroy();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  const lsmcol::Status st = WriteLeaves(argv[1]);
  if (!st.ok()) {
    std::fprintf(stderr, "apax_leaf_fuzz_corpus: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
