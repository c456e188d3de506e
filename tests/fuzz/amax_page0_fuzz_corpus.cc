// Writes a seed corpus for amax_page0_fuzz: the Page 0s of real AMAX
// leaves over generated sensors and tweet_2 documents (anti-matter
// included), cut at several batch sizes so the leaves carry different
// column counts, one file per leaf. Each file holds Page 0's content
// (header, column table, PK chunk) without the page's zero padding.
//
//   ./build/tests/amax_page0_fuzz_corpus <dir>

#include <cstdio>
#include <string>

#include "src/columnar/shredder.h"
#include "src/common/rng.h"
#include "src/datagen/datagen.h"
#include "src/layouts/amax.h"

namespace {

constexpr size_t kPageSize = 128 * 1024;
// Page 0 header: record count, column count, min and max key, PK chunk
// size; then one 32-byte table entry per non-PK column.
constexpr size_t kHeaderBytes = 28;
constexpr size_t kTableEntryBytes = 32;

lsmcol::Status WritePageZeros(lsmcol::Workload workload,
                              const std::string& dir) {
  const std::string name = lsmcol::WorkloadName(workload);
  const std::string path = dir + "/" + name + "_amax.tmp";
  lsmcol::BufferCache cache(64 * kPageSize, kPageSize);
  {
    LSMCOL_ASSIGN_OR_RETURN(auto writer,
                            lsmcol::ComponentWriter::Create(path, &cache,
                                                            kPageSize));
    lsmcol::Schema schema("id");
    lsmcol::ColumnWriterSet writers(&schema);
    lsmcol::RecordShredder shredder(&schema, &writers);
    lsmcol::AmaxOptions options;
    options.page_size = kPageSize;
    options.compress = false;
    lsmcol::Rng rng(7);
    int64_t id = 0;
    for (int batch : {1, 10, 40, 120}) {
      for (int i = 0; i < batch; ++i, ++id) {
        LSMCOL_RETURN_NOT_OK(
            id % 17 == 5 ? shredder.ShredAntiMatter(id)
                         : shredder.Shred(
                               lsmcol::MakeRecord(workload, id, &rng)));
      }
      LSMCOL_RETURN_NOT_OK(
          lsmcol::EmitAmaxLeaf(&writers, writer.get(), options));
    }
    LSMCOL_RETURN_NOT_OK(writer->Finish(lsmcol::Slice("")));
  }
  LSMCOL_ASSIGN_OR_RETURN(
      auto reader, lsmcol::ComponentReader::Open(path, &cache, kPageSize));
  for (size_t leaf = 0; leaf < reader->leaves().size(); ++leaf) {
    lsmcol::Buffer payload;
    LSMCOL_RETURN_NOT_OK(reader->ReadLeaf(leaf, &payload));
    lsmcol::AmaxPageZero page0;
    LSMCOL_RETURN_NOT_OK(page0.Init(payload.slice()));
    const size_t bytes = kHeaderBytes +
                         (page0.column_count() - 1) * kTableEntryBytes +
                         page0.pk_chunk().size();
    const std::string out = dir + "/" + name + "_page0_" +
                            std::to_string(leaf);
    std::FILE* f = std::fopen(out.c_str(), "wb");
    if (f == nullptr || std::fwrite(payload.data(), 1, bytes, f) != bytes ||
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
  for (lsmcol::Workload workload :
       {lsmcol::Workload::kSensors, lsmcol::Workload::kTweet2}) {
    const lsmcol::Status st = WritePageZeros(workload, argv[1]);
    if (!st.ok()) {
      std::fprintf(stderr, "amax_page0_fuzz_corpus: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
