// Writes a seed corpus for column_chunk_fuzz: every column chunk (the
// decompressed bytes of an AMAX megapage) of a batch of generated tweet_2
// documents and of a batch of sensors documents, anti-matter included,
// one file per chunk, each behind the header column_chunk_fuzz reads
// its ColumnInfo from.
//
//   ./build/tests/column_chunk_fuzz_corpus <dir>

#include <cstdio>
#include <string>

#include "src/columnar/column_writer.h"
#include "src/columnar/shredder.h"
#include "src/common/rng.h"
#include "src/datagen/datagen.h"

namespace {

bool WriteChunks(lsmcol::Workload workload, int64_t records,
                 const std::string& dir) {
  lsmcol::Schema schema("id");
  lsmcol::ColumnWriterSet writers(&schema);
  lsmcol::RecordShredder shredder(&schema, &writers);
  lsmcol::Rng rng(7);
  for (int64_t id = 0; id < records; ++id) {
    const lsmcol::Status st =
        id % 17 == 5
            ? shredder.ShredAntiMatter(id)
            : shredder.Shred(lsmcol::MakeRecord(workload, id, &rng));
    if (!st.ok()) {
      std::fprintf(stderr, "column_chunk_fuzz_corpus: %s\n",
                   st.ToString().c_str());
      return false;
    }
  }
  for (int c = 0; c < schema.column_count(); ++c) {
    const lsmcol::ColumnInfo& info = schema.column(c);
    lsmcol::Buffer file;
    file.AppendByte(static_cast<uint8_t>(static_cast<int>(info.type) |
                                         (info.is_pk ? 4 : 0)));
    file.AppendByte(static_cast<uint8_t>(info.max_def));
    file.AppendByte(static_cast<uint8_t>(info.array_count()));
    for (int def : info.array_defs) file.AppendByte(static_cast<uint8_t>(def));
    writers.writer(c).FinishInto(&file);
    const std::string path = dir + "/" + lsmcol::WorkloadName(workload) +
                             "_" + std::to_string(c) + ".chunk";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(file.data(), 1, file.size(), f) != file.size() ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "column_chunk_fuzz_corpus: cannot write %s\n",
                   path.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  const bool ok = WriteChunks(lsmcol::Workload::kTweet2, 300, argv[1]) &&
                  WriteChunks(lsmcol::Workload::kSensors, 200, argv[1]);
  return ok ? 0 : 1;
}
