// Writes a seed corpus for row_leaf_fuzz: the decompressed payloads of
// real Open and VB leaves over generated tweet_1, wos and sensors
// documents (anti-matter included), one file per leaf.
//
//   ./build/tests/row_leaf_fuzz_corpus <dir>

#include <cstdio>
#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/datagen/datagen.h"
#include "src/layouts/row_codec.h"
#include "src/layouts/row_leaf.h"

namespace {

constexpr size_t kPageSize = 32 * 1024;

lsmcol::Status WriteLeaves(const std::string& dir, lsmcol::LayoutKind layout) {
  const std::string name = lsmcol::LayoutKindName(layout);
  const std::string path = dir + "/" + name + "_leaves.tmp";
  lsmcol::BufferCache cache(64 * kPageSize, kPageSize);
  {
    LSMCOL_ASSIGN_OR_RETURN(auto writer,
                            lsmcol::ComponentWriter::Create(path, &cache,
                                                            kPageSize));
    lsmcol::RowLeafBuilder leaves(writer.get(), kPageSize, /*compress=*/false);
    const lsmcol::RowCodec& codec = lsmcol::GetRowCodec(layout);
    lsmcol::Rng rng(11);
    int64_t id = 0;
    for (lsmcol::Workload workload :
         {lsmcol::Workload::kTweet1, lsmcol::Workload::kWos,
          lsmcol::Workload::kSensors}) {
      for (int i = 0; i < 40; ++i, ++id) {
        lsmcol::Buffer row;
        if (id % 13 != 5) {
          codec.Encode(lsmcol::MakeRecord(workload, id, &rng), &row);
        }
        LSMCOL_RETURN_NOT_OK(leaves.Add(id, /*anti_matter=*/row.empty(),
                                        row.slice()));
      }
    }
    LSMCOL_RETURN_NOT_OK(leaves.Finish());
    LSMCOL_RETURN_NOT_OK(writer->Finish(lsmcol::Slice("")));
  }
  LSMCOL_ASSIGN_OR_RETURN(
      auto reader, lsmcol::ComponentReader::Open(path, &cache, kPageSize));
  for (size_t leaf = 0; leaf < reader->leaves().size(); ++leaf) {
    lsmcol::Buffer payload;
    LSMCOL_RETURN_NOT_OK(reader->ReadLeaf(leaf, &payload));
    const std::string out = dir + "/" + name + "_leaf_" + std::to_string(leaf);
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
  for (lsmcol::LayoutKind layout :
       {lsmcol::LayoutKind::kOpen, lsmcol::LayoutKind::kVb}) {
    const lsmcol::Status st = WriteLeaves(argv[1], layout);
    if (!st.ok()) {
      std::fprintf(stderr, "row_leaf_fuzz_corpus: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
