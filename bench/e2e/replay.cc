#include "bench/e2e/replay.h"

#include <algorithm>

#include "src/columnar/assembler.h"
#include "src/columnar/column_reader.h"
#include "src/columnar/column_writer.h"
#include "src/columnar/shredder.h"
#include "src/encoding/lz.h"
#include "src/layouts/amax.h"
#include "src/layouts/apax.h"
#include "src/lsm/component.h"
#include "src/storage/buffer_cache.h"
#include "src/storage/component_file.h"
#include "src/storage/file.h"

namespace lsmcol::e2e {
namespace {

// A private cache large enough for the pages one leaf read touches.
constexpr size_t kReplayCacheBytes = 32u << 20;

// Results land here so the compiler cannot drop the replayed work.
volatile uint64_t g_sink = 0;

bool IsColumnar(LayoutKind layout) {
  return layout == LayoutKind::kApax || layout == LayoutKind::kAmax;
}

// Columns of `schema` the projection needs; the PK always.
std::vector<bool> ProjectedColumns(const Schema& schema,
                                   const Projection& projection) {
  std::vector<bool> mask(static_cast<size_t>(schema.column_count()),
                         projection.all);
  mask[0] = true;
  if (!projection.all) {
    for (const auto& path : projection.paths) {
      const SchemaNode* node = schema.ResolvePath(path);
      if (node == nullptr) continue;
      for (int c : Schema::ColumnsUnder(node)) mask[static_cast<size_t>(c)] = true;
    }
  }
  return mask;
}

// One leaf's projected column chunks, decompressed. chunk[c] is empty
// when column c is not projected or absent from the leaf.
struct LeafChunks {
  uint32_t records = 0;
  std::vector<Slice> chunk;
  ApaxLeaf apax;
  AmaxPageZero page0;
  std::vector<Buffer> megapages;  // AMAX, by column id
};

// Checksum the bytes a leaf read returned (the page-trailer check's work).
void ChecksumBytes(Tracer* tracer, const Buffer& bytes) {
  Tracer::Scope span(tracer, "storage.checksum");
  g_sink = g_sink + Fnv1a32(bytes.slice());
}

Status LoadApaxLeaf(Tracer* tracer, const ComponentReader& reader,
                    bool compressed, size_t leaf,
                    const std::vector<bool>& mask, LeafChunks* out) {
  Buffer raw;
  {
    Tracer::Scope span(tracer, "storage.leaf_read");
    LSMCOL_RETURN_NOT_OK(reader.ReadLeaf(leaf, &raw));
  }
  ChecksumBytes(tracer, raw);
  Buffer payload;
  if (compressed) {
    Tracer::Scope span(tracer, "encoding.lz_decompress");
    LSMCOL_RETURN_NOT_OK(LzDecompress(raw.slice(), &payload));
  } else {
    payload = std::move(raw);
  }
  {
    Tracer::Scope span(tracer, "layouts.leaf_open");
    LSMCOL_RETURN_NOT_OK(out->apax.Init(payload.slice(), /*compressed=*/false));
  }
  out->records = out->apax.record_count();
  for (size_t c = 0; c < mask.size(); ++c) {
    if (mask[c]) out->chunk[c] = out->apax.chunk(static_cast<int>(c));
  }
  return Status::OK();
}

Status LoadAmaxLeaf(Tracer* tracer, const ComponentReader& reader,
                    const Schema& schema, bool compressed, size_t leaf,
                    const std::vector<bool>& mask, LeafChunks* out) {
  const LeafEntry& entry = reader.leaves()[leaf];
  Buffer page0;
  {
    Tracer::Scope span(tracer, "storage.leaf_read");
    LSMCOL_RETURN_NOT_OK(reader.ReadLeafRange(
        leaf, 0, std::min<uint64_t>(entry.payload_size, reader.page_size()),
        &page0));
  }
  ChecksumBytes(tracer, page0);
  {
    Tracer::Scope span(tracer, "layouts.leaf_open");
    LSMCOL_RETURN_NOT_OK(out->page0.Init(page0.slice()));
  }
  out->records = out->page0.record_count();
  out->chunk[0] = out->page0.pk_chunk();
  out->megapages.resize(mask.size());
  for (size_t c = 1; c < mask.size(); ++c) {
    if (!mask[c]) continue;
    const AmaxColumnExtent& extent = out->page0.extent(static_cast<int>(c));
    if (extent.size == 0) continue;
    Buffer raw;
    {
      Tracer::Scope span(tracer, "storage.leaf_read");
      LSMCOL_RETURN_NOT_OK(
          reader.ReadLeafRange(leaf, extent.offset, extent.size, &raw));
    }
    ChecksumBytes(tracer, raw);
    Buffer stripped;
    {
      Tracer::Scope span(tracer, "layouts.leaf_open");
      LSMCOL_RETURN_NOT_OK(ParseAmaxMegapage(
          raw.slice(), schema.column(static_cast<int>(c)),
          /*compressed=*/false, &stripped, nullptr, nullptr));
    }
    if (compressed) {
      Tracer::Scope span(tracer, "encoding.lz_decompress");
      LSMCOL_RETURN_NOT_OK(LzDecompress(stripped.slice(), &out->megapages[c]));
    } else {
      out->megapages[c] = std::move(stripped);
    }
    out->chunk[c] = out->megapages[c].slice();
  }
  return Status::OK();
}

// Batch-decode every projected chunk; returns the PK keys in *keys.
Status DecodeLeaf(Tracer* tracer, const Schema& schema, const LeafChunks& leaf,
                  std::vector<int64_t>* keys, uint64_t* entries) {
  Tracer::Scope span(tracer, "columnar.decode");
  ColumnEntryBatch batch;
  for (size_t c = 0; c < leaf.chunk.size(); ++c) {
    if (leaf.chunk[c].empty()) continue;
    ColumnChunkReader reader;
    LSMCOL_RETURN_NOT_OK(
        reader.Init(leaf.chunk[c], schema.column(static_cast<int>(c))));
    LSMCOL_RETURN_NOT_OK(reader.NextEntryBatch(reader.entry_count(), &batch));
    *entries += batch.entry_count();
    if (c == 0) *keys = batch.ints;
  }
  return Status::OK();
}

// NextRecord per projected column, then RecordAssembler::Assemble: every
// live record of the leaf, or only the one at `position`.
Status AssembleLeaf(Tracer* tracer, const Schema& schema,
                    const LeafChunks& leaf, const std::vector<bool>& mask,
                    bool all_columns, std::optional<size_t> position) {
  Tracer::Scope span(tracer, "columnar.assemble");
  const size_t ncols = leaf.chunk.size();
  std::vector<ColumnChunkReader> readers(ncols);
  std::vector<ColumnRecord> records(ncols);
  std::vector<const ColumnRecord*> by_column(ncols, nullptr);
  std::vector<size_t> present;
  for (size_t c = 0; c < ncols; ++c) {
    if (leaf.chunk[c].empty()) continue;
    LSMCOL_RETURN_NOT_OK(
        readers[c].Init(leaf.chunk[c], schema.column(static_cast<int>(c))));
    if (position.has_value()) {
      LSMCOL_RETURN_NOT_OK(readers[c].SkipRecords(*position));
    }
    present.push_back(c);
  }
  const RecordAssembler assembler(&schema);
  const uint32_t count = position.has_value() ? 1 : leaf.records;
  for (uint32_t r = 0; r < count; ++r) {
    for (size_t c : present) {
      LSMCOL_RETURN_NOT_OK(readers[c].NextRecord(&records[c]));
      by_column[c] = &records[c];
    }
    if (records[0].anti_matter) continue;
    const Value doc =
        assembler.Assemble(by_column, all_columns ? nullptr : &mask);
    g_sink = g_sink + doc.size();
  }
  return Status::OK();
}

// The dataset's leaf-cut rule (Dataset::MaybeEmitColumnarLeaf), driven
// through the layouts' public emitters. The library does not expose the
// rule, so this is a copy; ReplayFlush reports the leaves it cut and the
// caller checks them against the component the real flush wrote.
Status MaybeEmitLeaf(Tracer* tracer, const DatasetOptions& options,
                     ColumnWriterSet* writers, ComponentWriter* out,
                     bool force) {
  if (writers->record_count() == 0) return Status::OK();
  bool cut = force;
  if (options.layout == LayoutKind::kApax) {
    const auto budget = static_cast<size_t>(
        options.apax_fill_fraction * static_cast<double>(options.page_size));
    cut = cut || writers->EstimatedTotalSize() >= budget;
  } else {
    cut = cut || writers->record_count() >= options.amax_max_records ||
          writers->record_count() >=
              AmaxPage0RecordBudget(options.page_size, writers->column_count());
  }
  if (!cut) return Status::OK();
  Tracer::Scope span(tracer, "layouts.emit_leaf");
  if (options.layout == LayoutKind::kApax) {
    return EmitApaxLeaf(writers, out, options.compress);
  }
  AmaxOptions amax;
  amax.page_size = options.page_size;
  amax.compress = options.compress;
  amax.max_records = options.amax_max_records;
  amax.empty_page_tolerance = options.amax_empty_page_tolerance;
  return EmitAmaxLeaf(writers, out, amax);
}

// The uncompressed leaf payload pieces of a finished component: whole
// APAX leaves, or AMAX megapages (each compressed on its own).
Status UncompressedPieces(const ComponentReader& reader, LayoutKind layout,
                          const Schema& schema, std::vector<Buffer>* pieces) {
  for (size_t leaf = 0; leaf < reader.leaves().size(); ++leaf) {
    if (layout == LayoutKind::kApax) {
      Buffer raw;
      LSMCOL_RETURN_NOT_OK(reader.ReadLeaf(leaf, &raw));
      pieces->emplace_back();
      LSMCOL_RETURN_NOT_OK(LzDecompress(raw.slice(), &pieces->back()));
      continue;
    }
    const LeafEntry& entry = reader.leaves()[leaf];
    Buffer page0_bytes;
    LSMCOL_RETURN_NOT_OK(reader.ReadLeafRange(
        leaf, 0, std::min<uint64_t>(entry.payload_size, reader.page_size()),
        &page0_bytes));
    AmaxPageZero page0;
    LSMCOL_RETURN_NOT_OK(page0.Init(page0_bytes.slice()));
    for (uint32_t c = 1; c < page0.column_count(); ++c) {
      const AmaxColumnExtent& extent = page0.extent(static_cast<int>(c));
      if (extent.size == 0) continue;
      Buffer raw;
      LSMCOL_RETURN_NOT_OK(
          reader.ReadLeafRange(leaf, extent.offset, extent.size, &raw));
      pieces->emplace_back();
      LSMCOL_RETURN_NOT_OK(ParseAmaxMegapage(
          raw.slice(), schema.column(static_cast<int>(c)),
          /*compressed=*/true, &pieces->back(), nullptr, nullptr));
    }
  }
  return Status::OK();
}

}  // namespace

Status ReplayRead(Tracer* tracer, const Snapshot& snapshot,
                  const Projection& projection, std::optional<int64_t> key,
                  uint64_t* entries_decoded) {
  for (size_t i = 0; i < snapshot.component_count(); ++i) {
    const Component& component = snapshot.component(i);
    if (!IsColumnar(component.meta().layout)) continue;
    const Schema& schema = *component.schema();
    const std::vector<bool> mask = ProjectedColumns(schema, projection);
    BufferCache cold(kReplayCacheBytes, component.reader().page_size());
    LSMCOL_ASSIGN_OR_RETURN(
        auto reader, ComponentReader::Open(component.path(), &cold,
                                           component.reader().page_size()));
    const auto& leaves = reader->leaves();
    size_t first = 0, last = leaves.size();
    if (key.has_value()) {
      first = reader->LowerBoundLeaf(*key);
      if (first >= leaves.size() || leaves[first].min_key > *key) continue;
      last = first + 1;
    }
    for (size_t leaf = first; leaf < last; ++leaf) {
      LeafChunks chunks;
      chunks.chunk.resize(mask.size());
      if (component.meta().layout == LayoutKind::kApax) {
        LSMCOL_RETURN_NOT_OK(LoadApaxLeaf(tracer, *reader,
                                          component.meta().compressed, leaf,
                                          mask, &chunks));
      } else {
        LSMCOL_RETURN_NOT_OK(LoadAmaxLeaf(tracer, *reader, schema,
                                          component.meta().compressed, leaf,
                                          mask, &chunks));
      }
      std::vector<int64_t> keys;
      LSMCOL_RETURN_NOT_OK(
          DecodeLeaf(tracer, schema, chunks, &keys, entries_decoded));
      std::optional<size_t> position;
      if (key.has_value()) {
        auto it = std::lower_bound(keys.begin(), keys.end(), *key);
        if (it == keys.end() || *it != *key) continue;
        position = static_cast<size_t>(it - keys.begin());
      }
      LSMCOL_RETURN_NOT_OK(AssembleLeaf(tracer, schema, chunks, mask,
                                        projection.all, position));
    }
  }
  return Status::OK();
}

Status ReplayFlush(Tracer* tracer, const std::vector<const Value*>& docs,
                   const DatasetOptions& options, Schema* schema,
                   const std::string& scratch_path, size_t* leaves) {
  {
    Tracer::Scope span(tracer, "schema.infer");
    for (const Value* doc : docs) {
      LSMCOL_RETURN_NOT_OK(schema->MergeRecord(*doc));
    }
  }
  BufferCache cache(kReplayCacheBytes, options.page_size);
  LSMCOL_ASSIGN_OR_RETURN(
      auto writer,
      ComponentWriter::Create(scratch_path, &cache, options.page_size));
  {
    Tracer::Scope span(tracer, "columnar.shred");
    ColumnWriterSet writers(schema);
    RecordShredder shredder(schema, &writers);
    for (const Value* doc : docs) {
      LSMCOL_RETURN_NOT_OK(shredder.Shred(*doc));
      LSMCOL_RETURN_NOT_OK(
          MaybeEmitLeaf(tracer, options, &writers, writer.get(), false));
    }
    LSMCOL_RETURN_NOT_OK(
        MaybeEmitLeaf(tracer, options, &writers, writer.get(), true));
  }
  ComponentMeta meta;
  meta.layout = options.layout;
  meta.compressed = options.compress;
  meta.entry_count = docs.size();
  Buffer meta_blob;
  meta.SerializeTo(&meta_blob, schema);
  {
    Tracer::Scope span(tracer, "storage.component_finish");
    LSMCOL_RETURN_NOT_OK(writer->Finish(meta_blob.slice()));
  }
  writer.reset();
  std::vector<Buffer> pieces;
  {
    LSMCOL_ASSIGN_OR_RETURN(
        auto reader,
        ComponentReader::Open(scratch_path, &cache, options.page_size));
    *leaves = reader->leaves().size();
    if (options.compress) {
      LSMCOL_RETURN_NOT_OK(
          UncompressedPieces(*reader, options.layout, *schema, &pieces));
    }
  }
  if (options.compress) {
    Tracer::Scope span(tracer, "encoding.lz_compress");
    for (const Buffer& piece : pieces) {
      Buffer compressed;
      LzCompress(piece.slice(), &compressed);
      g_sink = g_sink + compressed.size();
    }
  }
  return RemoveFileIfExists(scratch_path);
}

}  // namespace lsmcol::e2e
