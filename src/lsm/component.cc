#include "src/lsm/component.h"

#include <algorithm>
#include <cstring>

#include "src/columnar/presence_index.h"
#include "src/encoding/lz.h"

namespace lsmcol {

void ComponentMeta::SerializeTo(Buffer* out, const Schema* schema) const {
  out->AppendByte(static_cast<uint8_t>(layout));
  out->AppendByte(compressed ? 1 : 0);
  out->AppendVarint64(component_id);
  out->AppendVarint64(entry_count);
  if (schema != nullptr) {
    Buffer blob;
    schema->SerializeTo(&blob);
    out->AppendVarint64(blob.size());
    out->Append(blob.slice());
  } else {
    out->AppendVarint64(0);
  }
}

Result<ComponentMeta> ComponentMeta::Parse(Slice input, Buffer* schema_blob) {
  BufferReader r(input);
  ComponentMeta meta;
  uint8_t layout = 0, compressed = 0;
  LSMCOL_RETURN_NOT_OK(r.ReadByte(&layout));
  if (layout > 3) return Status::Corruption("bad layout byte");
  meta.layout = static_cast<LayoutKind>(layout);
  LSMCOL_RETURN_NOT_OK(r.ReadByte(&compressed));
  meta.compressed = compressed != 0;
  LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&meta.component_id));
  LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&meta.entry_count));
  Slice blob;
  LSMCOL_RETURN_NOT_OK(r.ReadLengthPrefixed(&blob));
  schema_blob->clear();
  schema_blob->Append(blob);
  return meta;
}

Component::~Component() {
  if (obsolete_ && reader_ != nullptr) {
    // Deferred deletion of a merged-away component. A failure here only
    // leaks a file no manifest references; the next open sweeps it.
    Status st = reader_->Destroy();
    (void)st;
  }
}

Result<std::unique_ptr<Component>> Component::Open(
    const std::string& path, BufferCache* cache, size_t page_size,
    FileSystem* fs, std::shared_ptr<ComponentFaultCounters> fault_counters) {
  std::unique_ptr<Component> component(new Component());
  component->fault_counters_ = std::move(fault_counters);
  LSMCOL_ASSIGN_OR_RETURN(component->reader_,
                          ComponentReader::Open(path, cache, page_size, fs));
  Buffer schema_blob;
  LSMCOL_ASSIGN_OR_RETURN(
      component->meta_,
      ComponentMeta::Parse(component->reader_->metadata(), &schema_blob));
  const bool columnar = component->meta_.layout == LayoutKind::kApax ||
                        component->meta_.layout == LayoutKind::kAmax;
  if (columnar) {
    if (schema_blob.empty()) {
      return Status::Corruption("columnar component lacks schema: " + path);
    }
    LSMCOL_ASSIGN_OR_RETURN(Schema schema,
                            Schema::Deserialize(schema_blob.slice()));
    component->schema_.emplace(std::move(schema));
    component->record_plan_.emplace(
        AssemblyPlan::ForRecord(*component->schema_));
  }
  return component;
}

Result<std::unique_ptr<Component>> Component::OpenForSalvage(
    const std::string& path, BufferCache* cache, size_t page_size,
    FileSystem* fs) {
  LSMCOL_ASSIGN_OR_RETURN(auto component,
                          Open(path, cache, page_size, fs, nullptr));
  component->salvage_ = true;
  return component;
}

Status Component::CheckReadable() const {
  if (!quarantined_.load(std::memory_order_acquire)) return Status::OK();
  MutexLock lock(&fault_mu_);
  return quarantine_reason_;
}

void Component::Quarantine(const Status& reason) const {
  MutexLock lock(&fault_mu_);
  if (quarantined_.load(std::memory_order_relaxed)) return;
  quarantine_reason_ = reason;
  quarantined_.store(true, std::memory_order_release);
  if (fault_counters_ != nullptr) {
    fault_counters_->quarantines.fetch_add(1, std::memory_order_release);
  }
}

Status Component::NoteRead(Status st) const {
  if (st.ok() || !st.IsDataDamage() || salvage_) return st;
  if (fault_counters_ != nullptr) {
    fault_counters_->checksum_failures.fetch_add(1, std::memory_order_relaxed);
  }
  Quarantine(st);
  return st;
}

Status Component::ReadLeaf(size_t leaf_index, Buffer* out) const {
  LSMCOL_RETURN_NOT_OK(CheckReadable());
  return NoteRead(reader_->ReadLeaf(leaf_index, out));
}

Result<CacheHandle> Component::FetchUnit(
    size_t leaf_index, int column, CacheUse use,
    const BufferCache::UnitLoader& load) const {
  LSMCOL_RETURN_NOT_OK(CheckReadable());
  Result<CacheHandle> unit = reader_->FetchDecoded(
      leaf_index, column, load, use == CacheUse::kInstall);
  if (!unit.ok()) return NoteRead(unit.status());
  return unit;
}

Status Component::OpenApaxImage(ColumnarLeaf* leaf) const {
  if (leaf->image_leaf_ == leaf->leaf_) return Status::OK();
  leaf->image_leaf_ = SIZE_MAX;
  leaf->stored_.clear();
  LSMCOL_RETURN_NOT_OK(reader_->ReadLeaf(leaf->leaf_, &leaf->stored_));
  LSMCOL_RETURN_NOT_OK(
      leaf->image_.Open(leaf->stored_.slice(), meta_.compressed));
  leaf->image_leaf_ = leaf->leaf_;
  return Status::OK();
}

Result<CacheHandle> Component::DecodedLeaf(size_t leaf_index,
                                           CacheUse use) const {
  LSMCOL_DCHECK(!schema_.has_value());
  return FetchUnit(leaf_index, -1, use, [&](Buffer* out) -> Status {
    const uint64_t size = reader_->leaves()[leaf_index].payload_size;
    if (!meta_.compressed) {
      LSMCOL_RETURN_NOT_OK(reader_->ReadLeafRange(leaf_index, 0, size, out));
      // Cached as read and charged by size: give back the trailers' room
      // and an unused last-page tail when they are a real share of it.
      if (out->capacity() > size + size / 8) out->ShrinkToFit();
      return Status::OK();
    }
    Buffer raw;
    LSMCOL_RETURN_NOT_OK(reader_->ReadLeafRange(leaf_index, 0, size, &raw));
    return LzDecompress(raw.slice(), out);
  });
}

Result<CacheHandle> Component::DecodedHead(ColumnarLeaf* leaf) const {
  if (meta_.layout == LayoutKind::kApax) {
    return FetchUnit(leaf->leaf_, -1, leaf->use_, [this, leaf](Buffer* out) {
      LSMCOL_RETURN_NOT_OK(OpenApaxImage(leaf));
      leaf->image_.HeadUnit(out);
      return Status::OK();
    });
  }
  // An AMAX leaf's head is its Page 0, which is stored uncompressed.
  return FetchUnit(leaf->leaf_, -1, leaf->use_, [this, leaf](Buffer* out) {
    const uint64_t size = std::min<uint64_t>(
        reader_->leaves()[leaf->leaf_].payload_size, reader_->page_size());
    LSMCOL_RETURN_NOT_OK(reader_->ReadLeafRange(leaf->leaf_, 0, size, out));
    if (out->capacity() > size + size / 8) out->ShrinkToFit();
    return Status::OK();
  });
}

Result<CacheHandle> Component::DecodedColumn(ColumnarLeaf* leaf,
                                             int column_id) const {
  // A loader of at most two pointers fits std::function's inline storage,
  // so a fetch (a lookup makes one per column) allocates nothing.
  struct {
    ColumnarLeaf* leaf;
    int column;
  } args{leaf, column_id};
  if (meta_.layout == LayoutKind::kApax) {
    return FetchUnit(leaf->leaf_, column_id, leaf->use_,
                     [this, &args](Buffer* out) {
      LSMCOL_RETURN_NOT_OK(OpenApaxImage(args.leaf));
      ApaxLeaf& image = args.leaf->image_;
      if (static_cast<uint32_t>(args.column) >= image.column_count()) {
        return Status::Corruption("apax leaf " +
                                  std::to_string(args.leaf->leaf_) +
                                  " holds no column " +
                                  std::to_string(args.column));
      }
      return image.ColumnUnit(args.column, out);
    });
  }
  return FetchUnit(leaf->leaf_, column_id, leaf->use_,
                   [this, &args](Buffer* out) {
    const AmaxColumnExtent extent = args.leaf->page0_.extent(args.column);
    Buffer raw;
    LSMCOL_RETURN_NOT_OK(reader_->ReadLeafRange(args.leaf->leaf_,
                                                extent.offset, extent.size,
                                                &raw, &args.leaf->memo_));
    return ParseAmaxMegapage(raw.slice(), schema_->column(args.column),
                             meta_.compressed, out, nullptr, nullptr);
  });
}

Status Component::OpenColumnarLeaf(size_t leaf_index, ColumnarLeaf* leaf,
                                   CacheUse use) const {
  leaf->leaf_ = leaf_index;
  leaf->use_ = use;
  leaf->memo_.clear();
  LSMCOL_ASSIGN_OR_RETURN(leaf->head_, DecodedHead(leaf));
  if (meta_.layout == LayoutKind::kApax) {
    ApaxHead head;
    LSMCOL_RETURN_NOT_OK(head.Parse(leaf->head_.data()));
    leaf->column_count_ = head.column_count();
    leaf->pk_chunk_ = head.pk_chunk();
  } else {
    // AMAX: only Page 0 (header, zone prefixes, PKs) is read here (§4.3).
    LSMCOL_RETURN_NOT_OK(leaf->page0_.Parse(leaf->head_.data()));
    leaf->column_count_ = leaf->page0_.column_count();
    leaf->pk_chunk_ = leaf->page0_.pk_chunk();
  }
  return Status::OK();
}

Status Component::ColumnChunk(ColumnarLeaf* leaf, int column_id,
                              CacheHandle* unit, Slice* chunk) const {
  *chunk = Slice();
  if (column_id == 0) {
    *chunk = leaf->pk_chunk_;
    return Status::OK();
  }
  // Columns the leaf predates have no unit: all-missing.
  if (static_cast<uint32_t>(column_id) >= leaf->column_count_) {
    return Status::OK();
  }
  const bool apax = meta_.layout == LayoutKind::kApax;
  if (!unit->valid()) {
    if (apax && leaf->use_ == CacheUse::kOneShot) {
      // A one-shot reader reads every column of the leaf: cut the chunk
      // from the leaf's image rather than build a unit per column.
      LSMCOL_RETURN_NOT_OK(CheckReadable());
      LSMCOL_RETURN_NOT_OK(NoteRead(OpenApaxImage(leaf)));
      return NoteRead(leaf->image_.Chunk(column_id, chunk));
    }
    // An AMAX column unknown to the leaf has no megapage.
    if (!apax && leaf->page0_.extent(column_id).size == 0) {
      return Status::OK();
    }
    LSMCOL_ASSIGN_OR_RETURN(*unit, DecodedColumn(leaf, column_id));
  }
  if (apax) return ParseApaxColumnUnit(unit->data(), chunk, nullptr);
  *chunk = unit->data();
  return Status::OK();
}

Status Component::ColumnZone(ColumnarLeaf* leaf, int column_id,
                             CacheHandle* unit, ZoneMap* zone) const {
  LSMCOL_DCHECK(column_id > 0);
  *zone = ZoneMap();
  zone->type = schema_->column(column_id).type;
  if (static_cast<uint32_t>(column_id) >= leaf->column_count_) {
    return Status::OK();  // absent from the leaf: no values
  }
  if (meta_.layout == LayoutKind::kAmax) {
    const AmaxColumnExtent extent = leaf->page0_.extent(column_id);
    zone->has_values = extent.size != 0;
    std::memcpy(&zone->min_int, extent.min_prefix, 8);
    std::memcpy(&zone->max_int, extent.max_prefix, 8);
    std::memcpy(&zone->min_double, extent.min_prefix, 8);
    std::memcpy(&zone->max_double, extent.max_prefix, 8);
    if (zone->type == AtomicType::kString) {
      zone->min_string.assign(
          reinterpret_cast<const char*>(extent.min_prefix), 8);
      zone->max_string.assign(
          reinterpret_cast<const char*>(extent.max_prefix), 8);
      zone->string_prefixes = true;
    }
    return Status::OK();
  }
  if (!unit->valid()) {
    LSMCOL_ASSIGN_OR_RETURN(*unit, DecodedColumn(leaf, column_id));
  }
  Slice chunk;
  ApaxChunkStats stats;
  LSMCOL_RETURN_NOT_OK(ParseApaxColumnUnit(unit->data(), &chunk, &stats));
  zone->has_values = !chunk.empty() && stats.has_stats;
  zone->min_int = stats.min_int;
  zone->max_int = stats.max_int;
  zone->min_double = stats.min_double;
  zone->max_double = stats.max_double;
  zone->min_string = std::move(stats.min_string);
  zone->max_string = std::move(stats.max_string);
  return Status::OK();
}

namespace {

// What a columnar leaf's head unit carries for lookups, as two cache
// attachments charged with it and evicted with it:
//  - the leaf's keys (LeafKeys), built on the leaf's first lookup, hit or
//    miss;
//  - its presence index (PresenceIndex), built on the first full-record
//    lookup that finds its key. A miss, an anti-matter hit or a projected
//    lookup never builds it: building reads every column of the leaf, and
//    a projected lookup reads only the columns it asks for.
constexpr size_t kLeafKeysSlot = 0;
constexpr size_t kPresenceSlot = 1;

// The leaf keys attachment:
//   records × int64 key | records × byte, 1 for anti-matter.
class LeafKeys {
 public:
  static Status Build(Slice pk_chunk, const ColumnInfo& pk, size_t records,
                      Buffer* out) {
    ColumnEntryBatch batch;
    LSMCOL_RETURN_NOT_OK(DecodeLeafKeys(pk_chunk, pk, records, &batch));
    out->clear();
    out->Append(Slice(reinterpret_cast<const char*>(batch.ints.data()),
                      records * sizeof(int64_t)));
    for (int def : batch.defs) out->AppendByte(def == 0 ? 1 : 0);
    return Status::OK();
  }

  LeafKeys(Slice bytes, size_t records) : bytes_(bytes), records_(records) {}

  /// The index of `key` among the leaf's records; records when absent.
  size_t Find(int64_t key) const {
    size_t lo = 0, hi = records_;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (Key(mid) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < records_ && Key(lo) == key ? lo : records_;
  }
  bool anti_matter(size_t record) const {
    return bytes_[records_ * sizeof(int64_t) + record] != 0;
  }

 private:
  int64_t Key(size_t i) const {
    int64_t key = 0;
    std::memcpy(&key, bytes_.data() + i * sizeof(int64_t), sizeof(key));
    return key;
  }

  Slice bytes_;
  size_t records_;
};

}  // namespace

Status DecodeLeafKeys(Slice pk_chunk, const ColumnInfo& pk, size_t records,
                      ColumnEntryBatch* batch) {
  ColumnChunkReader reader;
  LSMCOL_RETURN_NOT_OK(reader.Init(pk_chunk, pk));
  LSMCOL_RETURN_NOT_OK(reader.NextEntryBatch(reader.entry_count(), batch));
  if (batch->entry_count() != records || batch->ints.size() != records) {
    return Status::Corruption("leaf key column holds " +
                              std::to_string(batch->entry_count()) +
                              " keys for " + std::to_string(records) +
                              " records");
  }
  return Status::OK();
}

std::vector<bool> Component::ProjectedColumns(
    const Projection& projection) const {
  std::vector<bool> projected(static_cast<size_t>(schema_->column_count()),
                              projection.all);
  projected[0] = true;  // PK always
  if (!projection.all) {
    for (const auto& path : projection.paths) {
      const SchemaNode* node = schema_->ResolvePath(path);
      if (node == nullptr) continue;  // path unknown to this component
      for (int c : Schema::ColumnsUnder(node)) projected[c] = true;
    }
  }
  return projected;
}

Result<KeyProbe> Component::Lookup(int64_t key, const Projection& projection,
                                   Value* out) const {
  // Key fences: only the leaf that would hold the key can.
  const auto& leaves = reader_->leaves();
  const size_t leaf = reader_->LowerBoundLeaf(key);
  if (leaf == leaves.size() || leaves[leaf].min_key > key) {
    return KeyProbe::kAbsent;
  }
  if (!schema_.has_value()) {
    // Row layouts: a leaf is one page of entries, walked in place.
    LSMCOL_ASSIGN_OR_RETURN(CacheHandle unit,
                            DecodedLeaf(leaf, CacheUse::kInstall));
    RowLeafReader rows;
    LSMCOL_RETURN_NOT_OK(rows.Init(unit.data()));
    while (!rows.AtEnd()) {
      int64_t k = 0;
      bool anti_matter = false;
      Slice row;
      LSMCOL_RETURN_NOT_OK(rows.Next(&k, &anti_matter, &row));
      if (k < key) continue;
      if (k > key) break;
      if (anti_matter) return KeyProbe::kAntiMatter;
      LSMCOL_RETURN_NOT_OK(GetRowCodec(meta_.layout).Decode(row, out));
      return KeyProbe::kRecord;
    }
    return KeyProbe::kAbsent;
  }
  ColumnarLeaf columnar;
  LSMCOL_RETURN_NOT_OK(OpenColumnarLeaf(leaf, &columnar, CacheUse::kInstall));
  const size_t records = leaves[leaf].record_count;
  BufferCache* cache = reader_->cache();
  Result<Slice> keys_bytes = cache->Attachment(
      columnar.head_,
      [&](Buffer* built) {
        return LeafKeys::Build(columnar.pk_chunk_, schema_->column(0), records,
                               built);
      },
      kLeafKeysSlot);
  if (!keys_bytes.ok()) return NoteRead(keys_bytes.status());
  const LeafKeys keys(*keys_bytes, records);
  const size_t record = keys.Find(key);
  if (record == records) return KeyProbe::kAbsent;
  if (keys.anti_matter(record)) return KeyProbe::kAntiMatter;

  // The columns to read: a projection's, or the ones the leaf's presence
  // index lists for the record, built on the leaf's first full-record hit.
  std::optional<AssemblyPlan> projected_plan;
  std::vector<int> listed;
  std::vector<CacheHandle> units;  // by column id: what a build fetched
  if (projection.all) {
    Result<Slice> presence = cache->Attachment(
        columnar.head_,
        [&](Buffer* built) {
          return BuildPresenceIndex(&columnar, records, built, &units);
        },
        kPresenceSlot);
    if (!presence.ok()) return presence.status();  // noted by the build
    PresenceIndex(*presence, records).Columns(record, &listed);
  } else {
    const std::vector<bool> projected = ProjectedColumns(projection);
    projected_plan.emplace(AssemblyPlan::ForRecord(*schema_, &projected));
  }
  const AssemblyPlan& plan =
      projected_plan.has_value() ? *projected_plan : *record_plan_;
  const std::vector<int>& read = projection.all ? listed : plan.columns();

  // The record's entries of each column read, assembled exactly as
  // ColumnarComponentCursor::Record does; a column not read is all-missing
  // (nullptr). A column's seek index is built on its first lookup in the
  // leaf and kept as its unit's attachment.
  ColumnRecord pk;
  pk.root.kind = ShredCell::Kind::kLeaf;
  pk.root.def = 1;
  pk.root.value_index = 0;
  pk.values.push_back(Value::Int(key));
  std::vector<const ColumnRecord*> by_column(
      static_cast<size_t>(schema_->column_count()));
  by_column[0] = &pk;
  std::vector<ColumnRecord> cells(read.size());
  ColumnChunkReader column;
  for (size_t i = 0; i < read.size(); ++i) {
    const int c = read[i];
    if (c == 0) continue;  // the PK, from the key
    const ColumnInfo& info = schema_->column(c);
    Slice chunk;
    // Pins the bytes `chunk` and its index point into; a unit the build
    // just fetched is not fetched again.
    CacheHandle holder;
    if (static_cast<size_t>(c) < units.size()) holder = std::move(units[c]);
    LSMCOL_RETURN_NOT_OK(ColumnChunk(&columnar, c, &holder, &chunk));
    if (chunk.empty()) continue;  // column unknown to the leaf: missing
    Result<Slice> index = cache->Attachment(holder, [&](Buffer* built) {
      ColumnChunkReader walker;
      LSMCOL_RETURN_NOT_OK(walker.Init(chunk, info));
      return walker.BuildSeekIndex(built);
    });
    if (!index.ok()) return NoteRead(index.status());
    LSMCOL_RETURN_NOT_OK(column.Init(chunk, info));
    Status st = column.Seek(record, *index);
    if (st.ok()) st = column.NextRecord(&cells[i]);
    if (st.code() == StatusCode::kOutOfRange) {
      return Status::Corruption("column " + info.path + " ends before record " +
                                std::to_string(record) + " of its leaf");
    }
    LSMCOL_RETURN_NOT_OK(st);
    by_column[static_cast<size_t>(c)] = &cells[i];
  }
  AssemblyScratch scratch;
  LSMCOL_RETURN_NOT_OK(plan.Assemble(by_column, &scratch, out));
  return KeyProbe::kRecord;
}

Status Component::BuildPresenceIndex(ColumnarLeaf* leaf, size_t records,
                                     Buffer* out,
                                     std::vector<CacheHandle>* units) const {
  PresenceIndexBuilder builder(*schema_, records);
  const auto columns = std::min<uint32_t>(
      leaf->column_count_, static_cast<uint32_t>(schema_->column_count()));
  units->clear();
  units->resize(columns);
  for (uint32_t c = 1; c < columns; ++c) {
    const int column_id = static_cast<int>(c);
    Slice chunk;
    LSMCOL_RETURN_NOT_OK(ColumnChunk(leaf, column_id, &(*units)[c], &chunk));
    if (chunk.empty()) continue;
    LSMCOL_RETURN_NOT_OK(
        NoteRead(builder.AddColumn(chunk, schema_->column(column_id))));
  }
  builder.Finish(out);
  return Status::OK();
}

// ------------------------------------------------------ RowComponentCursor

Result<bool> RowComponentCursor::Next() {
  const auto& leaves = component_->reader().leaves();
  while (true) {
    if (!leaf_loaded_) {
      while (leaf_index_ < leaves.size() &&
             leaves[leaf_index_].max_key < seek_floor_) {
        ++leaf_index_;  // whole-leaf skip, no I/O
      }
      if (leaf_index_ >= leaves.size()) return false;
      LSMCOL_ASSIGN_OR_RETURN(leaf_unit_,
                              component_->DecodedLeaf(leaf_index_, use_));
      LSMCOL_RETURN_NOT_OK(leaf_reader_.Init(leaf_unit_.data()));
      leaf_loaded_ = true;
    }
    if (leaf_reader_.AtEnd()) {
      leaf_loaded_ = false;
      ++leaf_index_;
      continue;
    }
    LSMCOL_RETURN_NOT_OK(leaf_reader_.Next(&key_, &anti_matter_, &row_));
    if (key_ < seek_floor_) continue;
    return true;
  }
}

Status RowComponentCursor::Record(Value* out) {
  return GetRowCodec(component_->meta().layout).Decode(row_, out);
}

Status RowComponentCursor::Path(const std::vector<std::string>& path,
                                Value* out) {
  return GetRowCodec(component_->meta().layout).ExtractPath(row_, path, out);
}

Status RowComponentCursor::SeekForward(int64_t target) {
  seek_floor_ = std::max(seek_floor_, target);
  return Status::OK();
}

// ------------------------------------------------- ColumnarComponentCursor

ColumnarComponentCursor::ColumnarComponentCursor(
    const Component* component, const Projection& projection,
    const ScanPredicateSet* predicates,
    std::vector<std::pair<int64_t, int64_t>> foreign_key_ranges)
    : component_(component),
      foreign_ranges_(std::move(foreign_key_ranges)) {
  const Schema* schema = component_->schema();
  LSMCOL_CHECK(schema != nullptr);
  const size_t ncols = static_cast<size_t>(schema->column_count());
  if (projection.all) {
    record_plan_ = &component_->record_plan();
  } else {
    projected_ = component_->ProjectedColumns(projection);
  }
  state_of_.resize(ncols);
  by_column_.resize(ncols);
  by_column_[0] = &pk_record_;
  if (predicates != nullptr && !predicates->empty()) {
    ResolvePredicates(*predicates);
  }
  // Synthetic PK column record reused for assembly.
  pk_record_.root.kind = ShredCell::Kind::kLeaf;
  pk_record_.root.def = 1;
  pk_record_.root.value_index = 0;
  pk_record_.values.push_back(Value::Int(0));
}

void ColumnarComponentCursor::ResolvePredicates(
    const ScanPredicateSet& predicates) {
  const Schema* schema = component_->schema();
  for (const ScanPredicate& pred : predicates) {
    // PK predicates check the decoded key directly.
    if (pred.path.size() == 1 && pred.path[0] == schema->pk_field()) {
      TypedPredicate typed = CompileScanPredicate(pred, schema->column(0));
      if (typed.never_match) {
        component_never_match_ = true;
        return;
      }
      pk_preds_.push_back(std::move(typed));
      has_checked_predicates_ = true;
      continue;
    }
    // Walk object fields only, exactly like Path(): anything fancier
    // (union / array boundary mid-path) is left to full evaluation.
    const SchemaNode* node = &schema->root();
    bool unpushable = false;
    bool missing = false;
    for (const std::string& step : pred.path) {
      if (!node->is_object()) {
        unpushable = true;
        break;
      }
      const SchemaNode* child = node->FindField(step);
      if (child == nullptr) {
        missing = true;
        break;
      }
      node = child;
    }
    if (missing) {
      // The path does not exist in this component's schema: the field is
      // MISSING for every record here, so no record can pass the filter.
      component_never_match_ = true;
      return;
    }
    if (unpushable || !node->is_atomic()) {
      has_unchecked_predicates_ = true;
      continue;
    }
    const ColumnInfo& info = schema->column(node->column_id());
    if (info.array_count() != 0) {
      // Values under arrays compare with SQL++ array-mapping semantics;
      // not worth modeling here.
      has_unchecked_predicates_ = true;
      continue;
    }
    TypedPredicate typed = CompileScanPredicate(pred, info);
    if (typed.never_match) {
      component_never_match_ = true;
      return;
    }
    has_checked_predicates_ = true;
    PredColumn* pc = nullptr;
    for (PredColumn& existing : pred_columns_) {
      if (existing.column_id == info.id) {
        pc = &existing;
        break;
      }
    }
    if (pc == nullptr) {
      pred_columns_.emplace_back();
      pc = &pred_columns_.back();
      pc->column_id = info.id;
      pc->max_def = info.max_def;
      pc->type = info.type;
    }
    pc->preds.push_back(std::move(typed));
  }
}

bool ColumnarComponentCursor::LeafRangeDisjointFromForeign(
    int64_t min_key, int64_t max_key) const {
  for (const auto& [lo, hi] : foreign_ranges_) {
    if (!(max_key < lo || min_key > hi)) return false;
  }
  return true;
}

Status ColumnarComponentCursor::EvaluateLeafZones() {
  leaf_zone_match_ = true;
  if (component_never_match_) {
    // Component-wide veto (missing path / type-incompatible literal):
    // every leaf fails its "zone" so the whole-leaf skip applies.
    leaf_zone_match_ = false;
    return Status::OK();
  }
  if (!has_checked_predicates_) return Status::OK();
  if (!pk_preds_.empty()) {
    const auto& leaf = component_->reader().leaves()[leaf_index_];
    for (const TypedPredicate& pred : pk_preds_) {
      if (!pred.OverlapsIntZone(leaf.min_key, leaf.max_key)) {
        leaf_zone_match_ = false;
        return Status::OK();
      }
    }
  }
  for (const PredColumn& pc : pred_columns_) {
    ZoneMap zone;
    LSMCOL_RETURN_NOT_OK(component_->ColumnZone(
        &leaf_, pc.column_id, &State(pc.column_id).unit, &zone));
    for (const TypedPredicate& pred : pc.preds) {
      if (!pred.OverlapsZone(zone)) {
        leaf_zone_match_ = false;
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

Status ColumnarComponentCursor::LoadLeaf(size_t leaf_index) {
  leaf_index_ = leaf_index;
  position_in_leaf_ = 0;
  for (const auto& st : states_) {
    st->chunk_loaded = false;
    st->loaded = false;
    st->consumed = 0;
    st->seq = 0;
    st->unit = CacheHandle();
    st->entries.reset();  // whole-leaf decodes are freed, not kept
  }
  const auto& leaf = component_->reader().leaves()[leaf_index];
  leaf_records_ = leaf.record_count;
  LSMCOL_RETURN_NOT_OK(
      component_->OpenColumnarLeaf(leaf_index, &leaf_, CacheUse::kInstall));
  LSMCOL_RETURN_NOT_OK(EvaluateLeafZones());
  if (!leaf_zone_match_ &&
      LeafRangeDisjointFromForeign(leaf.min_key, leaf.max_key)) {
    // Nothing in this leaf can match the filter, and no other source
    // holds keys in its range, so skipping it cannot disturb
    // reconciliation — don't even decode the PKs.
    position_in_leaf_ = leaf_records_;
  } else {
    // The whole leaf's keys and anti-matter defs in one batched decode:
    // Next() degrades to array reads, and seeks binary-search the keys.
    Slice pk_chunk;
    CacheHandle pk_unit;  // stays empty: the leaf's head holds the PKs
    LSMCOL_RETURN_NOT_OK(
        component_->ColumnChunk(&leaf_, 0, &pk_unit, &pk_chunk));
    LSMCOL_RETURN_NOT_OK(DecodeLeafKeys(pk_chunk,
                                        component_->schema()->column(0),
                                        leaf_records_, &pk_batch_));
  }
  leaf_loaded_ = true;
  return Status::OK();
}

Result<bool> ColumnarComponentCursor::Next() {
  const auto& leaves = component_->reader().leaves();
  while (true) {
    if (!leaf_loaded_) {
      while (leaf_index_ < leaves.size() &&
             leaves[leaf_index_].max_key < seek_floor_) {
        ++leaf_index_;  // skipped leaves cost no I/O at all
      }
      if (leaf_index_ >= leaves.size()) return false;
      LSMCOL_RETURN_NOT_OK(LoadLeaf(leaf_index_));
    }
    if (position_in_leaf_ >= leaf_records_) {
      leaf_loaded_ = false;
      ++leaf_index_;
      continue;
    }
    // Fast-forward within the leaf: keys are sorted, so a seek floor maps
    // to a lower_bound over the decoded key array.
    if (seek_floor_ != INT64_MIN &&
        pk_batch_.ints[position_in_leaf_] < seek_floor_) {
      const auto begin = pk_batch_.ints.begin();
      position_in_leaf_ = static_cast<uint64_t>(
          std::lower_bound(begin + static_cast<ptrdiff_t>(position_in_leaf_),
                           pk_batch_.ints.end(), seek_floor_) -
          begin);
      continue;
    }
    // Only the PK is decoded while scanning/reconciling (§4.4).
    key_ = pk_batch_.ints[position_in_leaf_];
    anti_matter_ = pk_batch_.defs[position_in_leaf_] == 0;
    ++position_in_leaf_;
    ++record_seq_;  // invalidates every column's cached record
    return true;
  }
}

ColumnarComponentCursor::ColumnState& ColumnarComponentCursor::State(
    int column_id) {
  LSMCOL_DCHECK(column_id > 0);  // the PK is decoded with the leaf
  ColumnState*& st = state_of_[static_cast<size_t>(column_id)];
  if (st == nullptr) {
    st = states_.emplace_back(std::make_unique<ColumnState>()).get();
    by_column_[static_cast<size_t>(column_id)] = &st->record;
  }
  return *st;
}

Status ColumnarComponentCursor::LeafChunk(int column_id, Slice* out) {
  ColumnState& st = State(column_id);
  if (!st.chunk_loaded) {
    LSMCOL_RETURN_NOT_OK(
        component_->ColumnChunk(&leaf_, column_id, &st.unit, &st.chunk));
    st.chunk_loaded = true;
  }
  *out = st.chunk;
  return Status::OK();
}

Status ColumnarComponentCursor::EnsureColumnCurrent(int column_id) {
  ColumnState& st = State(column_id);
  if (st.seq == record_seq_) return Status::OK();
  if (!st.loaded) {
    Slice chunk;
    LSMCOL_RETURN_NOT_OK(LeafChunk(column_id, &chunk));
    if (!chunk.empty()) {
      LSMCOL_RETURN_NOT_OK(
          st.reader.Init(chunk, component_->schema()->column(column_id)));
    }
    st.loaded = true;
    st.consumed = 0;
  }
  if (st.chunk.empty()) {
    // Column unknown when this leaf was written: all-missing.
    st.record = ColumnRecord();
    st.seq = record_seq_;
    return Status::OK();
  }
  // Batched catch-up: skip every record ignored since the last access in
  // one go (§4.4).
  const uint64_t target = position_in_leaf_ - 1;
  LSMCOL_DCHECK(st.consumed <= target);
  if (target > st.consumed) {
    LSMCOL_RETURN_NOT_OK(st.reader.SkipRecords(target - st.consumed));
    st.consumed = target;
  }
  LSMCOL_RETURN_NOT_OK(st.reader.NextRecord(&st.record));
  ++st.consumed;
  st.seq = record_seq_;
  return Status::OK();
}

Result<const ColumnarComponentCursor::LeafEntries*>
ColumnarComponentCursor::LoadLeafEntries(int column_id, bool values) {
  ColumnState& st = State(column_id);
  if (st.entries == nullptr) {
    Slice chunk;
    LSMCOL_RETURN_NOT_OK(LeafChunk(column_id, &chunk));
    auto le = std::make_unique<LeafEntries>();
    if (!chunk.empty()) {
      const ColumnInfo& info = component_->schema()->column(column_id);
      ColumnChunkReader reader;
      LSMCOL_RETURN_NOT_OK(reader.Init(chunk, info));
      LSMCOL_RETURN_NOT_OK(
          reader.DecodeRecords(&le->batch, &le->starts, &le->values));
      if (le->starts.size() != static_cast<size_t>(leaf_records_) + 1) {
        return Status::Corruption("column " + info.path + " holds " +
                                  std::to_string(le->starts.size() - 1) +
                                  " records in a leaf of " +
                                  std::to_string(leaf_records_));
      }
    }
    st.entries = std::move(le);
  }
  LeafEntries* le = st.entries.get();
  if (values && !le->values_decoded) {
    if (!le->starts.empty()) {
      // The value stream stands apart from the def levels: a fresh reader
      // decodes it without walking them again.
      ColumnChunkReader reader;
      LSMCOL_RETURN_NOT_OK(
          reader.Init(st.chunk, component_->schema()->column(column_id)));
      LSMCOL_RETURN_NOT_OK(reader.DecodeValues(le->values, &le->batch));
    }
    le->values_decoded = true;
  }
  return le;
}

Status ColumnarComponentCursor::RecordSpan(int column_id, ColumnSpan* out,
                                           bool values) {
  LSMCOL_ASSIGN_OR_RETURN(const LeafEntries* le,
                          LoadLeafEntries(column_id, values));
  *out = ColumnSpan();
  if (le->starts.empty()) return Status::OK();  // absent from the leaf
  const size_t rec = static_cast<size_t>(position_in_leaf_ - 1);
  out->batch = &le->batch;
  out->begin = le->starts[rec];
  out->end = le->starts[rec + 1];
  return Status::OK();
}

Result<PredicateVerdict> ColumnarComponentCursor::TestPushedPredicates() {
  if (component_never_match_) return PredicateVerdict::kNoMatch;
  if (!has_checked_predicates_) return PredicateVerdict::kUnknown;
  if (!leaf_zone_match_) return PredicateVerdict::kNoMatch;
  for (const TypedPredicate& pred : pk_preds_) {
    if (!pred.MatchesInt(key_)) return PredicateVerdict::kNoMatch;
  }
  const size_t rec = static_cast<size_t>(position_in_leaf_ - 1);
  for (const PredColumn& pc : pred_columns_) {
    LSMCOL_ASSIGN_OR_RETURN(const LeafEntries* le,
                            LoadLeafEntries(pc.column_id, /*values=*/true));
    // Flat column: entries == records. A column absent from the leaf is
    // MISSING, which compares false (its zone test vetoes the leaf first).
    const ColumnEntryBatch& batch = le->batch;
    if (rec >= batch.entry_count() || batch.defs[rec] != pc.max_def) {
      return PredicateVerdict::kNoMatch;  // MISSING/NULL compares false
    }
    const auto vi = static_cast<size_t>(batch.value_index[rec]);
    for (const TypedPredicate& pred : pc.preds) {
      bool match = true;
      switch (pc.type) {
        case AtomicType::kBoolean:
          match = pred.MatchesInt(static_cast<int64_t>(batch.bools[vi]));
          break;
        case AtomicType::kInt64:
          match = pred.MatchesInt(batch.ints[vi]);
          break;
        case AtomicType::kDouble:
          match = pred.MatchesDouble(batch.doubles[vi]);
          break;
        case AtomicType::kString:
          match = pred.MatchesString(batch.strings[vi]);
          break;
      }
      if (!match) return PredicateVerdict::kNoMatch;
    }
  }
  return has_unchecked_predicates_ ? PredicateVerdict::kUnknown
                                   : PredicateVerdict::kMatch;
}

Status ColumnarComponentCursor::Record(Value* out) {
  if (record_plan_ == nullptr) {
    projected_plan_.emplace(
        AssemblyPlan::ForRecord(*component_->schema(), &projected_));
    record_plan_ = &*projected_plan_;
  }
  pk_record_.values[0] = Value::Int(key_);
  for (int c : record_plan_->columns()) {
    if (c != 0) LSMCOL_RETURN_NOT_OK(EnsureColumnCurrent(c));
  }
  return record_plan_->Assemble(by_column_, &scratch_, out);
}

Status ColumnarComponentCursor::Path(const std::vector<std::string>& path,
                                     Value* out) {
  const Schema* schema = component_->schema();
  if (path.size() == 1 && path[0] == schema->pk_field()) {
    *out = Value::Int(key_);
    return Status::OK();
  }
  // Descend through object fields only; the first array/union boundary is
  // assembled and the remaining steps use SQL++ value-path semantics (so
  // the compiled engine matches ValueFieldSource exactly).
  const SchemaNode* node = &schema->root();
  size_t consumed = 0;
  while (consumed < path.size()) {
    if (!node->is_object()) break;
    const SchemaNode* child = node->FindField(path[consumed]);
    if (child == nullptr) {
      *out = Value::Missing();
      return Status::OK();
    }
    node = child;
    ++consumed;
  }
  if (node == &schema->root()) {
    *out = Value::Missing();
    return Status::OK();
  }
  const AssemblyPlan* plan = nullptr;
  for (const AssemblyPlan& cached : path_plans_) {
    if (cached.root() == node) {
      plan = &cached;
      break;
    }
  }
  if (plan == nullptr) {
    plan = &path_plans_.emplace_back(AssemblyPlan::ForNode(*node));
  }
  // A path that goes on past the PK resolves to the PK node: its column is
  // the synthetic record of the current key, as in Record().
  pk_record_.values[0] = Value::Int(key_);
  for (int c : plan->columns()) {
    if (c != 0) LSMCOL_RETURN_NOT_OK(EnsureColumnCurrent(c));
  }
  Value assembled;
  LSMCOL_RETURN_NOT_OK(plan->Assemble(by_column_, &scratch_, &assembled));
  if (consumed < path.size()) {
    *out = WalkValuePath(assembled, path, consumed);
  } else {
    *out = std::move(assembled);
  }
  return Status::OK();
}

Status ColumnarComponentCursor::SeekForward(int64_t target) {
  seek_floor_ = std::max(seek_floor_, target);
  return Status::OK();
}

// ------------------------------------------------------- MemTableCursor

Result<bool> MemTableCursor::Next() {
  if (!started_) {
    started_ = true;
  } else if (it_ != memtable_->end()) {
    ++it_;
  }
  while (it_ != memtable_->end() && it_.key() < seek_floor_) {
    ++it_;
  }
  if (it_ == memtable_->end()) return false;
  key_ = it_.key();
  anti_matter_ = it_.entry().anti_matter;
  row_ = &it_.entry().row;
  return true;
}

Status MemTableCursor::Record(Value* out) {
  LSMCOL_DCHECK(!anti_matter_);
  return codec_->Decode(Slice(*row_), out);
}

Status MemTableCursor::Path(const std::vector<std::string>& path, Value* out) {
  return codec_->ExtractPath(Slice(*row_), path, out);
}

Status MemTableCursor::SeekForward(int64_t target) {
  seek_floor_ = std::max(seek_floor_, target);
  if (!started_ || (it_ != memtable_->end() && key_ < target)) {
    // Jump with the table's lower_bound instead of a linear walk. Mark the
    // iterator as "pending" so the next Next() does not skip it.
    it_ = memtable_->lower_bound(target);
    started_ = false;
  }
  return Status::OK();
}

}  // namespace lsmcol
