#include "src/index/indexed_dataset.h"

#include <algorithm>

namespace lsmcol {

Result<std::unique_ptr<IndexedDataset>> IndexedDataset::Create(
    const DatasetOptions& options, BufferCache* cache) {
  auto out = std::unique_ptr<IndexedDataset>(new IndexedDataset());
  LSMCOL_ASSIGN_OR_RETURN(out->dataset_, Dataset::Open(options, cache));
  out->cache_ = cache;
  return out;
}

Status IndexedDataset::DeclareIndex(const std::string& name,
                                    std::vector<std::string> field_path) {
  SecondaryIndexOptions options;
  options.dir = dataset_->options().dir;
  options.name = dataset_->options().name + "_" + name;
  options.page_size = dataset_->options().page_size;
  LSMCOL_ASSIGN_OR_RETURN(auto index,
                          SecondaryIndex::Create(options, cache_));
  indexes_.push_back(
      DeclaredIndex{name, std::move(field_path), std::move(index)});
  return Status::OK();
}

Status IndexedDataset::DeclarePrimaryKeyIndex() {
  SecondaryIndexOptions options;
  options.dir = dataset_->options().dir;
  options.name = dataset_->options().name + "_pkidx";
  options.page_size = dataset_->options().page_size;
  LSMCOL_ASSIGN_OR_RETURN(pk_index_, PrimaryKeyIndex::Create(options, cache_));
  return Status::OK();
}

bool IndexedDataset::IndexedValue(const Value& record,
                                  const std::vector<std::string>& path,
                                  int64_t* out) {
  const Value* v = &record;
  for (const auto& step : path) {
    v = &v->Get(step);
  }
  if (!v->is_int()) return false;
  *out = v->int_value();
  return true;
}

Result<IndexedDataset::DeclaredIndex*> IndexedDataset::FindIndex(
    const std::string& name) {
  for (DeclaredIndex& index : indexes_) {
    if (index.name == name) return &index;
  }
  return Status::NotFound("no index named " + name);
}

Projection IndexedDataset::IndexedFieldsProjection() const {
  std::vector<std::vector<std::string>> paths;
  for (const DeclaredIndex& index : indexes_) paths.push_back(index.path);
  return Projection::Of(std::move(paths));
}

Status IndexedDataset::Insert(const Value& record) {
  const Value& pk = record.Get(dataset_->options().pk_field);
  if (!pk.is_int()) {
    return Status::InvalidArgument("record lacks int64 primary key");
  }
  const int64_t key = pk.int_value();

  if (!indexes_.empty()) {
    // §4.6: find and clean out the previous record's index entries. The
    // primary-key index short-circuits lookups for brand-new keys.
    bool may_exist = true;
    if (pk_index_ != nullptr) {
      LSMCOL_ASSIGN_OR_RETURN(may_exist, pk_index_->MayContain(key));
    }
    if (may_exist) {
      // Fetch only the old indexed values (decoding every column of an
      // AMAX mega leaf per update would dominate ingestion).
      Value old_record;
      Status st = dataset_->Lookup(key, IndexedFieldsProjection(), &old_record);
      if (st.ok()) {
        for (DeclaredIndex& index : indexes_) {
          int64_t old_value = 0;
          if (IndexedValue(old_record, index.path, &old_value)) {
            LSMCOL_RETURN_NOT_OK(index.index->Delete(old_value, key));
          }
        }
      } else if (!st.IsNotFound()) {
        return st;
      }
    }
  }

  LSMCOL_RETURN_NOT_OK(dataset_->Insert(record));
  for (DeclaredIndex& index : indexes_) {
    int64_t new_value = 0;
    if (IndexedValue(record, index.path, &new_value)) {
      LSMCOL_RETURN_NOT_OK(index.index->Insert(new_value, key));
    }
  }
  if (pk_index_ != nullptr) {
    LSMCOL_RETURN_NOT_OK(pk_index_->Insert(key));
  }
  return Status::OK();
}

Status IndexedDataset::Delete(int64_t key) {
  if (!indexes_.empty()) {
    Value old_record;
    Status st = dataset_->Lookup(key, IndexedFieldsProjection(), &old_record);
    if (st.ok()) {
      for (DeclaredIndex& index : indexes_) {
        int64_t old_value = 0;
        if (IndexedValue(old_record, index.path, &old_value)) {
          LSMCOL_RETURN_NOT_OK(index.index->Delete(old_value, key));
        }
      }
    } else if (!st.IsNotFound()) {
      return st;
    }
  }
  return dataset_->Delete(key);
}

Status IndexedDataset::Flush() {
  LSMCOL_RETURN_NOT_OK(dataset_->Flush());
  for (DeclaredIndex& index : indexes_) {
    LSMCOL_RETURN_NOT_OK(index.index->Flush());
  }
  if (pk_index_ != nullptr) LSMCOL_RETURN_NOT_OK(pk_index_->Flush());
  return Status::OK();
}

Status IndexedDataset::IndexScan(
    const std::string& index_name, int64_t lo, int64_t hi,
    const Projection& projection,
    const std::function<void(int64_t pk, const Value&)>& consume) {
  LSMCOL_ASSIGN_OR_RETURN(DeclaredIndex * index, FindIndex(index_name));
  std::vector<IndexEntry> entries;
  LSMCOL_RETURN_NOT_OK(index->index->ScanRange(lo, hi, &entries));
  // Sort by primary key so the batched lookups sweep each component once
  // (§4.6). All lookups run against one snapshot: the whole scan sees a
  // single consistent view of the primary index, whatever flushes/merges
  // happen meanwhile.
  std::vector<int64_t> pks;
  pks.reserve(entries.size());
  for (const IndexEntry& e : entries) pks.push_back(e.primary_key);
  std::sort(pks.begin(), pks.end());
  pks.erase(std::unique(pks.begin(), pks.end()), pks.end());
  Snapshot::Ref snapshot = dataset_->GetSnapshot();
  LSMCOL_ASSIGN_OR_RETURN(auto batch, snapshot->NewLookupBatch(projection));
  for (int64_t pk : pks) {
    bool found = false;
    Value record;
    LSMCOL_RETURN_NOT_OK(batch->Find(pk, &found, &record));
    if (found) consume(pk, record);
  }
  return Status::OK();
}

Result<uint64_t> IndexedDataset::IndexCount(const std::string& index_name,
                                            int64_t lo, int64_t hi) {
  LSMCOL_ASSIGN_OR_RETURN(DeclaredIndex * index, FindIndex(index_name));
  std::vector<IndexEntry> entries;
  LSMCOL_RETURN_NOT_OK(index->index->ScanRange(lo, hi, &entries));
  // Verify liveness against the primary index without materializing
  // records (count-only: Find with a null output).
  std::vector<int64_t> pks;
  pks.reserve(entries.size());
  for (const IndexEntry& e : entries) pks.push_back(e.primary_key);
  std::sort(pks.begin(), pks.end());
  pks.erase(std::unique(pks.begin(), pks.end()), pks.end());
  Snapshot::Ref snapshot = dataset_->GetSnapshot();
  LSMCOL_ASSIGN_OR_RETURN(auto batch,
                          snapshot->NewLookupBatch(Projection::Of({})));
  uint64_t count = 0;
  for (int64_t pk : pks) {
    bool found = false;
    LSMCOL_RETURN_NOT_OK(batch->Find(pk, &found, nullptr));
    if (found) ++count;
  }
  return count;
}

uint64_t IndexedDataset::IndexOnDiskBytes() const {
  uint64_t total = 0;
  for (const DeclaredIndex& index : indexes_) {
    total += index.index->OnDiskBytes();
  }
  if (pk_index_ != nullptr) total += pk_index_->OnDiskBytes();
  return total;
}

}  // namespace lsmcol
