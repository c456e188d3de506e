#include "src/index/secondary_index.h"

#include <algorithm>

#include "src/encoding/delta.h"
#include "src/encoding/rle.h"

namespace lsmcol {
namespace {

constexpr size_t kEntriesPerLeaf = 8192;

// Leaf payload: varint count | delta sks | delta pks | RLE anti flags.
void EncodeLeaf(const std::vector<IndexEntry>& entries,
                const std::vector<bool>& anti, Buffer* out) {
  out->AppendVarint64(entries.size());
  DeltaInt64Encoder sks, pks;
  RleEncoder flags(1);
  for (size_t i = 0; i < entries.size(); ++i) {
    sks.Add(entries[i].secondary_key);
    pks.Add(entries[i].primary_key);
    flags.Add(anti[i] ? 1 : 0);
  }
  sks.FinishInto(out);
  pks.FinishInto(out);
  flags.FinishInto(out);
}

Status DecodeLeaf(Slice payload, std::vector<IndexEntry>* entries,
                  std::vector<bool>* anti) {
  BufferReader r(payload);
  uint64_t count = 0;
  LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&count));
  DeltaInt64Decoder sks;
  LSMCOL_RETURN_NOT_OK(sks.Init(r.rest()));
  std::vector<int64_t> sk_values;
  LSMCOL_RETURN_NOT_OK(sks.DecodeAll(&sk_values));
  DeltaInt64Decoder pks;
  LSMCOL_RETURN_NOT_OK(pks.Init(sks.rest()));
  std::vector<int64_t> pk_values;
  LSMCOL_RETURN_NOT_OK(pks.DecodeAll(&pk_values));
  RleDecoder flags;
  LSMCOL_RETURN_NOT_OK(flags.Init(pks.rest(), 1));
  std::vector<uint64_t> flag_values;
  LSMCOL_RETURN_NOT_OK(flags.DecodeAll(&flag_values));
  if (sk_values.size() != count || pk_values.size() != count ||
      flag_values.size() != count) {
    return Status::Corruption("secondary index leaf count mismatch");
  }
  entries->resize(count);
  anti->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    (*entries)[i] = {sk_values[i], pk_values[i]};
    (*anti)[i] = flag_values[i] != 0;
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<SecondaryIndex>> SecondaryIndex::Create(
    const SecondaryIndexOptions& options, BufferCache* cache) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("SecondaryIndexOptions.dir must be set");
  }
  return std::unique_ptr<SecondaryIndex>(new SecondaryIndex(options, cache));
}

Status SecondaryIndex::Add(int64_t sk, int64_t pk, bool anti) {
  memtable_[{sk, pk}] = anti;  // newest state wins within the memtable
  if (memtable_.size() >= options_.memtable_entries) {
    return Flush();
  }
  return Status::OK();
}

Status SecondaryIndex::Insert(int64_t sk, int64_t pk) {
  return Add(sk, pk, false);
}

Status SecondaryIndex::Delete(int64_t sk, int64_t pk) {
  return Add(sk, pk, true);
}

Result<std::unique_ptr<ComponentReader>> SecondaryIndex::WriteComponent(
    const EntryMap& entries, bool drop_anti) {
  const std::string path = options_.dir + "/" + options_.name + "_" +
                           std::to_string(next_component_id_++) + ".idx";
  LSMCOL_ASSIGN_OR_RETURN(
      auto writer, ComponentWriter::Create(path, cache_, options_.page_size));
  std::vector<IndexEntry> leaf;
  std::vector<bool> anti;
  auto emit = [&]() -> Status {
    if (leaf.empty()) return Status::OK();
    Buffer payload;
    EncodeLeaf(leaf, anti, &payload);
    Status st = writer->AppendLeaf(payload.slice(), leaf.front().secondary_key,
                                   leaf.back().secondary_key,
                                   static_cast<uint32_t>(leaf.size()));
    leaf.clear();
    anti.clear();
    return st;
  };
  for (const auto& [key, is_anti] : entries) {
    if (is_anti && drop_anti) continue;  // full merge: anti-matter annihilates
    leaf.push_back({key.first, key.second});
    anti.push_back(is_anti);
    if (leaf.size() >= kEntriesPerLeaf) LSMCOL_RETURN_NOT_OK(emit());
  }
  LSMCOL_RETURN_NOT_OK(emit());
  LSMCOL_RETURN_NOT_OK(writer->Finish(Slice("SIDX")));
  return ComponentReader::Open(path, cache_, options_.page_size);
}

Status SecondaryIndex::Flush() {
  if (memtable_.empty()) return Status::OK();
  LSMCOL_ASSIGN_OR_RETURN(auto reader,
                          WriteComponent(memtable_, /*drop_anti=*/false));
  components_.insert(components_.begin(), std::move(reader));
  memtable_.clear();
  if (components_.size() > static_cast<size_t>(options_.max_components)) {
    return MergeAll();
  }
  return Status::OK();
}

Status SecondaryIndex::ScanComponentRange(const ComponentReader& component,
                                          int64_t lo, int64_t hi,
                                          bool install, EntryMap* merged) {
  const auto& leaves = component.leaves();
  for (size_t i = component.LowerBoundLeaf(lo);
       i < leaves.size() && leaves[i].min_key <= hi; ++i) {
    auto load = [&](Buffer* out) -> Status {
      LSMCOL_RETURN_NOT_OK(component.ReadLeaf(i, out));
      // Cached as read and charged by size: give back the trailers' room
      // and an unused last-page tail when they are a real share of it.
      if (out->capacity() > out->size() + out->size() / 8) out->ShrinkToFit();
      return Status::OK();
    };
    LSMCOL_ASSIGN_OR_RETURN(CacheHandle leaf,
                            component.FetchDecoded(i, -1, load, install));
    std::vector<IndexEntry> entries;
    std::vector<bool> anti;
    LSMCOL_RETURN_NOT_OK(DecodeLeaf(leaf.data(), &entries, &anti));
    for (size_t j = 0; j < entries.size(); ++j) {
      if (entries[j].secondary_key < lo || entries[j].secondary_key > hi) {
        continue;
      }
      // emplace: an existing (newer) state is not overwritten.
      merged->emplace(
          std::make_pair(entries[j].secondary_key, entries[j].primary_key),
          anti[j]);
    }
  }
  return Status::OK();
}

Status SecondaryIndex::ScanRange(int64_t lo, int64_t hi,
                                 std::vector<IndexEntry>* out) {
  out->clear();
  EntryMap merged;
  // Memtable is newest.
  for (auto it = memtable_.lower_bound({lo, INT64_MIN});
       it != memtable_.end() && it->first.first <= hi; ++it) {
    merged.emplace(it->first, it->second);
  }
  for (const auto& component : components_) {
    LSMCOL_RETURN_NOT_OK(
        ScanComponentRange(*component, lo, hi, /*install=*/true, &merged));
  }
  for (const auto& [key, anti] : merged) {
    if (!anti) out->push_back({key.first, key.second});
  }
  return Status::OK();
}

Result<bool> SecondaryIndex::Contains(int64_t secondary_key) {
  std::vector<IndexEntry> entries;
  LSMCOL_RETURN_NOT_OK(ScanRange(secondary_key, secondary_key, &entries));
  return !entries.empty();
}

Status SecondaryIndex::MergeAll() {
  if (components_.size() < 2 && memtable_.empty()) return Status::OK();
  EntryMap merged = memtable_;  // newest
  for (const auto& component : components_) {
    LSMCOL_RETURN_NOT_OK(ScanComponentRange(*component, INT64_MIN, INT64_MAX,
                                            /*install=*/false, &merged));
  }
  LSMCOL_ASSIGN_OR_RETURN(auto reader,
                          WriteComponent(merged, /*drop_anti=*/true));
  // The memtable is cleared only once its entries are in the installed
  // component: a failed merge loses nothing.
  std::vector<std::unique_ptr<ComponentReader>> old = std::move(components_);
  components_.clear();
  components_.push_back(std::move(reader));
  memtable_.clear();
  for (const auto& component : old) {
    LSMCOL_RETURN_NOT_OK(component->Destroy());
  }
  return Status::OK();
}

uint64_t SecondaryIndex::OnDiskBytes() const {
  uint64_t total = 0;
  for (const auto& component : components_) {
    total += component->size_bytes();
  }
  return total;
}

}  // namespace lsmcol
