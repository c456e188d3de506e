#include "src/columnar/presence_index.h"

#include <algorithm>
#include <climits>
#include <string>

namespace lsmcol {

PresenceIndexBuilder::PresenceIndexBuilder(const Schema& schema,
                                           size_t records)
    : records_(records),
      ancestry_(static_cast<size_t>(schema.column_count())) {
  std::vector<uint32_t> path;
  Walk(schema.root(), /*root=*/true, &path);
  witness_.assign(object_defs_.size() * records_, 0);
}

void PresenceIndexBuilder::Walk(const SchemaNode& node, bool root,
                                std::vector<uint32_t>* path) {
  switch (node.kind()) {
    case SchemaNode::Kind::kAtomic:
    case SchemaNode::Kind::kArray:
      // Below an array an object is present per element: no missing cell
      // can make it present.
      for (const int c : node.columns()) {
        const auto first = static_cast<uint32_t>(ancestors_.size());
        ancestors_.insert(ancestors_.end(), path->begin(), path->end());
        ancestry_[static_cast<size_t>(c)] = {
            first, static_cast<uint32_t>(ancestors_.size())};
      }
      break;
    case SchemaNode::Kind::kObject:
      if (!root) {
        path->push_back(static_cast<uint32_t>(object_defs_.size()));
        object_defs_.push_back(node.def_level());
      }
      for (const auto& field : node.fields()) {
        Walk(*field.second, /*root=*/false, path);
      }
      if (!root) path->pop_back();
      break;
    case SchemaNode::Kind::kUnion:
      for (const auto& alt : node.alternatives()) {
        Walk(*alt, /*root=*/false, path);
      }
      break;
  }
}

Status PresenceIndexBuilder::AddColumn(Slice chunk, const ColumnInfo& info) {
  LSMCOL_DCHECK(info.id > 0 && (column_ends_.empty() ||
                                column_ends_.back().first < info.id));
  LSMCOL_RETURN_NOT_OK(reader_.Init(chunk, info));
  size_t values = 0;
  LSMCOL_RETURN_NOT_OK(reader_.DecodeRecords(&batch_, &starts_, &values));
  if (starts_.size() != records_ + 1) {
    return Status::Corruption("column " + info.path + " holds " +
                              std::to_string(starts_.size() - 1) +
                              " records of a leaf of " +
                              std::to_string(records_));
  }
  const int array_def =
      info.array_defs.empty() ? INT_MAX : info.array_defs.front();
  const auto [first, end] = ancestry_[static_cast<size_t>(info.id)];
  for (size_t r = 0; r < records_; ++r) {
    const uint32_t begin = starts_[r];
    const int def = batch_.defs[begin];
    if (starts_[r + 1] - begin == 1 && def < info.max_def && def < array_def) {
      // A missing cell: a witness candidate of the objects it makes
      // present, listed only if one of them has no other (Finish).
      for (uint32_t a = first; a < end; ++a) {
        const uint32_t object = ancestors_[a];
        if (object_defs_[object] > def) break;
        uint32_t& witness = witness_[object * records_ + r];
        if (witness == 0) witness = static_cast<uint32_t>(info.id);
      }
      continue;
    }
    listed_records_.push_back(static_cast<uint32_t>(r));
    for (uint32_t a = first; a < end; ++a) {
      witness_[ancestors_[a] * records_ + r] = kWitnessedByListed;
    }
  }
  column_ends_.emplace_back(info.id, listed_records_.size());
  return Status::OK();
}

void PresenceIndexBuilder::Finish(Buffer* out) {
  // Each record's listing: the columns that listed it, in the ascending
  // order they were added, then the witnesses its objects still need.
  std::vector<uint32_t> begin(records_ + 1, 0);
  for (const uint32_t r : listed_records_) ++begin[r + 1];
  for (size_t i = 0; i < witness_.size(); ++i) {
    if (witness_[i] != 0 && witness_[i] != kWitnessedByListed) {
      ++begin[i % records_ + 1];
    }
  }
  for (size_t r = 0; r < records_; ++r) begin[r + 1] += begin[r];
  std::vector<uint32_t> ids(begin[records_]);
  std::vector<uint32_t> end(begin.begin(), begin.end() - 1);
  size_t i = 0;
  for (const auto& [column, column_end] : column_ends_) {
    for (; i < column_end; ++i) {
      ids[end[listed_records_[i]]++] = static_cast<uint32_t>(column);
    }
  }
  std::vector<bool> witnessed(records_, false);
  for (size_t w = 0; w < witness_.size(); ++w) {
    if (witness_[w] != 0 && witness_[w] != kWitnessedByListed) {
      const size_t r = w % records_;
      ids[end[r]++] = witness_[w];
      witnessed[r] = true;
    }
  }

  out->clear();
  const size_t header = (records_ + 1) * 4;
  out->resize(header);
  for (size_t r = 0; r < records_; ++r) {
    out->PatchFixed32(r * 4, static_cast<uint32_t>(out->size() - header));
    const auto first = ids.begin() + begin[r];
    auto last = ids.begin() + end[r];
    if (witnessed[r]) {
      // Witnesses join the listing out of order, and one column may
      // witness several objects.
      std::sort(first, last);
      last = std::unique(first, last);
    }
    uint32_t previous = 0;
    for (auto it = first; it != last; ++it) {
      out->AppendVarint64(*it - previous);
      previous = *it;
    }
  }
  out->PatchFixed32(records_ * 4, static_cast<uint32_t>(out->size() - header));
  out->ShrinkToFit();  // kept in the cache, charged by its size
}

void PresenceIndex::Columns(size_t record, std::vector<int>* out) const {
  LSMCOL_DCHECK(record < records_);
  out->clear();
  const char* ids = bytes_.data() + (records_ + 1) * 4;
  const char* p = ids + DecodeFixed32(bytes_.data() + record * 4);
  const char* const end = ids + DecodeFixed32(bytes_.data() + record * 4 + 4);
  uint32_t id = 0;
  while (p < end) {
    // The varints were written by PresenceIndexBuilder::Finish.
    uint32_t gap = 0;
    for (int shift = 0;; shift += 7) {
      const auto byte = static_cast<uint8_t>(*p++);
      gap |= static_cast<uint32_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
    }
    id += gap;
    out->push_back(static_cast<int>(id));
  }
}

}  // namespace lsmcol
