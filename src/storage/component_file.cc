#include "src/storage/component_file.h"

#include <string.h>

#include <algorithm>

namespace lsmcol {
namespace {

// "LSMCOLF4". F1 -> F2 when APAX leaves gained the per-chunk stats table
// (zone filters), F2 -> F3 when pages gained the checksum trailer, F3 ->
// F4 when the trailer checksum changed from FNV-1a to PageChecksum. Files
// of earlier versions are cleanly rejected at open instead of being
// mis-parsed; there is no migration path — recovery surfaces Corruption
// and the caller rebuilds.
constexpr uint64_t kFooterMagic = 0x4C534D434F4C4634ULL;

}  // namespace

Result<std::unique_ptr<ComponentWriter>> ComponentWriter::Create(
    const std::string& path, BufferCache* cache, size_t page_size,
    FileSystem* fs) {
  LSMCOL_ASSIGN_OR_RETURN(auto file, PageFile::Create(path, page_size, fs));
  return std::unique_ptr<ComponentWriter>(
      new ComponentWriter(path, std::move(file), cache));
}

Status ComponentWriter::WriteBlob(Slice blob, uint64_t* first_page,
                                  uint32_t* page_count) {
  const size_t page_size = file_->page_size();
  *first_page = next_page_;
  size_t offset = 0;
  uint32_t pages = 0;
  Status st;
  while (offset < blob.size() || pages == 0) {
    size_t chunk = std::min(page_size, blob.size() - offset);
    st = file_->WritePage(next_page_, blob.SubSlice(offset, chunk));
    if (!st.ok()) break;
    offset += chunk;
    ++next_page_;
    ++pages;
  }
  cache_->CountPagesWritten(pages);
  *page_count = pages;
  return st;
}

Status ComponentWriter::AppendLeaf(Slice payload, int64_t min_key,
                                   int64_t max_key, uint32_t record_count) {
  LSMCOL_CHECK(!finished_);
  LeafEntry entry;
  entry.min_key = min_key;
  entry.max_key = max_key;
  entry.payload_size = payload.size();
  entry.record_count = record_count;
  LSMCOL_RETURN_NOT_OK(WriteBlob(payload, &entry.first_page,
                                 &entry.page_count));
  leaves_.push_back(entry);
  return Status::OK();
}

Status ComponentWriter::Finish(Slice metadata) {
  LSMCOL_CHECK(!finished_);
  finished_ = true;
  // Index blob.
  Buffer index;
  index.AppendVarint64(leaves_.size());
  for (const LeafEntry& leaf : leaves_) {
    index.AppendSignedVarint64(leaf.min_key);
    index.AppendSignedVarint64(leaf.max_key);
    index.AppendVarint64(leaf.first_page);
    index.AppendVarint64(leaf.page_count);
    index.AppendVarint64(leaf.payload_size);
    index.AppendVarint64(leaf.record_count);
  }
  uint64_t index_page = 0;
  uint32_t index_pages = 0;
  LSMCOL_RETURN_NOT_OK(WriteBlob(index.slice(), &index_page, &index_pages));
  uint64_t meta_page = 0;
  uint32_t meta_pages = 0;
  LSMCOL_RETURN_NOT_OK(WriteBlob(metadata, &meta_page, &meta_pages));
  // Footer page. The trailing validity byte is the paper's "validity bit"
  // (§2.1.1): it is only set once everything else is durable.
  Buffer footer;
  footer.AppendFixed64(kFooterMagic);
  footer.AppendFixed64(index_page);
  footer.AppendFixed32(index_pages);
  footer.AppendFixed64(index.size());
  footer.AppendFixed64(meta_page);
  footer.AppendFixed32(meta_pages);
  footer.AppendFixed64(metadata.size());
  footer.AppendByte(1);  // valid
  LSMCOL_RETURN_NOT_OK(file_->WritePage(next_page_, footer.slice()));
  cache_->CountPagesWritten(1);
  ++next_page_;
  return file_->Sync();
}

Result<std::unique_ptr<ComponentReader>> ComponentReader::Open(
    const std::string& path, BufferCache* cache, size_t page_size,
    FileSystem* fs) {
  LSMCOL_ASSIGN_OR_RETURN(auto opened, PageFile::Open(path, page_size, fs));
  if (opened->page_count() == 0) {
    return Status::Corruption("empty component file: " + path);
  }
  std::unique_ptr<ComponentReader> reader(
      new ComponentReader(std::move(opened), cache, fs));
  // Footer. A footer page that fails verification yet starts with an
  // earlier footer magic is a file of an earlier format, whose trailers
  // hold another checksum: a version mismatch (Corruption), not damage.
  const PageFile& file = *reader->file_;
  Buffer footer_page;
  const Status footer_read =
      file.ReadPages(file.page_count() - 1, 1,
                     footer_page.AppendUninitialized(file.physical_page_size()));
  if (footer_read.IsChecksumMismatch()) {
    const uint64_t magic = DecodeFixed64(footer_page.data());
    if (magic != kFooterMagic && magic >> 8 == kFooterMagic >> 8) {
      return Status::Corruption("bad component magic (earlier format): " +
                                path);
    }
  }
  LSMCOL_RETURN_NOT_OK(footer_read);
  footer_page.resize(file.page_size());
  BufferReader fr(footer_page.slice());
  uint64_t magic = 0, index_page = 0, index_size = 0, meta_page = 0,
           meta_size = 0;
  uint32_t index_pages = 0, meta_pages = 0;
  uint8_t valid = 0;
  LSMCOL_RETURN_NOT_OK(fr.ReadFixed64(&magic));
  if (magic != kFooterMagic) {
    return Status::Corruption("bad component magic: " + path);
  }
  LSMCOL_RETURN_NOT_OK(fr.ReadFixed64(&index_page));
  LSMCOL_RETURN_NOT_OK(fr.ReadFixed32(&index_pages));
  LSMCOL_RETURN_NOT_OK(fr.ReadFixed64(&index_size));
  LSMCOL_RETURN_NOT_OK(fr.ReadFixed64(&meta_page));
  LSMCOL_RETURN_NOT_OK(fr.ReadFixed32(&meta_pages));
  LSMCOL_RETURN_NOT_OK(fr.ReadFixed64(&meta_size));
  LSMCOL_RETURN_NOT_OK(fr.ReadByte(&valid));
  if (valid != 1) {
    return Status::Corruption("component not marked valid: " + path);
  }

  auto read_blob = [&](uint64_t first, uint32_t pages, uint64_t size,
                       Buffer* out) -> Status {
    if (first >= file.page_count() || pages > file.page_count() - first ||
        size > static_cast<uint64_t>(pages) * file.page_size()) {
      return Status::Corruption("bad blob extent in " + path);
    }
    out->clear();
    LSMCOL_RETURN_NOT_OK(file.ReadPages(
        first, pages,
        out->AppendUninitialized(pages * file.physical_page_size())));
    out->resize(size);
    return Status::OK();
  };

  Buffer index_blob;
  LSMCOL_RETURN_NOT_OK(read_blob(index_page, index_pages, index_size,
                                 &index_blob));
  BufferReader ir(index_blob.slice());
  uint64_t leaf_count = 0;
  LSMCOL_RETURN_NOT_OK(ir.ReadVarint64(&leaf_count));
  reader->leaves_.resize(leaf_count);
  for (uint64_t i = 0; i < leaf_count; ++i) {
    LeafEntry& leaf = reader->leaves_[i];
    uint64_t tmp = 0;
    LSMCOL_RETURN_NOT_OK(ir.ReadSignedVarint64(&leaf.min_key));
    LSMCOL_RETURN_NOT_OK(ir.ReadSignedVarint64(&leaf.max_key));
    LSMCOL_RETURN_NOT_OK(ir.ReadVarint64(&leaf.first_page));
    LSMCOL_RETURN_NOT_OK(ir.ReadVarint64(&tmp));
    leaf.page_count = static_cast<uint32_t>(tmp);
    LSMCOL_RETURN_NOT_OK(ir.ReadVarint64(&leaf.payload_size));
    LSMCOL_RETURN_NOT_OK(ir.ReadVarint64(&tmp));
    leaf.record_count = static_cast<uint32_t>(tmp);
  }
  LSMCOL_RETURN_NOT_OK(read_blob(meta_page, meta_pages, meta_size,
                                 &reader->metadata_));
  return reader;
}

ComponentReader::~ComponentReader() {
  if (!destroyed_ && cache_ != nullptr) cache_->Invalidate(*file_);
}

Status ComponentReader::ReadLeafRange(size_t leaf_index, uint64_t offset,
                                      uint64_t size, Buffer* out,
                                      LeafPageMemo* memo) const {
  LSMCOL_CHECK(leaf_index < leaves_.size());
  const LeafEntry& leaf = leaves_[leaf_index];
  if (offset + size > leaf.payload_size) {
    return Status::OutOfRange("leaf range out of bounds");
  }
  out->clear();
  if (size == 0) return Status::OK();
  const size_t page_size = file_->page_size();
  const uint64_t first = leaf.first_page + offset / page_size;
  const uint64_t last = leaf.first_page + (offset + size - 1) / page_size;
  const uint64_t skip = offset % page_size;
  auto memo_page = [&](uint64_t p) -> const Buffer* {
    if (memo == nullptr) return nullptr;
    for (const auto& [page_no, kept] : *memo) {
      if (page_no == p) return &kept;
    }
    return nullptr;
  };
  // Page p's payload lands at base + (p - first) * page_size. Each run of
  // pages not in the memo is one verified read, whose trailers need room
  // beyond its payloads until ReadPages compacts them; later pages
  // overwrite that room.
  const uint64_t pages = last - first + 1;
  char* base = out->AppendUninitialized(pages * file_->physical_page_size());
  uint64_t pages_read = 0;
  for (uint64_t p = first; p <= last;) {
    char* dst = base + (p - first) * page_size;
    if (const Buffer* kept = memo_page(p)) {
      ::memcpy(dst, kept->data(), page_size);
      ++p;
      continue;
    }
    uint64_t end = p + 1;
    while (end <= last && memo_page(end) == nullptr) ++end;
    LSMCOL_RETURN_NOT_OK(file_->ReadPages(p, end - p, dst));
    pages_read += end - p;
    p = end;
  }
  if (cache_ != nullptr) cache_->CountPagesRead(pages_read);
  if (memo != nullptr) {
    // Keep the partially covered end pages read here: the neighbouring
    // megapages share them.
    auto keep = [&](uint64_t p) {
      if (memo_page(p) != nullptr) return;
      Buffer kept;
      kept.Append(base + (p - first) * page_size, page_size);
      memo->emplace_back(p, std::move(kept));
    };
    if (skip != 0) keep(first);
    if ((offset + size) % page_size != 0) keep(last);
  }
  if (skip != 0) ::memmove(base, base + skip, size);
  out->resize(size);
  return Status::OK();
}

Status ComponentReader::ReadLeaf(size_t leaf_index, Buffer* out) const {
  LSMCOL_CHECK(leaf_index < leaves_.size());
  return ReadLeafRange(leaf_index, 0, leaves_[leaf_index].payload_size, out);
}

size_t ComponentReader::LowerBoundLeaf(int64_t key) const {
  size_t lo = 0, hi = leaves_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (leaves_[mid].max_key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status ComponentReader::Destroy() {
  if (destroyed_) return Status::OK();
  cache_->Invalidate(*file_);
  std::string path = file_->path();
  file_.reset();
  destroyed_ = true;
  return RemoveFileIfExists(path, fs_);
}

}  // namespace lsmcol
