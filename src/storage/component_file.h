// ComponentWriter / ComponentReader: the on-disk format shared by every
// LSM component regardless of record layout.
//
// File layout (fixed-size pages):
//   [leaf payload pages ...][index pages][metadata pages][footer page]
//
// A "leaf" is one logical B+-tree leaf: a byte payload spanning one or
// more physical pages (APAX pages are single-page leaves unless a record
// batch overflows; AMAX mega leaf nodes span many pages, §4.3; row layouts
// use single-page slotted leaves). The index is the B+-tree's interior
// level: an array of (min_key, max_key, first_page, page_count,
// payload_size, record_count) entries ordered by key, binary-searched on
// lookup. The metadata blob carries layout-specific data (schema snapshot,
// component id, validity bit) — the paper's "metadata page" (§2.1.1).

#ifndef LSMCOL_STORAGE_COMPONENT_FILE_H_
#define LSMCOL_STORAGE_COMPONENT_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/status.h"
#include "src/storage/buffer_cache.h"
#include "src/storage/file.h"

namespace lsmcol {

/// Directory entry for one leaf (interior B+-tree node entry).
struct LeafEntry {
  int64_t min_key = 0;
  int64_t max_key = 0;
  uint64_t first_page = 0;
  uint32_t page_count = 0;
  uint64_t payload_size = 0;  ///< exact payload bytes (<= page_count * page_size)
  uint32_t record_count = 0;
};

/// Verified pages a reader keeps while it loads the units of one leaf,
/// so a page shared by two AMAX megapages is read once rather than once
/// per megapage. Holds only such partially covered pages, by page number.
using LeafPageMemo = std::vector<std::pair<uint64_t, Buffer>>;

/// Sequential component writer (components are write-once). Pages go
/// straight to the file; `cache` only counts them (pages_written).
class ComponentWriter {
 public:
  static Result<std::unique_ptr<ComponentWriter>> Create(
      const std::string& path, BufferCache* cache, size_t page_size,
      FileSystem* fs = nullptr);

  /// Append one leaf; payload is split across ceil(size/page_size) pages.
  Status AppendLeaf(Slice payload, int64_t min_key, int64_t max_key,
                    uint32_t record_count);

  /// Write index + metadata + footer and sync. No further appends.
  Status Finish(Slice metadata);

  uint64_t pages_written() const { return next_page_; }
  const std::string& path() const { return path_; }

 private:
  ComponentWriter(std::string path, std::unique_ptr<PageFile> file,
                  BufferCache* cache)
      : path_(std::move(path)), file_(std::move(file)), cache_(cache) {}

  Status WriteBlob(Slice blob, uint64_t* first_page, uint32_t* page_count);

  std::string path_;
  std::unique_ptr<PageFile> file_;
  BufferCache* cache_;
  std::vector<LeafEntry> leaves_;
  uint64_t next_page_ = 0;
  bool finished_ = false;
};

/// Read access to a finished component. Reads come in two kinds:
/// ReadLeaf and ReadLeafRange read pages from the file, verified and
/// uncached (merges, the scrubber, and every unit loader); FetchDecoded
/// serves a decoded unit from the buffer cache, running such a read on a
/// miss.
class ComponentReader {
 public:
  /// Opens a component file: its footer page must verify and carry the
  /// current footer magic; anything else (including files of earlier
  /// format versions) is Corruption.
  static Result<std::unique_ptr<ComponentReader>> Open(const std::string& path,
                                                       BufferCache* cache,
                                                       size_t page_size,
                                                       FileSystem* fs = nullptr);

  ~ComponentReader();

  const std::vector<LeafEntry>& leaves() const { return leaves_; }
  Slice metadata() const { return metadata_.slice(); }
  size_t page_size() const { return file_->page_size(); }
  uint64_t size_bytes() const { return file_->size_bytes(); }
  const std::string& path() const { return file_->path(); }

  /// Read payload bytes [offset, offset + size) of a leaf — touching only
  /// the physical pages that overlap the range (how AMAX reads a single
  /// column's megapage, §4.4). The pages are read from the filesystem
  /// with one read (PageFile::ReadPages) straight into `out`, their
  /// trailers verified in place, and counted in the cache's pages_read;
  /// nothing is cached. With `memo`, pages it holds are copied rather
  /// than read again (splitting the read around them), and the partially
  /// covered first and last pages read here are added to it. `out` keeps
  /// room for the trailers of the pages read: a caller that caches it as
  /// is may ShrinkToFit.
  Status ReadLeafRange(size_t leaf_index, uint64_t offset, uint64_t size,
                       Buffer* out, LeafPageMemo* memo = nullptr) const;

  /// The whole leaf payload, read as ReadLeafRange does. A cache hit can
  /// never mask media decay under it, and a one-shot reader (a merge, the
  /// scrubber) never evicts the hot set.
  Status ReadLeaf(size_t leaf_index, Buffer* out) const;

  /// Fetch (and pin) decoded unit `column` of a leaf through the buffer
  /// cache (see BufferCache::FetchDecoded); `load` runs on a miss.
  Result<CacheHandle> FetchDecoded(size_t leaf_index, int column,
                                   const BufferCache::UnitLoader& load,
                                   bool install) const {
    return cache_->FetchDecoded(*file_, leaf_index, column, load, install);
  }

  /// The cache FetchDecoded goes through (for a unit's attachments).
  BufferCache* cache() const { return cache_; }

  /// Index of the first leaf whose max_key >= key (binary search over the
  /// interior node); leaves().size() when none.
  size_t LowerBoundLeaf(int64_t key) const;

  /// Remove the component's cached units and delete the file.
  Status Destroy();

 private:
  ComponentReader(std::unique_ptr<PageFile> file, BufferCache* cache,
                  FileSystem* fs)
      : file_(std::move(file)), cache_(cache), fs_(fs) {}

  std::unique_ptr<PageFile> file_;
  BufferCache* cache_;
  FileSystem* fs_;
  std::vector<LeafEntry> leaves_;
  Buffer metadata_;
  bool destroyed_ = false;
};

}  // namespace lsmcol

#endif  // LSMCOL_STORAGE_COMPONENT_FILE_H_
