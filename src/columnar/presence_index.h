// Presence index: for each record of a columnar leaf, the ids of the
// columns that can change the record's assembled value. A full-record
// point lookup reads only those and hands the assembler a nullptr cell
// (all-missing) for every other column, so it costs the record's width,
// not the schema's.
//
// The listing rule follows from AssemblyPlan::Assemble. A record's cell in
// a column is a *missing cell* when the record has exactly one entry in
// the column and its def level d is below both the column's max_def and
// its outermost array's def level: it parses to ShredCell::Missing(d).
// Such a cell yields no value and no array, so it differs from a nullptr
// cell in one way only: it makes the object ancestors with def_level <= d
// present (all of them lie above the column's arrays). Every column whose
// cell is not a missing cell is listed. A listed cell of that kind makes
// every object above its arrays present itself, so a missing cell is also
// listed when it is the only witness of a present object — `"user":{}`
// when `user` has known children — and then the listed columns give every
// object the presence the full read gives it. Objects inside arrays get
// their presence per element, from listed cells only.
//
// The listing is exact for the whole record only. A projection's plan
// decides an object's presence from the projected columns alone, where an
// unlisted missing cell may be the only witness, so projected reads do not
// use the index.
//
// Built from def levels only (ColumnChunkReader::DecodeRecords): no value
// is decoded. The index is derived in memory, never stored.

#ifndef LSMCOL_COLUMNAR_PRESENCE_INDEX_H_
#define LSMCOL_COLUMNAR_PRESENCE_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/columnar/column_reader.h"
#include "src/common/buffer.h"
#include "src/common/status.h"
#include "src/schema/schema.h"

namespace lsmcol {

/// Builds one leaf's presence index from its columns' chunks.
class PresenceIndexBuilder {
 public:
  /// `schema` (the leaf's component schema) must outlive the builder.
  PresenceIndexBuilder(const Schema& schema, size_t records);

  /// Column `info.id`'s chunk in the leaf. Columns are added in ascending
  /// id order, the PK (column 0) never; a column not added is listed for
  /// no record. Corruption when the chunk does not split into exactly the
  /// leaf's record count.
  Status AddColumn(Slice chunk, const ColumnInfo& info);

  /// Write the index (see PresenceIndex) to *out, cleared first.
  void Finish(Buffer* out);

 private:
  static constexpr uint32_t kWitnessedByListed = UINT32_MAX;

  /// Record the objects above every array under `node`, and each column's
  /// own; `path` holds the objects above `node`.
  void Walk(const SchemaNode& node, bool root, std::vector<uint32_t>* path);

  size_t records_;
  /// Objects (the root excluded) above every array, by preorder index,
  /// and their def levels.
  std::vector<int> object_defs_;
  /// By column id: the column's objects above its arrays, outermost first,
  /// as [first, end) of ancestors_.
  std::vector<std::pair<uint32_t, uint32_t>> ancestry_;
  std::vector<uint32_t> ancestors_;
  /// By (object, record): 0 while no cell has made the object present,
  /// kWitnessedByListed once a listed cell has, else the first missing
  /// cell's column that has.
  std::vector<uint32_t> witness_;
  /// Records whose cell each added column lists: column_ends_[i] is
  /// (column id, end in listed_records_).
  std::vector<uint32_t> listed_records_;
  std::vector<std::pair<int, size_t>> column_ends_;
  // Reused by every AddColumn.
  ColumnChunkReader reader_;
  ColumnEntryBatch batch_;
  std::vector<uint32_t> starts_;
};

/// A built presence index, read in place. Layout: (records + 1) fixed32
/// offsets into the listing bytes that follow, then each record's column
/// ids, ascending, as varint gaps from the previous id (from 0).
class PresenceIndex {
 public:
  PresenceIndex(Slice bytes, size_t records)
      : bytes_(bytes), records_(records) {}

  /// The columns listed for `record`, ascending, into *out (cleared
  /// first).
  void Columns(size_t record, std::vector<int>* out) const;

 private:
  Slice bytes_;
  size_t records_;
};

}  // namespace lsmcol

#endif  // LSMCOL_COLUMNAR_PRESENCE_INDEX_H_
