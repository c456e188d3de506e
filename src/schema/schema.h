// Schema tree with union types and definition-level assignment — the
// "tuple compactor" schema of the paper (§2.2, §3.2.2).
//
// Nodes are Object / Array / Union / Atomic. Every node is optional (the
// schemaless document model): a node's definition level counts its optional
// ancestors including itself, root = 0. Union nodes are *logical guides*
// and add no definition level — their alternatives sit at the level the
// original value had, so promoting a field to a union never requires
// rewriting previously written columns (immutable LSM components).
//
// Every atomic leaf owns a column (stable, monotonically assigned ids, so
// the columns of an older flush are always a prefix of a newer flush's
// columns). Column 0 is always the primary key: an int64 whose max
// definition level is 1, where def 0 marks an anti-matter entry (§3.2.3).

#ifndef LSMCOL_SCHEMA_SCHEMA_H_
#define LSMCOL_SCHEMA_SCHEMA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/status.h"
#include "src/json/value.h"

namespace lsmcol {

/// Atomic (leaf) column types. JSON null, like MISSING, is recorded only in
/// definition levels (docs/FORMAT.md, "Column chunks"), so there is no
/// null column type.
enum class AtomicType : uint8_t {
  kBoolean = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

const char* AtomicTypeName(AtomicType t);

/// Descriptor of one shredded column.
struct ColumnInfo {
  int id = -1;
  AtomicType type = AtomicType::kInt64;
  int max_def = 0;              ///< def level of a present value
  std::vector<int> array_defs;  ///< def levels of array ancestors, outer→inner
  std::string path;             ///< dotted debug path, e.g. games[*].title
  bool is_pk = false;

  /// Number of array ancestors (the column's "max-delimiter" is
  /// array_count() - 1, §3.2.1).
  int array_count() const { return static_cast<int>(array_defs.size()); }
};

/// A node in the inferred schema tree.
class SchemaNode {
 public:
  enum class Kind : uint8_t {
    kObject = 0,
    kArray = 1,
    kUnion = 2,
    kAtomic = 3,
  };

  SchemaNode(Kind kind, int def_level) : kind_(kind), def_level_(def_level) {}

  SchemaNode(const SchemaNode&) = delete;
  SchemaNode& operator=(const SchemaNode&) = delete;

  Kind kind() const { return kind_; }
  int def_level() const { return def_level_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_union() const { return kind_ == Kind::kUnion; }
  bool is_atomic() const { return kind_ == Kind::kAtomic; }

  // Atomic leaves.
  AtomicType atomic_type() const { return atomic_type_; }
  int column_id() const { return column_id_; }

  // Object children (insertion-ordered).
  const std::vector<std::pair<std::string, std::unique_ptr<SchemaNode>>>&
  fields() const {
    return fields_;
  }
  /// Field lookup; nullptr when absent.
  const SchemaNode* FindField(std::string_view name) const;

  // Array item.
  const SchemaNode* item() const { return item_.get(); }

  // Union alternatives.
  const std::vector<std::unique_ptr<SchemaNode>>& alternatives() const {
    return alternatives_;
  }
  /// The alternative whose shape matches the given value type; nullptr if
  /// no alternative matches.
  const SchemaNode* FindAlternative(const Value& v) const;

 private:
  friend class Schema;

  Kind kind_;
  int def_level_;
  AtomicType atomic_type_ = AtomicType::kInt64;
  int column_id_ = -1;
  std::vector<std::pair<std::string, std::unique_ptr<SchemaNode>>> fields_;
  std::unique_ptr<SchemaNode> item_;
  std::vector<std::unique_ptr<SchemaNode>> alternatives_;
};

/// \brief The inferred, monotonically growing schema of a dataset.
///
/// MergeRecord extends the tree to cover a record (the flush-time schema
/// inference of §2.2); the tree and the column registry only ever grow, and
/// column ids are assigned in discovery order so older components' columns
/// are a prefix of newer ones.
class Schema {
 public:
  /// Creates a schema whose primary key is the given top-level int64 field
  /// (column 0).
  explicit Schema(std::string pk_field);

  Schema(const Schema&) = delete;
  Schema& operator=(const Schema&) = delete;
  Schema(Schema&&) = default;
  Schema& operator=(Schema&&) = default;

  const std::string& pk_field() const { return pk_field_; }
  const SchemaNode& root() const { return *root_; }
  const std::vector<ColumnInfo>& columns() const { return columns_; }
  int column_count() const { return static_cast<int>(columns_.size()); }
  const ColumnInfo& column(int id) const { return columns_[id]; }

  /// Extend the schema to cover `record`. The record must be an object
  /// carrying an int64 primary-key field. Returns InvalidArgument
  /// otherwise; the schema is unchanged on error.
  Status MergeRecord(const Value& record);

  /// Number of MergeRecord calls that succeeded (used by writers to
  /// backfill NULLs into newly discovered columns).
  uint64_t merged_record_count() const { return merged_record_count_; }

  /// Serialize the full tree (persisted in component metadata pages).
  void SerializeTo(Buffer* out) const;
  static Result<Schema> Deserialize(Slice input);

  /// Resolve a dotted field path (e.g. "name.first"); descends through
  /// unions (object alternatives) and arrays implicitly is NOT done here —
  /// steps are field names only and the result may be any node kind.
  /// Returns nullptr when the path does not exist in the schema.
  const SchemaNode* ResolvePath(const std::vector<std::string>& steps) const;

  /// All column ids in the subtree rooted at `node` (in id order).
  static std::vector<int> ColumnsUnder(const SchemaNode* node);

  /// Human-readable multi-line dump (tests, examples, debugging).
  std::string ToString() const;

 private:
  /// Extend (or create) the node held by *slot to cover v. v is non-null,
  /// non-missing. def_level is the level the node (or its union
  /// alternatives) sits at.
  void MergeSlot(std::unique_ptr<SchemaNode>* slot, const Value& v,
                 int def_level, const std::string& path,
                 std::vector<int>* array_defs);
  /// Recurse into an already-matching node's children.
  void MergeChildren(SchemaNode* node, const Value& v, const std::string& path,
                     std::vector<int>* array_defs);
  std::unique_ptr<SchemaNode> CreateNodeFor(const Value& v, int def_level,
                                            const std::string& path,
                                            std::vector<int>* array_defs);
  int RegisterColumn(AtomicType type, int max_def,
                     const std::vector<int>& array_defs,
                     const std::string& path);
  static bool Matches(const SchemaNode& node, const Value& v);

  void SerializeNode(const SchemaNode& node, Buffer* out) const;
  static Status DeserializeNode(BufferReader* reader,
                                std::unique_ptr<SchemaNode>* out);
  void RebuildColumnRegistry(const SchemaNode& node, const std::string& path,
                             std::vector<int>* array_defs, bool is_pk);

  std::string pk_field_;
  std::unique_ptr<SchemaNode> root_;
  std::vector<ColumnInfo> columns_;
  uint64_t merged_record_count_ = 0;
};

}  // namespace lsmcol

#endif  // LSMCOL_SCHEMA_SCHEMA_H_
