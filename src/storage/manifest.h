// Durable per-dataset MANIFEST: the recovery metadata of one LSM dataset.
//
// The manifest is the single source of truth for what a dataset looks like
// on disk: the ordered (newest-first) list of live component files, the
// next component id, the dataset's identity (name, layout, primary key,
// page size), and — for columnar layouts — the serialized schema at the
// time of the last flush/merge. It is rewritten after every flush and
// merge via write-to-temp + fsync + rename(2) + directory fsync, so a
// crash at any point leaves either the old or the new manifest, never a
// torn one. A trailing checksum rejects partial/corrupt files on read.
//
// Component files referenced by the manifest are installed with the same
// rename protocol *before* the manifest records them; files in the dataset
// directory that the manifest does not reference (plus any `*.tmp`
// leftovers) are garbage from an interrupted flush/merge and are removed
// by RemoveStaleDatasetFiles during Store/Dataset open.
//
// The storage layer is layout-agnostic, so the layout is carried as a raw
// byte here; src/lsm interprets it as a LayoutKind.

#ifndef LSMCOL_STORAGE_MANIFEST_H_
#define LSMCOL_STORAGE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/storage/filesystem.h"

namespace lsmcol {

/// One live component as recorded by the manifest. `file` is the file
/// name relative to the dataset directory (manifests stay valid when the
/// directory is moved wholesale).
struct ManifestComponentEntry {
  uint64_t id = 0;
  std::string file;
};

/// A persisted first-damage record: component `component_id` was observed
/// to be damaged (quarantined) and must come back quarantined after a
/// restart — a reboot must not silently "heal" a known-bad file. The
/// status code byte is a StatusCode (common/status.h); storage stays
/// layout- and status-agnostic and round-trips it as raw data.
struct ManifestDamageEntry {
  uint64_t component_id = 0;
  uint8_t status_code = 0;
  std::string reason;
};

/// Parsed (or to-be-written) manifest contents. Compression is *not*
/// recorded here: it is a runtime knob for future components, and every
/// component self-describes its own compression in its metadata page.
struct Manifest {
  /// Bumped on every rewrite; a reopened dataset continues the count.
  uint64_t sequence = 0;
  std::string dataset_name;
  uint8_t layout = 0;  ///< LayoutKind byte (storage is layout-agnostic)
  std::string pk_field;
  uint64_t page_size = 0;
  uint64_t next_component_id = 1;
  /// Lowest WAL segment sequence that may still hold writes not covered
  /// by the components below — recovery replays segments >= this and may
  /// delete the rest (see storage/wal.h). 1 when no flush has ever
  /// covered a segment.
  uint64_t wal_floor = 1;
  std::vector<ManifestComponentEntry> components;  ///< newest first
  std::string schema_blob;  ///< serialized Schema; empty for row layouts
  /// The quarantined components among `components`, by ascending id.
  /// Written as given: the writer (Dataset) lists only components it
  /// holds, so damage never outlives the file it described.
  std::vector<ManifestDamageEntry> damaged;
};

/// Canonical manifest path for a dataset: `<dir>/<name>.MANIFEST`.
std::string ManifestPath(const std::string& dir, const std::string& name);

/// Serialize + write `manifest` to `path` atomically (temp file, fsync,
/// rename, directory fsync).
Status WriteManifest(const std::string& path, const Manifest& manifest,
                     FileSystem* fs = nullptr);

/// Read and verify (magic, version, checksum) a manifest.
Result<Manifest> ReadManifest(const std::string& path,
                              FileSystem* fs = nullptr);

/// Remove crash leftovers for one dataset in `dir`: any
/// `<name>_<digits>.cmp.tmp` / `<name>.MANIFEST.tmp`, any
/// `<name>_<digits>.cmp` not listed in `referenced` (file names relative
/// to `dir`), and any WAL segment `<name>_<digits>.wal` with sequence
/// below `wal_floor` (covered by manifest-durable components; pass the
/// manifest's wal_floor, or 0 to leave all WAL segments alone). Files of
/// other datasets sharing the directory are never touched (the
/// `<digits>` suffix checks keep prefix-sharing names like "a" vs "a_b"
/// apart). Returns the number of files removed via `*removed` (may be
/// null).
Status RemoveStaleDatasetFiles(const std::string& dir, const std::string& name,
                               const std::vector<std::string>& referenced,
                               uint64_t wal_floor, size_t* removed,
                               FileSystem* fs = nullptr);

}  // namespace lsmcol

#endif  // LSMCOL_STORAGE_MANIFEST_H_
