#include "src/storage/manifest.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "src/common/buffer.h"
#include "src/storage/file.h"

namespace lsmcol {
namespace {

constexpr uint32_t kManifestMagic = 0x4C534D4Du;  // "LSMM"
// v2: dropped the redundant compressed byte (components self-describe).
// v3: added wal_floor (lowest WAL segment not covered by a flush).
// v4: added the damage section (persisted quarantine records).
constexpr uint8_t kManifestVersion = 4;

bool AllDigits(std::string_view s) {
  return !s.empty() &&
         std::all_of(s.begin(), s.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

}  // namespace

std::string ManifestPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".MANIFEST";
}

Status WriteManifest(const std::string& path, const Manifest& manifest,
                     FileSystem* fs) {
  Buffer out;
  out.AppendVarint64(manifest.sequence);
  out.AppendLengthPrefixed(Slice(manifest.dataset_name));
  out.AppendByte(manifest.layout);
  out.AppendLengthPrefixed(Slice(manifest.pk_field));
  out.AppendVarint64(manifest.page_size);
  out.AppendVarint64(manifest.next_component_id);
  out.AppendVarint64(manifest.wal_floor);
  out.AppendVarint64(manifest.components.size());
  for (const ManifestComponentEntry& c : manifest.components) {
    out.AppendVarint64(c.id);
    out.AppendLengthPrefixed(Slice(c.file));
  }
  out.AppendLengthPrefixed(Slice(manifest.schema_blob));
  out.AppendVarint64(manifest.damaged.size());
  for (const ManifestDamageEntry& d : manifest.damaged) {
    out.AppendVarint64(d.component_id);
    out.AppendByte(d.status_code);
    out.AppendLengthPrefixed(Slice(d.reason));
  }
  return WriteFramedFile(path, kManifestMagic, kManifestVersion, out.slice(),
                         fs);
}

Result<Manifest> ReadManifest(const std::string& path, FileSystem* fs) {
  // Only the current version is readable; earlier ones (v2 without
  // wal_floor, v3 without the damage section) are rejected.
  LSMCOL_ASSIGN_OR_RETURN(
      const std::string body,
      ReadFramedFile(path, kManifestMagic, kManifestVersion, "manifest", fs));
  BufferReader r{Slice(body)};
  Manifest m;
  LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&m.sequence));
  Slice s;
  LSMCOL_RETURN_NOT_OK(r.ReadLengthPrefixed(&s));
  m.dataset_name.assign(s.data(), s.size());
  LSMCOL_RETURN_NOT_OK(r.ReadByte(&m.layout));
  LSMCOL_RETURN_NOT_OK(r.ReadLengthPrefixed(&s));
  m.pk_field.assign(s.data(), s.size());
  LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&m.page_size));
  LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&m.next_component_id));
  LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&m.wal_floor));
  uint64_t count = 0;
  LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    ManifestComponentEntry entry;
    LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&entry.id));
    LSMCOL_RETURN_NOT_OK(r.ReadLengthPrefixed(&s));
    entry.file.assign(s.data(), s.size());
    m.components.push_back(std::move(entry));
  }
  LSMCOL_RETURN_NOT_OK(r.ReadLengthPrefixed(&s));
  m.schema_blob.assign(s.data(), s.size());
  uint64_t damaged = 0;
  LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&damaged));
  for (uint64_t i = 0; i < damaged; ++i) {
    ManifestDamageEntry entry;
    LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&entry.component_id));
    LSMCOL_RETURN_NOT_OK(r.ReadByte(&entry.status_code));
    LSMCOL_RETURN_NOT_OK(r.ReadLengthPrefixed(&s));
    entry.reason.assign(s.data(), s.size());
    m.damaged.push_back(std::move(entry));
  }
  return m;
}

Status RemoveStaleDatasetFiles(const std::string& dir, const std::string& name,
                               const std::vector<std::string>& referenced,
                               uint64_t wal_floor, size_t* removed,
                               FileSystem* fs) {
  fs = ResolveFs(fs);
  if (removed != nullptr) *removed = 0;
  const std::string prefix = name + "_";
  const std::string manifest_tmp = name + ".MANIFEST.tmp";
  LSMCOL_ASSIGN_OR_RETURN(auto names, fs->ListDir(dir));
  std::vector<std::string> victims;
  for (const std::string& file : names) {
    bool stale = false;
    if (file == manifest_tmp) {
      stale = true;
    } else if (file.rfind(prefix, 0) == 0) {
      // `<name>_<digits>.cmp` belongs to this dataset; names that merely
      // share the prefix (dataset "a" vs "a_b") fail the digits check.
      std::string_view rest(file);
      rest.remove_prefix(prefix.size());
      const bool tmp_suffix =
          rest.size() > 8 && rest.substr(rest.size() - 8) == ".cmp.tmp";
      const bool cmp_suffix =
          rest.size() > 4 && rest.substr(rest.size() - 4) == ".cmp";
      const bool wal_suffix =
          rest.size() > 4 && rest.substr(rest.size() - 4) == ".wal";
      if (tmp_suffix && AllDigits(rest.substr(0, rest.size() - 8))) {
        stale = true;
      } else if (cmp_suffix && AllDigits(rest.substr(0, rest.size() - 4))) {
        stale = std::find(referenced.begin(), referenced.end(), file) ==
                referenced.end();
      } else if (wal_suffix && AllDigits(rest.substr(0, rest.size() - 4))) {
        // WAL segments below the manifest's floor are fully covered by
        // manifest-durable components (a crash hit between the manifest
        // rewrite and the segment unlink). Segments at or above the floor
        // may hold the only copy of acknowledged writes — never touched.
        const uint64_t seq = std::strtoull(
            std::string(rest.substr(0, rest.size() - 4)).c_str(), nullptr,
            10);
        stale = seq < wal_floor;
      }
    }
    if (stale) victims.push_back(dir + "/" + file);
  }
  for (const std::string& path : victims) {
    LSMCOL_RETURN_NOT_OK(RemoveFileIfExists(path, fs));
    if (removed != nullptr) ++*removed;
  }
  return Status::OK();
}

}  // namespace lsmcol
