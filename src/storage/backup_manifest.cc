#include "src/storage/backup_manifest.h"

#include "src/common/buffer.h"
#include "src/storage/file.h"

namespace lsmcol {
namespace {

constexpr uint32_t kBackupMagic = 0x4C53424Bu;  // "LSBK"
constexpr uint8_t kBackupVersion = 1;
constexpr size_t kCopyChunk = 256 * 1024;

}  // namespace

std::string BackupManifestPath(const std::string& backup_dir) {
  return backup_dir + "/BACKUP.MANIFEST";
}

Status WriteBackupManifest(const std::string& backup_dir,
                           const BackupManifest& manifest, FileSystem* fs) {
  Buffer out;
  out.AppendVarint64(manifest.sequence);
  out.AppendVarint64(manifest.files.size());
  for (const BackupFileEntry& f : manifest.files) {
    out.AppendByte(static_cast<uint8_t>(f.kind));
    out.AppendLengthPrefixed(Slice(f.dataset));
    out.AppendLengthPrefixed(Slice(f.rel_path));
    out.AppendVarint64(f.size);
    out.AppendFixed32(f.checksum);
    out.AppendVarint64(f.id);
  }
  return WriteFramedFile(BackupManifestPath(backup_dir), kBackupMagic,
                         kBackupVersion, out.slice(), fs);
}

Result<BackupManifest> ReadBackupManifest(const std::string& backup_dir,
                                          FileSystem* fs) {
  const std::string path = BackupManifestPath(backup_dir);
  LSMCOL_ASSIGN_OR_RETURN(
      const std::string body,
      ReadFramedFile(path, kBackupMagic, kBackupVersion, "backup manifest",
                     fs));
  BufferReader r{Slice(body)};
  BackupManifest m;
  LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&m.sequence));
  uint64_t count = 0;
  LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    BackupFileEntry entry;
    uint8_t kind = 0;
    LSMCOL_RETURN_NOT_OK(r.ReadByte(&kind));
    if (kind == 2) {
      return Status::NotSupported(
          path + " lists a WAL segment copy (catalog kind 2), which this "
                 "version does not restore; take a new backup");
    }
    if (kind != 1 && kind != 3) {
      return Status::Corruption("bad backup file kind in " + path);
    }
    entry.kind = static_cast<BackupFileKind>(kind);
    Slice s;
    LSMCOL_RETURN_NOT_OK(r.ReadLengthPrefixed(&s));
    entry.dataset.assign(s.data(), s.size());
    LSMCOL_RETURN_NOT_OK(r.ReadLengthPrefixed(&s));
    entry.rel_path.assign(s.data(), s.size());
    LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&entry.size));
    LSMCOL_RETURN_NOT_OK(r.ReadFixed32(&entry.checksum));
    LSMCOL_RETURN_NOT_OK(r.ReadVarint64(&entry.id));
    m.files.push_back(std::move(entry));
  }
  return m;
}

Status HashFile(const std::string& path, uint64_t* size, uint32_t* checksum,
                FileSystem* fs) {
  fs = ResolveFs(fs);
  LSMCOL_ASSIGN_OR_RETURN(auto file, fs->Open(path, /*writable=*/false));
  uint64_t offset = 0;
  uint32_t fnv = Fnv1a32(Slice());  // the FNV offset basis
  Buffer chunk;
  while (true) {
    LSMCOL_RETURN_NOT_OK(file->ReadAt(offset, kCopyChunk, &chunk));
    if (chunk.size() == 0) break;
    fnv = Fnv1a32(chunk.slice(), fnv);
    offset += chunk.size();
  }
  *size = offset;
  *checksum = fnv;
  return Status::OK();
}

Status CopyFileVerified(const std::string& src, const std::string& dst,
                        uint64_t want_size, uint32_t want_checksum,
                        FileSystem* fs) {
  fs = ResolveFs(fs);
  Status st;
  uint64_t copied = 0;
  uint32_t fnv = Fnv1a32(Slice());
  {
    LSMCOL_ASSIGN_OR_RETURN(auto in, fs->Open(src, /*writable=*/false));
    auto out = fs->Create(dst);
    if (!out.ok()) return out.status();
    Buffer chunk;
    while (st.ok()) {
      st = in->ReadAt(copied, kCopyChunk, &chunk);
      if (!st.ok() || chunk.size() == 0) break;
      fnv = Fnv1a32(chunk.slice(), fnv);
      st = (*out)->WriteAt(copied, chunk.slice());
      copied += chunk.size();
    }
    if (st.ok()) st = (*out)->Sync();
  }
  if (st.ok() && (copied != want_size || fnv != want_checksum)) {
    st = Status::ChecksumMismatch(
        "copy of " + src + " does not match its catalog entry (size " +
        std::to_string(copied) + " vs " + std::to_string(want_size) + ")");
  }
  if (!st.ok()) {
    (void)RemoveFileIfExists(dst, fs);
    return st;
  }
  return Status::OK();
}

}  // namespace lsmcol
