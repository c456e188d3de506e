#include "src/store/backup.h"

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/lsm/component.h"
#include "src/lsm/dataset.h"
#include "src/storage/backup_manifest.h"
#include "src/storage/file.h"
#include "src/storage/manifest.h"
#include "src/store/store.h"

namespace lsmcol {
namespace {

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

const BackupFileEntry* FindPrior(const BackupManifest& prior,
                                 const std::string& dataset,
                                 BackupFileKind kind, uint64_t id) {
  for (const BackupFileEntry& f : prior.files) {
    if (f.kind == kind && f.dataset == dataset && f.id == id) return &f;
  }
  return nullptr;
}

/// Copy one immutable component file into the backup, reusing the prior
/// generation's copy when its checksum still matches.
Status BackupComponent(const DatasetBackupPin& pin,
                       const ManifestComponentEntry& comp,
                       const BackupManifest& prior,
                       const std::string& backup_dir, BackupManifest* next,
                       FileSystem* fs) {
  const std::string src = pin.dir + "/" + comp.file;
  const BackupFileEntry* reuse =
      FindPrior(prior, pin.name, BackupFileKind::kComponent, comp.id);
  if (reuse != nullptr) {
    uint64_t size = 0;
    uint32_t sum = 0;
    if (HashFile(backup_dir + "/" + reuse->rel_path, &size, &sum, fs).ok() &&
        size == reuse->size && sum == reuse->checksum) {
      next->files.push_back(*reuse);  // incremental: copy still intact
      return Status::OK();
    }
    // The prior copy is missing or damaged — fall through and re-copy.
    // Overwriting it in place is safe precisely because it no longer
    // matches the prior catalog: there is nothing left to preserve.
  }
  BackupFileEntry entry;
  entry.kind = BackupFileKind::kComponent;
  entry.dataset = pin.name;
  entry.rel_path = pin.name + "/" + comp.file;
  entry.id = comp.id;
  LSMCOL_RETURN_NOT_OK(HashFile(src, &entry.size, &entry.checksum, fs));
  LSMCOL_RETURN_NOT_OK(CopyFileVerified(src, backup_dir + "/" + entry.rel_path,
                                        entry.size, entry.checksum, fs));
  next->files.push_back(std::move(entry));
  return Status::OK();
}

Status BackupOneDataset(const DatasetBackupPin& pin,
                        const BackupManifest& prior,
                        const std::string& backup_dir, BackupManifest* next,
                        FileSystem* fs) {
  const std::string subdir = backup_dir + "/" + pin.name;
  LSMCOL_RETURN_NOT_OK(CreateDirDurable(subdir, fs));
  for (const ManifestComponentEntry& comp : pin.manifest.components) {
    LSMCOL_RETURN_NOT_OK(
        BackupComponent(pin, comp, prior, backup_dir, next, fs));
  }
  // The dataset manifest exactly as of the pin (NOT the live file, which
  // concurrent flushes keep rewriting past the pinned state). It changes
  // between backups, so each generation writes it under a fresh
  // `.<gen>.` name — the prior generation's copy stays untouched until
  // the new catalog is durable.
  const std::string mrel = pin.name + "/" + pin.name + "." +
                           std::to_string(next->sequence) + ".MANIFEST";
  LSMCOL_RETURN_NOT_OK(
      WriteManifest(backup_dir + "/" + mrel, pin.manifest, fs));
  BackupFileEntry entry;
  entry.kind = BackupFileKind::kDatasetManifest;
  entry.dataset = pin.name;
  entry.rel_path = mrel;
  LSMCOL_RETURN_NOT_OK(
      HashFile(backup_dir + "/" + mrel, &entry.size, &entry.checksum, fs));
  next->files.push_back(std::move(entry));
  return SyncDir(subdir, fs);
}

/// Remove files in the backup's dataset subdirectories that the (just
/// committed) catalog does not reference: superseded manifest
/// generations and components dropped by merges. Best effort — leftovers
/// cost space, never correctness.
void PruneUnreferenced(const std::string& backup_dir,
                       const BackupManifest& catalog, FileSystem* fs) {
  std::set<std::string> keep;
  std::set<std::string> subdirs;
  for (const BackupFileEntry& f : catalog.files) {
    keep.insert(f.rel_path);
    subdirs.insert(f.dataset);
  }
  for (const std::string& ds : subdirs) {
    auto listing = fs->ListDir(backup_dir + "/" + ds);
    if (!listing.ok()) continue;
    for (const std::string& name : *listing) {
      if (keep.count(ds + "/" + name) != 0) continue;
      (void)RemoveFileIfExists(backup_dir + "/" + ds + "/" + name, fs);
    }
  }
}

}  // namespace

Status Store::CreateBackup(const std::string& backup_dir) {
  std::vector<Dataset*> datasets;
  {
    MutexLock lock(&mu_);
    datasets.reserve(open_.size());
    for (const auto& [name, dataset] : open_) datasets.push_back(dataset.get());
  }
  // mu_ is released before backup_mu_ so the ranks never nest; writers,
  // flushes, merges, and even OpenDataset proceed during the copy phase.
  MutexLock backup_lock(&backup_mu_);
  FileSystem* fs = ResolveFs(options_.fs);

  // Flush first: every write acknowledged before this call then lives in
  // a component, and components are all a backup copies.
  for (Dataset* dataset : datasets) LSMCOL_RETURN_NOT_OK(dataset->Flush());
  // Pin every dataset next: quarantine anywhere refuses the whole backup
  // before a single byte is written.
  std::vector<DatasetBackupPin> pins(datasets.size());
  for (size_t i = 0; i < datasets.size(); ++i) {
    LSMCOL_RETURN_NOT_OK(datasets[i]->PinForBackup(&pins[i]));
  }

  LSMCOL_RETURN_NOT_OK(CreateDirDurable(backup_dir, fs));
  BackupManifest prior;
  {
    auto read = ReadBackupManifest(backup_dir, fs);
    if (read.ok()) prior = std::move(*read);
    // Unreadable/absent catalog == fresh full backup into this dir.
  }
  BackupManifest next;
  next.sequence = prior.sequence + 1;
  for (const DatasetBackupPin& pin : pins) {
    LSMCOL_RETURN_NOT_OK(BackupOneDataset(pin, prior, backup_dir, &next, fs));
  }
  // The commit point: until this rename lands, the directory's
  // authoritative content is still the prior catalog (whose files were
  // never touched); after it, the new one. Prune only after.
  LSMCOL_RETURN_NOT_OK(WriteBackupManifest(backup_dir, next, fs));
  PruneUnreferenced(backup_dir, next, fs);
  return Status::OK();
}

Status Store::RestoreFromBackup(const std::string& backup_dir,
                                const std::string& target_dir,
                                FileSystem* fs) {
  return RestoreStoreFromBackup(backup_dir, target_dir, fs);
}

Status RestoreStoreFromBackup(const std::string& backup_dir,
                              const std::string& target_dir,
                              FileSystem* fs) {
  fs = ResolveFs(fs);
  LSMCOL_ASSIGN_OR_RETURN(BackupManifest catalog,
                          ReadBackupManifest(backup_dir, fs));
  // Refuse anything that could merge a backup into live data: the target
  // root must hold no files and none of the catalog's dataset manifests.
  {
    auto listing = fs->ListDir(target_dir);
    if (listing.ok() && !listing->empty()) {
      return Status::AlreadyExists("restore target " + target_dir +
                                   " already contains files");
    }
  }
  for (const BackupFileEntry& f : catalog.files) {
    const std::string manifest_path =
        ManifestPath(target_dir + "/" + f.dataset, f.dataset);
    if (FileExists(manifest_path, fs)) {
      return Status::AlreadyExists("restore target already holds dataset " +
                                   f.dataset + " (" + manifest_path + ")");
    }
  }
  LSMCOL_RETURN_NOT_OK(CreateDirDurable(target_dir, fs));
  std::set<std::string> made_dirs;
  auto target_of = [&](const BackupFileEntry& f) {
    const std::string ddir = target_dir + "/" + f.dataset;
    return f.kind == BackupFileKind::kDatasetManifest
               ? ManifestPath(ddir, f.dataset)
               : ddir + "/" + Basename(f.rel_path);
  };
  // Two phases: data files first, dataset manifests last — a restore
  // that dies midway leaves directories Store::Open treats as junk (no
  // manifest), not a dataset that recovers to partial data.
  for (int phase = 0; phase < 2; ++phase) {
    for (const BackupFileEntry& f : catalog.files) {
      const bool is_manifest = f.kind == BackupFileKind::kDatasetManifest;
      if (is_manifest != (phase == 1)) continue;
      if (made_dirs.insert(f.dataset).second) {
        LSMCOL_RETURN_NOT_OK(
            CreateDirDurable(target_dir + "/" + f.dataset, fs));
      }
      LSMCOL_RETURN_NOT_OK(CopyFileVerified(backup_dir + "/" + f.rel_path,
                                            target_of(f), f.size, f.checksum,
                                            fs));
    }
  }
  for (const std::string& ds : made_dirs) {
    LSMCOL_RETURN_NOT_OK(SyncDir(target_dir + "/" + ds, fs));
  }
  return SyncDir(target_dir, fs);
}

Status SalvageComponentFile(
    const std::string& path, size_t page_size,
    const std::function<Status(int64_t key, const Value& record)>& emit,
    SalvageResult* result, FileSystem* fs) {
  *result = SalvageResult();
  BufferCache cache(page_size * 64, page_size);
  LSMCOL_ASSIGN_OR_RETURN(
      auto component, Component::OpenForSalvage(path, &cache, page_size, fs));
  const std::vector<LeafEntry>& leaves = component->reader().leaves();
  result->leaves_total = leaves.size();

  // Probe pass: which leaves still verify end to end?
  std::vector<bool> readable(leaves.size(), false);
  {
    Buffer payload;
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (component->ReadLeaf(i, &payload).ok()) {
        readable[i] = true;
        ++result->leaves_readable;
      } else {
        ++result->leaves_damaged;
      }
    }
  }

  const bool row_layout = component->meta().layout == LayoutKind::kOpen ||
                          component->meta().layout == LayoutKind::kVb;
  auto make_cursor = [&]() -> std::unique_ptr<TupleCursor> {
    if (row_layout) {
      return std::make_unique<RowComponentCursor>(component.get());
    }
    return std::make_unique<ColumnarComponentCursor>(component.get(),
                                                     Projection::All());
  };

  // Emit pass: leaf key ranges are disjoint and sorted, so a fresh
  // cursor seeked into each readable leaf's window extracts its records
  // without ever touching a damaged leaf.
  for (size_t i = 0; i < leaves.size(); ++i) {
    if (!readable[i]) continue;
    auto cursor = make_cursor();
    if (!cursor->SeekForward(leaves[i].min_key).ok()) continue;
    while (true) {
      auto advanced = cursor->Next();
      if (!advanced.ok() || !*advanced) break;
      if (cursor->key() > leaves[i].max_key) break;
      if (cursor->anti_matter()) continue;
      Value record;
      if (!cursor->Record(&record).ok()) break;
      ++result->records;
      LSMCOL_RETURN_NOT_OK(emit(cursor->key(), record));
    }
  }
  return Status::OK();
}

}  // namespace lsmcol
