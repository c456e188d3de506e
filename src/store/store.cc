#include "src/store/store.h"

#include <algorithm>
#include <filesystem>

#include "src/storage/file.h"
#include "src/storage/manifest.h"

namespace lsmcol {
namespace {

Status Bad(const char* field, const std::string& why) {
  return Status::InvalidArgument("StoreOptions." + std::string(field) + " " +
                                 why);
}

}  // namespace

Status ValidateStoreOptions(const StoreOptions& options) {
  if (options.dir.empty()) return Bad("dir", "must be non-empty");
  if (options.page_size < kMinPageSize) {
    return Bad("page_size", "must be at least " +
                                std::to_string(kMinPageSize) + " bytes, got " +
                                std::to_string(options.page_size));
  }
  if (options.cache_bytes < options.page_size * 8) {
    return Bad("cache_bytes", "must hold at least 8 pages (" +
                                  std::to_string(options.page_size * 8) +
                                  " bytes), got " +
                                  std::to_string(options.cache_bytes));
  }
  if (options.background_threads < 0 || options.background_threads > 256) {
    return Bad("background_threads",
               "must be in [0, 256], got " +
                   std::to_string(options.background_threads));
  }
  if (options.scrub.enabled) {
    if (options.background_threads < 1) {
      return Bad("scrub.enabled",
                 "requires background_threads >= 1 (scrub slices run on the "
                 "shared scheduler's low-priority lane)");
    }
    if (options.scrub.max_slice_bytes == 0) {
      return Bad("scrub.max_slice_bytes", "must be positive");
    }
  }
  return Status::OK();
}

Store::Store(const StoreOptions& options)
    : options_(options),
      cache_(options.cache_bytes, options.page_size),
      scheduler_(std::make_unique<FlushMergeScheduler>(
          options.background_threads)) {
  if (options.scrub.enabled) {
    scrubber_ = std::make_unique<Scrubber>(scheduler_.get(), options.scrub);
    scrubber_->Start();
  }
}

Store::~Store() {
  Status st = Close();
  (void)st;  // destructors cannot report; Close() first to observe errors
}

Status Store::Close() {
  // Dependency order: datasets first (their queued tasks must run and
  // their immutable memtables drain), then the shared worker pool. mu_
  // stays held throughout (rank kStore precedes every per-dataset lock),
  // so a racing OpenDataset cannot slip a dataset past the drain.
  MutexLock lock(&mu_);
  // The scrubber first: once Stop() returns, no scrub slice is touching
  // (or will touch) a dataset, so the drain below sees quiescent readers.
  if (scrubber_ != nullptr) scrubber_->Stop();
  Status first;
  for (auto& [name, dataset] : open_) {
    Status st = dataset->WaitForBackgroundWork();
    if (first.ok() && !st.ok()) first = st;
  }
  scheduler_->Stop();
  return first;
}

std::string Store::DatasetDir(const std::string& name) const {
  return options_.dir + "/" + name;
}

Result<std::unique_ptr<Store>> Store::Open(const StoreOptions& options) {
  LSMCOL_RETURN_NOT_OK(ValidateStoreOptions(options));
  LSMCOL_RETURN_NOT_OK(CreateDirDurable(options.dir, options.fs));
  std::unique_ptr<Store> store(new Store(options));
  // Discover datasets left by earlier runs (a subdirectory <name> holding
  // <name>.MANIFEST) and sweep their crash leftovers now — including
  // datasets this run never opens. (Dataset::Open sweeps again for the
  // standalone path; the sweep is idempotent and cheap.) The store is
  // not published yet; the lock just satisfies discovered_'s guard.
  MutexLock lock(&store->mu_);
  std::error_code ec;
  std::filesystem::directory_iterator it(options.dir, ec);
  if (ec) {
    return Status::IOError("cannot list " + options.dir + ": " +
                           ec.message());
  }
  for (const auto& entry : it) {
    if (!entry.is_directory(ec)) continue;
    const std::string name = entry.path().filename().string();
    const std::string manifest_path =
        ManifestPath(entry.path().string(), name);
    if (!FileExists(manifest_path, options.fs)) continue;
    store->discovered_.push_back(name);
    auto manifest = ReadManifest(manifest_path, options.fs);
    if (!manifest.ok()) {
      // Confine the blast radius: a corrupt manifest must not take the
      // whole store down. The dataset stays listed (no sweep — we cannot
      // tell garbage from data), and OpenDataset(name) surfaces the
      // corruption to whoever actually wants it.
      continue;
    }
    std::vector<std::string> referenced;
    for (const ManifestComponentEntry& component : manifest->components) {
      referenced.push_back(component.file);
    }
    LSMCOL_RETURN_NOT_OK(RemoveStaleDatasetFiles(entry.path().string(), name,
                                                 referenced,
                                                 manifest->wal_floor,
                                                 nullptr, options.fs));
  }
  std::sort(store->discovered_.begin(), store->discovered_.end());
  return store;
}

Result<Dataset*> Store::OpenDataset(const std::string& name,
                                    DatasetOptions options) {
  // Held across Dataset::Open on purpose: a concurrent OpenDataset of
  // the same name must get the same pointer, not a second recovery of
  // the same directory. Opening other datasets serializes behind it —
  // opens are rare and the alternative (per-name in-flight markers) is
  // not worth it yet.
  MutexLock lock(&mu_);
  auto it = open_.find(name);
  if (it != open_.end()) {
    // Same outcome as reopening after a restart: contradicting the
    // dataset's durable identity is an error, not a silent no-op.
    Dataset* existing = it->second.get();
    if (options.layout != existing->layout()) {
      return Status::InvalidArgument(
          "DatasetOptions.layout (" +
          std::string(LayoutKindName(options.layout)) +
          ") does not match open dataset " + name + " (" +
          std::string(LayoutKindName(existing->layout())) + ")");
    }
    if (options.pk_field != existing->options().pk_field) {
      return Status::InvalidArgument(
          "DatasetOptions.pk_field ('" + options.pk_field +
          "') does not match open dataset " + name + " ('" +
          existing->options().pk_field + "')");
    }
    return existing;
  }
  options.dir = DatasetDir(name);
  options.name = name;
  options.page_size = options_.page_size;
  options.scheduler = scheduler_.get();
  options.wal = options_.wal;
  options.fs = options_.fs;
  options.io_retry = options_.io_retry;
  LSMCOL_ASSIGN_OR_RETURN(auto dataset, Dataset::Open(options, &cache_));
  Dataset* raw = dataset.get();
  open_.emplace(name, std::move(dataset));
  if (scrubber_ != nullptr) scrubber_->Register(raw);
  if (std::find(discovered_.begin(), discovered_.end(), name) ==
      discovered_.end()) {
    discovered_.insert(std::upper_bound(discovered_.begin(),
                                        discovered_.end(), name),
                       name);
  }
  return raw;
}

Dataset* Store::GetDataset(const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = open_.find(name);
  return it == open_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Store::ListDatasets() const {
  MutexLock lock(&mu_);
  return discovered_;
}

std::vector<DatasetHealth> Store::Health() const {
  MutexLock lock(&mu_);
  std::vector<DatasetHealth> health;
  health.reserve(open_.size());
  for (const auto& [name, dataset] : open_) {  // map order == sorted
    DatasetHealth h;
    h.name = name;
    h.background_error = dataset->background_error();
    h.has_background_error = !h.background_error.ok();
    h.last_background_error = dataset->last_background_error();
    h.wal_status = dataset->wal_status();
    h.wal_wedged = !h.wal_status.ok();
    for (const auto& [id, reason] : dataset->QuarantineList()) {
      h.quarantined.emplace_back(id, reason.message());
    }
    h.quarantined_components = h.quarantined.size();
    h.stats = dataset->stats();
    health.push_back(std::move(h));
  }
  return health;
}

Result<ScrubPassResult> Store::ScrubNow() {
  std::vector<Dataset*> datasets;
  {
    MutexLock lock(&mu_);
    datasets.reserve(open_.size());
    for (const auto& [name, dataset] : open_) datasets.push_back(dataset.get());
  }
  ScrubPassResult total;
  for (Dataset* dataset : datasets) {
    LSMCOL_ASSIGN_OR_RETURN(ScrubPassResult one,
                            Scrubber::ScrubDataset(dataset));
    total.components += one.components;
    total.leaves += one.leaves;
    total.bytes += one.bytes;
    total.damaged += one.damaged;
    total.skipped_quarantined += one.skipped_quarantined;
  }
  return total;
}

}  // namespace lsmcol
