#include "src/lsm/dataset.h"

#include <algorithm>
#include <chrono>

#include "src/json/parser.h"
#include "src/lsm/merge.h"
#include "src/storage/backup_manifest.h"
#include "src/storage/file.h"

namespace lsmcol {

// ----------------------------------------------------------------- Dataset

Dataset::Dataset(const DatasetOptions& options, BufferCache* cache)
    : options_(options),
      cache_(cache),
      owned_scheduler_(options.scheduler == nullptr
                           ? std::make_unique<FlushMergeScheduler>(0)
                           : nullptr),
      scheduler_(options.scheduler != nullptr ? options.scheduler
                                              : owned_scheduler_.get()),
      mu_(MutexRank::kDataset),
      manifest_path_(ManifestPath(options.dir, options.name)),
      fault_counters_(std::make_shared<ComponentFaultCounters>()) {
  row_codec_ = &GetRowCodec(columnar() ? LayoutKind::kVb : options_.layout);
  if (columnar()) schema_ = std::make_shared<Schema>(options_.pk_field);
}

Dataset::~Dataset() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;  // merges stop; flush tasks keep draining
    work_cv_.NotifyAll();
  }
  // Queued and in-flight tasks reference this object. Queued ones run
  // here (caller-runs form) or on the workers (Stop drains them too);
  // flush tasks drain the sealed memtables before exiting — only the
  // active memtable is lost, the documented contract.
  scheduler_->RunCallerTasks(this);
  MutexLock lock(&mu_);
  while (BackgroundWorkPendingLocked()) work_cv_.Wait(&mu_);
}

Result<std::unique_ptr<Dataset>> Dataset::Open(const DatasetOptions& options,
                                               BufferCache* cache) {
  LSMCOL_RETURN_NOT_OK(ValidateDatasetOptions(options));
  if (cache->page_size() != options.page_size) {
    return Status::InvalidArgument(
        "DatasetOptions.page_size (" + std::to_string(options.page_size) +
        ") does not match the buffer cache page size (" +
        std::to_string(cache->page_size()) + ")");
  }
  LSMCOL_RETURN_NOT_OK(CreateDirDurable(options.dir, options.fs));
  std::unique_ptr<Dataset> dataset(new Dataset(options, cache));
  {
    // Single-threaded open: nothing else can see the dataset yet, the
    // lock just satisfies the guarded fields' capability requirement.
    MutexLock lock(&dataset->mu_);
    LSMCOL_RETURN_NOT_OK(dataset->OpenLocked(options));
  }
  return dataset;
}

Status Dataset::OpenLocked(const DatasetOptions& validated) {
  if (FileExists(manifest_path_, options_.fs)) {
    LSMCOL_ASSIGN_OR_RETURN(Manifest manifest,
                            ReadManifest(manifest_path_, options_.fs));
    LSMCOL_RETURN_NOT_OK(RecoverFromManifest(manifest));
    wal_floor_ = std::max<uint64_t>(manifest.wal_floor, 1);
  } else {
    // Fresh dataset. A manifest-less directory cannot own components, so
    // anything matching our naming scheme is leftover garbage; sweep it
    // before the first component id gets reused. (wal_floor 0: WAL
    // segments are never garbage — they may hold acknowledged writes —
    // and the replay below picks them up.)
    LSMCOL_RETURN_NOT_OK(RemoveStaleDatasetFiles(validated.dir,
                                                 validated.name, {},
                                                 /*wal_floor=*/0, nullptr,
                                                 options_.fs));
    LSMCOL_RETURN_NOT_OK(WriteCurrentManifestLocked());
  }
  if (validated.wal.enabled) {
    // Replay the log into the active memtable: everything acknowledged
    // since the last manifest-durable flush. Replaying a segment a flush
    // already covered (crash before its unlink) is idempotent — the
    // re-inserted rows shadow identical rows in the newest component.
    // The raw pointer keeps the replay lambda (analyzed as a separate
    // function) off the guarded member.
    MemTable* memtable = &memtable_;
    LSMCOL_ASSIGN_OR_RETURN(
        WalReplayResult replay,
        ReplayWalSegments(validated.dir, validated.name, wal_floor_,
                          [&](const WalReplayEntry& entry) {
                            if (entry.anti_matter) {
                              memtable->Delete(entry.key);
                            } else {
                              memtable->Upsert(entry.key,
                                               entry.row.ToString());
                            }
                            return Status::OK();
                          },
                          options_.fs));
    stats_.wal_replayed_records = replay.records;
    // The log shares the dataset's transient-retry policy for segment
    // writes (fsync stays fail-closed; see WriteAheadLog::Open).
    LSMCOL_ASSIGN_OR_RETURN(
        wal_, WriteAheadLog::Open(validated.dir, validated.name, validated.wal,
                                  options_.io_retry, replay.next_segment_seq,
                                  replay.next_lsn, options_.fs));
  }
  return Status::OK();
}

Status Dataset::RecoverFromManifest(const Manifest& manifest) {
  if (manifest.dataset_name != options_.name) {
    return Status::Corruption("manifest " + manifest_path_ +
                              " names dataset '" + manifest.dataset_name +
                              "', expected '" + options_.name + "'");
  }
  if (static_cast<LayoutKind>(manifest.layout) != options_.layout) {
    return Status::InvalidArgument(
        "DatasetOptions.layout (" +
        std::string(LayoutKindName(options_.layout)) +
        ") does not match the on-disk layout (" +
        std::string(LayoutKindName(static_cast<LayoutKind>(manifest.layout))) +
        ") of dataset " + options_.name);
  }
  if (manifest.pk_field != options_.pk_field) {
    return Status::InvalidArgument(
        "DatasetOptions.pk_field ('" + options_.pk_field +
        "') does not match the on-disk pk_field ('" + manifest.pk_field +
        "') of dataset " + options_.name);
  }
  if (manifest.page_size != options_.page_size) {
    return Status::InvalidArgument(
        "DatasetOptions.page_size (" + std::to_string(options_.page_size) +
        ") does not match the on-disk page_size (" +
        std::to_string(manifest.page_size) + ") of dataset " + options_.name);
  }
  manifest_sequence_ = manifest.sequence;
  next_component_id_ = manifest.next_component_id;
  // Crash cleanup first: interrupted flushes/merges may have left `*.tmp`
  // files or fully-renamed components the manifest never recorded.
  std::vector<std::string> referenced;
  for (const ManifestComponentEntry& entry : manifest.components) {
    referenced.push_back(entry.file);
  }
  LSMCOL_RETURN_NOT_OK(RemoveStaleDatasetFiles(options_.dir, options_.name,
                                               referenced, manifest.wal_floor,
                                               nullptr, options_.fs));
  for (const ManifestComponentEntry& entry : manifest.components) {
    LSMCOL_ASSIGN_OR_RETURN(
        auto component,
        Component::Open(options_.dir + "/" + entry.file, cache_,
                        options_.page_size, options_.fs, fault_counters_));
    if (component->meta().component_id != entry.id) {
      return Status::Corruption(
          "component " + entry.file + " carries id " +
          std::to_string(component->meta().component_id) +
          ", manifest expects " + std::to_string(entry.id));
    }
    if (component->meta().layout != options_.layout) {
      return Status::Corruption("component " + entry.file +
                                " layout does not match dataset layout");
    }
    components_.push_back(std::move(component));
  }
  if (columnar()) {
    if (!manifest.schema_blob.empty()) {
      LSMCOL_ASSIGN_OR_RETURN(Schema schema,
                              Schema::Deserialize(Slice(manifest.schema_blob)));
      schema_ = std::make_shared<Schema>(std::move(schema));
    } else if (!components_.empty()) {
      return Status::Corruption("columnar manifest lacks a schema: " +
                                manifest_path_);
    }
  }
  // Re-apply persisted first-damage records: a component observed damaged
  // before the restart comes back quarantined — a reboot must not
  // silently "heal" a known-bad file. (A manifest records damage only for
  // components it lists.)
  for (const ManifestDamageEntry& entry : manifest.damaged) {
    for (const auto& component : components_) {
      if (component->meta().component_id != entry.component_id) continue;
      Status reason(static_cast<StatusCode>(entry.status_code), entry.reason);
      if (!reason.IsDataDamage()) reason = Status::Corruption(entry.reason);
      component->Quarantine(reason);
      break;
    }
  }
  // Every quarantine so far came from this manifest.
  quarantines_persisted_ =
      fault_counters_->quarantines.load(std::memory_order_acquire);
  return Status::OK();
}

Manifest Dataset::CurrentManifestLocked() const {
  Manifest manifest;
  manifest.dataset_name = options_.name;
  manifest.layout = static_cast<uint8_t>(options_.layout);
  manifest.pk_field = options_.pk_field;
  manifest.page_size = options_.page_size;
  manifest.next_component_id = next_component_id_;
  manifest.wal_floor = wal_floor_;
  for (const auto& component : components_) {
    const std::string& path = component->path();
    const size_t slash = path.find_last_of('/');
    manifest.components.push_back(
        {component->meta().component_id,
         slash == std::string::npos ? path : path.substr(slash + 1)});
    if (component->quarantined()) {
      const Status reason = component->CheckReadable();
      manifest.damaged.push_back({component->meta().component_id,
                                  static_cast<uint8_t>(reason.code()),
                                  reason.message()});
    }
  }
  std::sort(manifest.damaged.begin(), manifest.damaged.end(),
            [](const ManifestDamageEntry& a, const ManifestDamageEntry& b) {
              return a.component_id < b.component_id;
            });
  if (schema_ != nullptr) {
    Buffer blob;
    schema_->SerializeTo(&blob);
    manifest.schema_blob.assign(blob.data(), blob.size());
  }
  return manifest;
}

Status Dataset::WriteCurrentManifestLocked() {
  // Claim the manifest-writer role. Rewrites are serialized in role-claim
  // order; each snapshots the *current* in-memory state, so a later
  // claimer's manifest always includes every earlier publication — the
  // durable state advances monotonically no matter how concurrent
  // flush/merge publications interleave with the role queue.
  while (manifest_writing_) work_cv_.Wait(&mu_);
  manifest_writing_ = true;
  // Read the quarantine count before collecting the components' states:
  // every quarantine it counts is then in this manifest, and a later one
  // moves it past the value recorded below (WriteManifestIfBehindLocked).
  const uint64_t quarantines =
      fault_counters_->quarantines.load(std::memory_order_acquire);
  Manifest manifest = CurrentManifestLocked();
  manifest.sequence = manifest_sequence_ + 1;
  // The durable part (temp write + fsync + rename + dir fsync) runs
  // without mu_ so concurrent writers/readers don't stall on it; the
  // manifest-writer role keeps other rewrites out while it is dropped.
  mu_.Unlock();
  Status st = RunWithRetry(
      [&] { return WriteManifest(manifest_path_, manifest, options_.fs); });
  mu_.Lock();
  manifest_writing_ = false;
  if (!st.ok()) {
    manifest_dirty_ = true;
  } else {
    manifest_dirty_ = false;
    ++manifest_sequence_;
    quarantines_persisted_ = quarantines;
  }
  work_cv_.NotifyAll();
  return st;
}

std::string Dataset::ComponentFilePath(uint64_t id) const {
  return options_.dir + "/" + options_.name + "_" + std::to_string(id) +
         ".cmp";
}

Result<std::shared_ptr<Schema>> Dataset::CloneSchemaLocked() {
  LSMCOL_CHECK(schema_ != nullptr);
  // Schema is move-only; clone through its serialized form (column ids,
  // def levels, and merged_record_count round-trip exactly). Published
  // schemas are never mutated, so serializing under mu_ is safe; the
  // clone stays private to the flush/merge that requested it.
  Buffer blob;
  schema_->SerializeTo(&blob);
  LSMCOL_ASSIGN_OR_RETURN(Schema clone, Schema::Deserialize(blob.slice()));
  return std::make_shared<Schema>(std::move(clone));
}

// -------------------------------------------------------------- write path

Status Dataset::Insert(const Value& record) {
  const Value& pk = record.Get(options_.pk_field);
  if (!pk.is_int()) {
    return Status::InvalidArgument("record primary key '" + options_.pk_field +
                                   "' must be an int64");
  }
  // Encode outside the lock: with concurrent writers the (relatively
  // expensive) row encoding parallelizes; only the memtable upsert and
  // rotation bookkeeping serialize.
  Buffer row;
  row_codec_->Encode(record, &row);
  return InsertEncoded(pk.int_value(), std::move(row), /*anti_matter=*/false);
}

Status Dataset::InsertJson(std::string_view json) {
  LSMCOL_ASSIGN_OR_RETURN(Value v, ParseJson(json));
  return Insert(v);
}

Status Dataset::Delete(int64_t key) {
  return InsertEncoded(key, Buffer(), /*anti_matter=*/true);
}

Status Dataset::InsertEncoded(int64_t key, Buffer row, bool anti_matter) {
  uint64_t wal_lsn = 0;
  {
    MutexLock lock(&mu_);
    if (!background_error_.ok()) {
      // A background flush or merge failed. Reject the write (before it
      // touches the memtable) so the sealed-memtable backlog stays
      // bounded for callers that never Flush(), and clear the error: the
      // next rotation's task — or an explicit Flush() — retries the
      // stranded sealed memtables.
      Status st = background_error_;
      background_error_ = Status::OK();
      return st;
    }
    if (wal_ != nullptr) {
      // Log before the memtable sees the write, under mu_: log order is
      // exactly apply order, so replay reproduces same-key races
      // byte-for-byte. No I/O here — durability waits below, after mu_ is
      // released, so concurrent writers share one fsync.
      auto appended = wal_->Append(anti_matter, key, row.slice());
      if (!appended.ok()) return appended.status();
      wal_lsn = *appended;
    }
    if (anti_matter) {
      memtable_.Delete(key);
      ++stats_.deletes;
    } else {
      memtable_.Upsert(key, std::string(row.data(), row.size()));
      ++stats_.inserts;
    }
    if (memtable_.approximate_bytes() >= options_.memtable_bytes) {
      LSMCOL_RETURN_NOT_OK(RotateMemtableLocked());
      ScheduleFlushLocked();
      WaitForWriteRoomLocked();
    }
  }
  if (wal_ != nullptr) {
    // The commit point: group-commit (or per-write) fsync covering our
    // LSN. Runs without mu_ — followers block here, not the write path.
    LSMCOL_RETURN_NOT_OK(wal_->Sync(wal_lsn));
  }
  return RunOwnTasks();
}

Status Dataset::RotateMemtableLocked() {
  if (memtable_.empty()) return Status::OK();
  if (wal_ != nullptr) {
    // Seal the covering log segment with the memtable: the segment holds
    // exactly the writes since the previous rotation (every append lands
    // in the active segment, and appends are serialized with rotations by
    // mu_), so once this memtable's flush is manifest-durable the segment
    // — and everything older — is deletable.
    auto sealed = wal_->Rotate();
    if (!sealed.ok()) return sealed.status();  // memtable stays active
    immutable_wal_upto_.insert(immutable_wal_upto_.begin(), *sealed);
  }
  immutables_.insert(immutables_.begin(),  // newest first
                     std::make_shared<const MemTable>(std::move(memtable_)));
  immutable_claimed_.insert(immutable_claimed_.begin(), false);
  return Status::OK();
}

int Dataset::OldestUnclaimedLocked() const {
  // Back of the list = oldest sealed memtable.
  for (size_t i = immutables_.size(); i > 0; --i) {
    if (!immutable_claimed_[i - 1]) return static_cast<int>(i - 1);
  }
  return -1;
}

void Dataset::ScheduleFlushLocked() {
  if (OldestUnclaimedLocked() < 0) return;
  // One task per sealed memtable lets the worker pool build several
  // components in parallel (publication stays ordered; each task drains
  // whatever is unclaimed, so surplus tasks exit immediately).
  if (flush_tasks_ >= immutables_.size()) return;
  ++flush_tasks_;
  scheduler_->Schedule(this, [this] { BackgroundFlushTask(); });
}

void Dataset::ScheduleMergeLocked() {
  if (!options_.auto_merge || shutting_down_) return;
  if (merge_queued_ || merge_active_) return;
  if (PickMergeCountLocked() == 0) return;
  merge_queued_ = true;
  scheduler_->Schedule(this, [this] { BackgroundMergeTask(); });
}

bool Dataset::BackgroundWorkPendingLocked() const {
  return flush_tasks_ != 0 || flush_building_ != 0 || merge_queued_ ||
         merge_active_;
}

Status Dataset::RunOwnTasks() {
  if (scheduler_->RunCallerTasks(this) == 0) return Status::OK();
  // The work ran on this thread: report what it hit here, as the
  // synchronous call it was, instead of on the next write.
  MutexLock lock(&mu_);
  Status st = background_error_;
  background_error_ = Status::OK();
  return st;
}

bool Dataset::HasWriteRoomLocked(size_t component_stall) const {
  // Fail fast instead of hanging when background work died or the
  // dataset is being torn down. Every site that records
  // background_error_ notifies work_cv_ under mu_, so the wait below
  // needs no timeout escape.
  if (!background_error_.ok() || shutting_down_) return true;
  if (immutables_.size() >= options_.max_immutable_memtables) return false;
  if (options_.auto_merge && components_.size() >= component_stall) {
    return false;
  }
  return true;
}

void Dataset::WaitForWriteRoomLocked() {
  // Stall thresholds: sealed memtables are bounded directly; component
  // count is bounded loosely by the active compaction policy (each one
  // derives a limit above its steady-state stack depth) so writers
  // outrunning the merger slow to its pace instead of growing the stack
  // unboundedly.
  const size_t component_stall = StallComponentLimit(options_);
  if (HasWriteRoomLocked(component_stall)) return;
  ++stats_.write_stalls;
  while (!HasWriteRoomLocked(component_stall)) {
    // A stall is only sound while someone is working on draining it. A
    // prior error may have been surfaced-and-cleared with its flush task
    // already gone — the sealed memtables would then sit unclaimed and
    // this wait would never wake. Re-arm the drain (and the merge, when
    // the component count stalls) before sleeping.
    ScheduleFlushLocked();
    if (options_.auto_merge && components_.size() >= component_stall) {
      ScheduleMergeLocked();
    }
    // No task can make room (a quarantined component keeps the policy
    // from picking a merge): let the write through instead of hanging.
    if (!BackgroundWorkPendingLocked()) break;
    // Caller-runs form: the queued work is this writer's to run, so run
    // it rather than sleep on it. With live workers nothing runs here.
    mu_.Unlock();
    const size_t ran = scheduler_->RunCallerTasks(this);
    mu_.Lock();
    if (ran == 0 && !HasWriteRoomLocked(component_stall)) {
      work_cv_.Wait(&mu_);
    }
  }
}

void Dataset::BackgroundFlushTask() {
  MutexLock lock(&mu_);
  // Keep draining during shutdown: rotated memtables were promised to the
  // background flush, and the destructor waits for these tasks.
  while (background_error_.ok() && OldestUnclaimedLocked() >= 0) {
    if (!FlushOneImmutableLocked().ok()) break;  // recorded inside
    ScheduleMergeLocked();
  }
  --flush_tasks_;
  work_cv_.NotifyAll();
}

void Dataset::BackgroundMergeTask() {
  MutexLock lock(&mu_);
  merge_queued_ = false;
  if (merge_active_) {
    work_cv_.NotifyAll();
    return;
  }
  merge_active_ = true;
  const Status st = MergeUntilSatisfiedLocked(/*background=*/true);
  // Data damage in a merge input quarantines that component (its own read
  // path already did) — the rest of the dataset stays healthy and
  // writable, so this must NOT poison background_error_, which would
  // reject every subsequent write. The next policy evaluation sees the
  // quarantined input and stops picking merges. Any other error keeps
  // the first (root-cause) one if a flush already recorded one.
  if (!st.ok() && !st.IsDataDamage()) RecordBackgroundErrorLocked(st);
  merge_active_ = false;
  work_cv_.NotifyAll();
}

void Dataset::DrainImmutablesLocked() {
  while (background_error_.ok()) {
    if (OldestUnclaimedLocked() >= 0) {
      FlushOneImmutableLocked();  // failures land in background_error_
      continue;
    }
    if (flush_building_ > 0) {
      // Background builds are in flight; wait for them to publish (or a
      // failed one to return its memtable to the unclaimed state).
      while (flush_building_ != 0 && OldestUnclaimedLocked() < 0 &&
             background_error_.ok()) {
        work_cv_.Wait(&mu_);
      }
      continue;
    }
    break;
  }
}

namespace {

/// Structural part of a schema serialization — the tree with column ids,
/// def levels, and types, but not the per-record merge counter (which
/// advances on every shredded record and is irrelevant for column-id
/// compatibility).
std::string SchemaStructure(const Schema& schema) {
  Buffer blob;
  schema.SerializeTo(&blob);
  BufferReader reader(blob.slice());
  Slice pk;
  uint64_t merged = 0;
  LSMCOL_CHECK_OK(reader.ReadLengthPrefixed(&pk));
  LSMCOL_CHECK_OK(reader.ReadVarint64(&merged));
  Slice tree = reader.rest();
  return std::string(tree.data(), tree.size());
}

}  // namespace

Result<std::shared_ptr<Component>> Dataset::BuildComponent(
    uint64_t id, const Schema* schema,
    const std::function<Result<uint64_t>(ComponentWriter*)>& fill) {
  const std::string path = ComponentFilePath(id);
  const std::string tmp = path + ".tmp";
  auto build = [&]() -> Result<std::shared_ptr<Component>> {
    {
      // Build the component under a temp name: a crash mid-write leaves
      // only a `.tmp` file the next Open sweeps away.
      LSMCOL_ASSIGN_OR_RETURN(
          auto writer,
          ComponentWriter::Create(tmp, cache_, options_.page_size,
                                  options_.fs));
      ComponentMeta meta;
      meta.layout = options_.layout;
      meta.compressed = options_.compress;
      meta.component_id = id;
      LSMCOL_ASSIGN_OR_RETURN(meta.entry_count, fill(writer.get()));
      Buffer meta_blob;
      meta.SerializeTo(&meta_blob, schema);
      LSMCOL_RETURN_NOT_OK(writer->Finish(meta_blob.slice()));
    }
    LSMCOL_RETURN_NOT_OK(RenameFile(tmp, path, options_.fs));
    LSMCOL_ASSIGN_OR_RETURN(
        auto component, Component::Open(path, cache_, options_.page_size,
                                        options_.fs, fault_counters_));
    return std::shared_ptr<Component>(std::move(component));
  };
  // Transient failures (EIO, ENOSPC) retry the whole build — Create
  // truncates, so each attempt starts clean; data damage in a merge input
  // is not retried (the input is quarantined by its own read path). On
  // final failure the partial temp file is unlinked immediately: a full
  // disk must get its space back *now*, not at the next open's sweep, or
  // ingestion could never recover from the very condition that failed
  // the flush or merge.
  Result<std::shared_ptr<Component>> built = RunWithRetry(build);
  if (!built.ok()) (void)RemoveFileIfExists(tmp, options_.fs);
  return built;
}

Status Dataset::FlushOneImmutableLocked() {
  const int claim = OldestUnclaimedLocked();
  LSMCOL_CHECK(claim >= 0);
  std::shared_ptr<const MemTable> victim = immutables_[static_cast<size_t>(claim)];
  immutable_claimed_[static_cast<size_t>(claim)] = true;
  ++flush_building_;
  const uint64_t id = next_component_id_++;

  Status st = Status::OK();
  std::shared_ptr<Component> component;
  std::shared_ptr<Schema> schema_clone;
  bool clone_dirty = false;
  while (true) {
    std::string base_structure;
    if (columnar()) {
      auto clone = CloneSchemaLocked();
      if (!clone.ok()) {
        st = clone.status();
        break;
      }
      schema_clone = std::move(*clone);
      base_structure = SchemaStructure(*schema_clone);
    }
    // Build outside the lock: the victim is sealed, the schema clone is
    // private until publication, and writers/readers (and other builds)
    // proceed concurrently.
    mu_.Unlock();
    Schema* schema = schema_clone.get();
    Result<std::shared_ptr<Component>> built = BuildComponent(
        id, schema, [&](ComponentWriter* writer) -> Result<uint64_t> {
          LSMCOL_RETURN_NOT_OK(
              BuildFlushLeaves(options_, *victim, writer, schema));
          return victim->record_count();
        });
    mu_.Lock();
    if (!built.ok()) {
      st = built.status();
      break;
    }
    component = std::move(*built);
    clone_dirty =
        columnar() && SchemaStructure(*schema_clone) != base_structure;
    // Ordered publication: components must enter the list oldest-first or
    // snapshots would see a newer component below a still-sealed older
    // memtable and reconcile in the wrong order.
    while (immutables_.back() != victim && background_error_.ok()) {
      work_cv_.Wait(&mu_);
    }
    if (immutables_.back() != victim) {
      st = background_error_;  // abandoned: an older build failed
      break;
    }
    if (clone_dirty) {
      // Our build discovered columns. If a concurrent older flush also
      // advanced the schema since we cloned it, our column ids may clash
      // with the published tree — rebuild against the new base. Rare:
      // only while the schema is still being discovered.
      if (SchemaStructure(*schema_) != base_structure) {
        component.reset();  // the renamed file is overwritten by the redo
        continue;
      }
    }
    break;
  }

  if (!st.ok() || component == nullptr) {
    if (st.ok()) st = Status::IOError("flush abandoned");
    // Record so builds waiting for publication order wake and abandon
    // instead of waiting forever on this victim.
    RecordBackgroundErrorLocked(st);
    // Unclaim: the victim stays sealed and readable; a later drain
    // retries it. (Re-locate it — rotations shift indices.)
    for (size_t i = 0; i < immutables_.size(); ++i) {
      if (immutables_[i] == victim) {
        immutable_claimed_[i] = false;
        break;
      }
    }
    --flush_building_;
    work_cv_.NotifyAll();
    return st;
  }

  // Publish: component in, sealed memtable out, schema advanced — one
  // critical section, so every snapshot sees exactly one of the two
  // states and reconciliation order is preserved (the flushed data moves
  // from "oldest memtable" to "newest component", both of which sort
  // between the remaining memtables and the older components).
  stats_.flush_bytes_out += component->size_bytes();
  components_.insert(components_.begin(), std::move(component));
  LSMCOL_CHECK(immutables_.back() == victim);
  immutables_.pop_back();
  immutable_claimed_.pop_back();
  if (wal_ != nullptr) {
    // This memtable's writes are now component-durable; once the manifest
    // rewrite below records the component (and this floor), its covering
    // WAL segments are dead weight. Publication is ordered oldest-first
    // and segments seal in rotation order, so the floor only advances.
    wal_floor_ = immutable_wal_upto_.back() + 1;
    immutable_wal_upto_.pop_back();
  }
  if (clone_dirty) schema_ = std::move(schema_clone);
  ++stats_.flushes;
  work_cv_.NotifyAll();  // back-pressure + publication-order waiters
  // Manifest failure leaves the installed component unrecorded: in-memory
  // state stays consistent, the caller sees the error (via
  // background_error_), and the orphan file is swept on the next open if
  // no later rewrite records it. flush_building_ stays up until the
  // manifest write finishes, so DrainImmutablesLocked (and through it an
  // explicit Flush) never reports success while a publication of this
  // drain is still being recorded.
  Status manifest_status = WriteCurrentManifestLocked();
  if (!manifest_status.ok()) {
    RecordBackgroundErrorLocked(manifest_status);
  }
  if (manifest_status.ok() && wal_ != nullptr) {
    // Only after the manifest is durable: before that, the segments below
    // the floor are still the sole copy of this flush's writes. Deletion
    // failure is harmless — the next open's sweep (driven by the
    // manifest's recorded floor) collects the leftovers.
    const uint64_t floor = wal_floor_;
    mu_.Unlock();
    Status ignored = wal_->DeleteSegmentsBelow(floor);
    (void)ignored;
    mu_.Lock();
  }
  --flush_building_;
  work_cv_.NotifyAll();
  return manifest_status;
}

Status Dataset::Flush() {
  MutexLock lock(&mu_);
  LSMCOL_RETURN_NOT_OK(RotateMemtableLocked());
  const bool had_data = !immutables_.empty();
  // Clear any prior background error *before* draining: the drain is the
  // retry of whatever failed (a sealed memtable whose build died stays
  // on the list), and a set error would stop it immediately. The prior
  // error is still surfaced below even when the retry succeeds.
  Status prior = background_error_;
  background_error_ = Status::OK();
  DrainImmutablesLocked();
  Status st = background_error_;
  background_error_ = Status::OK();
  if (st.ok()) st = prior;
  if (!st.ok()) return st;
  // A previous flush/merge may have installed state the manifest write
  // failed to record, or a read may have quarantined a component since:
  // Flush() only reports success once the manifest records both.
  LSMCOL_RETURN_NOT_OK(WriteManifestIfBehindLocked());
  if (had_data) ScheduleMergeLocked();
  lock.Unlock();
  return RunOwnTasks();
}

Status Dataset::WaitForBackgroundWork() {
  {
    MutexLock lock(&mu_);
    // Sealed memtables whose flush died with an error an earlier call
    // already consumed have no task left: re-arm their drain.
    if (background_error_.ok()) ScheduleFlushLocked();
  }
  scheduler_->RunCallerTasks(this);
  MutexLock lock(&mu_);
  while (BackgroundWorkPendingLocked()) work_cv_.Wait(&mu_);
  Status st = background_error_;
  background_error_ = Status::OK();
  return st;
}

// ------------------------------------------------------------------ merge

size_t Dataset::PickMergeCountLocked() const {
  // Snapshot the stack into plain descriptors: policies are pure
  // functions over these (no I/O, no dataset access), which is what
  // makes plan selection unit-testable with injected views. The count is
  // consumed immediately under the same critical section, so it can
  // never go stale against a concurrent flush.
  std::vector<CompactionComponentView> views;
  views.reserve(components_.size());
  for (const auto& component : components_) {
    views.push_back({component->size_bytes(), component->quarantined()});
  }
  const size_t count = PickMergeCount(options_, views);
  // Fence the policy contract: a malformed plan (out of bounds, or
  // selecting a quarantined component) is ignored rather than executed.
  if (count < 2 || count > components_.size()) return 0;
  for (size_t i = 0; i < count; ++i) {
    if (components_[i]->quarantined()) return 0;
  }
  return count;
}

Status Dataset::MaybeMerge() {
  MutexLock lock(&mu_);
  while (merge_active_) work_cv_.Wait(&mu_);
  merge_active_ = true;
  Status st = MergeUntilSatisfiedLocked(/*background=*/false);
  merge_active_ = false;
  work_cv_.NotifyAll();
  return st;
}

Status Dataset::MergeUntilSatisfiedLocked(bool background) {
  while (!background || (!shutting_down_ && background_error_.ok())) {
    const size_t count = PickMergeCountLocked();
    if (count == 0) break;
    LSMCOL_RETURN_NOT_OK(MergeNewestLocked(count));
  }
  return Status::OK();
}

Status Dataset::MergeAll() {
  {
    MutexLock lock(&mu_);
    if (memtable_.empty() && immutables_.empty() &&
        components_.size() < 2) {
      return Status::OK();
    }
  }
  LSMCOL_RETURN_NOT_OK(Flush());
  MutexLock lock(&mu_);
  while (merge_active_) work_cv_.Wait(&mu_);
  if (components_.size() < 2) return Status::OK();
  merge_active_ = true;
  Status st = MergeNewestLocked(components_.size());
  merge_active_ = false;
  work_cv_.NotifyAll();
  return st;
}

Status Dataset::MergeNewestLocked(size_t count) {
  LSMCOL_CHECK(merge_active_);
  LSMCOL_CHECK(count >= 2 && count <= components_.size());
  // Capture the inputs by reference: a concurrent background flush only
  // *prepends* components, so these stay live, contiguous, and in order
  // while the merge builds — they are re-located at publish time.
  std::vector<std::shared_ptr<Component>> inputs(
      components_.begin(), components_.begin() + static_cast<long>(count));
  // Anti-matter may annihilate only when no older component could still
  // hold a record it deletes — i.e. when the merge takes the whole stack.
  const bool includes_oldest = count == components_.size();
  const uint64_t id = next_component_id_++;
  uint64_t bytes_in = 0;
  for (const auto& component : inputs) bytes_in += component->size_bytes();
  // Merges copy existing columns and never discover new ones, so the
  // merge builds against the published schema, which covers every column
  // its inputs could contain. Published schemas are never mutated (a
  // flush publishes a new one), so this reference stays valid and
  // unchanged while the merge builds outside mu_.
  const std::shared_ptr<const Schema> schema = schema_;
  mu_.Unlock();
  MergeOutcome outcome;
  const auto merge_start = std::chrono::steady_clock::now();
  Result<std::shared_ptr<Component>> built = BuildComponent(
      id, schema.get(), [&](ComponentWriter* writer) -> Result<uint64_t> {
        outcome = MergeOutcome();  // counters restart with each attempt
        LSMCOL_RETURN_NOT_OK(BuildMergeLeaves(options_, inputs,
                                              includes_oldest, writer,
                                              schema.get(), &outcome));
        // Exact surviving entry count from the merge plan (records plus
        // preserved anti-matter).
        return outcome.records_out;
      });
  const uint64_t merge_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - merge_start)
          .count());
  mu_.Lock();
  // Until publication the component list was untouched, so a failed merge
  // leaves the dataset exactly as it was (modulo a swept-on-open temp
  // file). Its partial outcome counters are discarded with it, so the
  // stats only ever describe merges that produced a component.
  if (!built.ok()) return built.status();
  stats_.merge_records_in += outcome.records_in;
  stats_.merge_records_out += outcome.records_out;
  stats_.merge_runs_copied += outcome.runs_copied;
  stats_.merge_leaves_adopted += outcome.leaves_adopted;
  stats_.merge_micros += merge_micros;
  // Amplification accounting tallies published merges only (a failed
  // build returned above without touching any byte counter).
  stats_.merged_bytes_in += bytes_in;
  stats_.merge_bytes_out += (*built)->size_bytes();
  if (includes_oldest) {
    // A true full merge: its output is exactly the live data, the
    // baseline space_amplification() measures against.
    stats_.last_full_merge_bytes = (*built)->size_bytes();
  }

  // Publish the new version: the merged component replaces its inputs in
  // place. Concurrent flushes may have prepended newer components, so the
  // inputs are re-located (they are still contiguous — only this merge
  // holds the merge role, and flushes never reorder).
  size_t pos = 0;
  while (pos < components_.size() && components_[pos] != inputs.front()) {
    ++pos;
  }
  LSMCOL_CHECK(pos + count <= components_.size());
  for (size_t i = 0; i < count; ++i) {
    LSMCOL_CHECK(components_[pos + i] == inputs[i]);
  }
  components_.erase(components_.begin() + static_cast<long>(pos),
                    components_.begin() + static_cast<long>(pos + count));
  components_.insert(components_.begin() + static_cast<long>(pos),
                     std::move(*built));
  ++stats_.merges;
  work_cv_.NotifyAll();  // component-count back-pressure waiters
  Status st = WriteCurrentManifestLocked();
  // Retire the inputs only once the manifest stopped referencing them —
  // on a failed rewrite the durable manifest still lists them, so their
  // files must survive (they are merely orphaned-on-disk until a later
  // successful rewrite, or swept at the next open). On success each file
  // is deleted when its last reference drops — right here unless a live
  // snapshot still pins it.
  if (st.ok()) {
    for (auto& component : inputs) component->MarkObsolete();
  }
  inputs.clear();
  return st;
}

// ------------------------------------------------------------------ reads

Snapshot::Ref Dataset::GetSnapshot() const {
  MutexLock lock(&mu_);
  return GetSnapshotLocked();
}

Snapshot::Ref Dataset::GetSnapshotLocked() const {
  auto snapshot = std::shared_ptr<Snapshot>(new Snapshot());
  snapshot->layout_ = options_.layout;
  snapshot->row_codec_ = row_codec_;
  snapshot->memtable_ = std::make_shared<const MemTable>(memtable_.Share());
  snapshot->immutables_.assign(immutables_.begin(), immutables_.end());
  snapshot->schema_ = schema_;
  snapshot->components_.assign(components_.begin(), components_.end());
  return snapshot;
}

Result<std::unique_ptr<LsmScanCursor>> Dataset::Scan(
    const Projection& projection) {
  return GetSnapshot()->Scan(projection);
}

Status Dataset::Lookup(int64_t key, Value* out) {
  return Lookup(key, Projection::All(), out);
}

Status Dataset::Lookup(int64_t key, const Projection& projection, Value* out) {
  return GetSnapshot()->Lookup(key, projection, out);
}

Result<std::unique_ptr<LookupBatch>> Dataset::NewLookupBatch(
    const Projection& projection) {
  return GetSnapshot()->NewLookupBatch(projection);
}

// ---------------------------------------------------------- introspection

const Schema* Dataset::schema() const {
  MutexLock lock(&mu_);
  return schema_.get();
}

size_t Dataset::component_count() const {
  MutexLock lock(&mu_);
  return components_.size();
}

const Component& Dataset::component(size_t i) const {
  MutexLock lock(&mu_);
  return *components_[i];
}

size_t Dataset::immutable_memtable_count() const {
  MutexLock lock(&mu_);
  return immutables_.size();
}

uint64_t Dataset::OnDiskBytes() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& component : components_) total += component->size_bytes();
  return total;
}

DatasetStats Dataset::stats() const {
  MutexLock lock(&mu_);
  DatasetStats stats = stats_;
  for (const auto& component : components_) {
    stats.on_disk_bytes += component->size_bytes();
  }
  stats.io_retries = io_retries_.load(std::memory_order_relaxed);
  stats.io_retry_backoff_micros =
      io_retry_backoff_micros_.load(std::memory_order_relaxed);
  if (wal_ != nullptr) {
    const WalStats wal = wal_->stats();
    stats.wal_appends = wal.appends;
    stats.wal_syncs = wal.syncs;
    stats.wal_bytes = wal.bytes;
    stats.wal_group_entries_max = wal.group_entries_max;
    stats.wal_rotations = wal.rotations;
    stats.io_retries += wal.io_retries;
    stats.io_retry_backoff_micros += wal.retry_backoff_micros;
  }
  stats.checksum_failures =
      fault_counters_->checksum_failures.load(std::memory_order_relaxed);
  stats.quarantined_components =
      fault_counters_->quarantines.load(std::memory_order_relaxed);
  return stats;
}

uint64_t Dataset::manifest_sequence() const {
  MutexLock lock(&mu_);
  return manifest_sequence_;
}

Status Dataset::background_error() const {
  MutexLock lock(&mu_);
  return background_error_;
}

Status Dataset::last_background_error() const {
  MutexLock lock(&mu_);
  return last_background_error_;
}

Status Dataset::wal_status() const {
  if (wal_ == nullptr) return Status::OK();
  return wal_->io_status();
}

std::vector<std::pair<uint64_t, Status>> Dataset::QuarantineList() const {
  MutexLock lock(&mu_);
  std::vector<std::pair<uint64_t, Status>> out;
  for (const auto& component : components_) {
    if (!component->quarantined()) continue;
    out.emplace_back(component->meta().component_id,
                     component->CheckReadable());
  }
  return out;
}

void Dataset::RecordBackgroundErrorLocked(const Status& st) {
  if (background_error_.ok()) background_error_ = st;
  if (last_background_error_.ok()) last_background_error_ = st;
}

// ------------------------------------------- scrub / backup / repair

Status Dataset::WriteManifestIfBehindLocked() {
  if (!manifest_dirty_ &&
      fault_counters_->quarantines.load(std::memory_order_acquire) ==
          quarantines_persisted_) {
    return Status::OK();
  }
  return WriteCurrentManifestLocked();
}

void Dataset::NoteScrub(uint64_t leaves, uint64_t bytes, uint64_t damaged,
                        uint64_t micros, bool pass_complete) {
  MutexLock lock(&mu_);
  stats_.scrub_leaves += leaves;
  stats_.scrub_bytes += bytes;
  stats_.scrub_damage_found += damaged;
  stats_.scrub_micros += micros;
  if (pass_complete) ++stats_.scrub_passes;
  if (damaged > 0) {
    // Best effort: the scrubber's whole point is that damage found today
    // is still known after a restart. A failed rewrite retries with the
    // next flush/scrub slice.
    Status ignored = WriteManifestIfBehindLocked();
    (void)ignored;
  }
}

Status Dataset::PinForBackup(DatasetBackupPin* pin) {
  MutexLock lock(&mu_);
  for (const auto& component : components_) {
    if (!component->quarantined()) continue;
    const Status reason = component->CheckReadable();
    return Status(reason.code(),
                  "dataset " + options_.name + " component " +
                      std::to_string(component->meta().component_id) +
                      " is quarantined; repair it before taking a backup"
                      " (" +
                      reason.message() + ")");
  }
  pin->name = options_.name;
  pin->dir = options_.dir;
  pin->snapshot = GetSnapshotLocked();
  pin->manifest = CurrentManifestLocked();
  pin->manifest.sequence = manifest_sequence_;
  return Status::OK();
}

Status Dataset::RepairQuarantined(const std::string& backup_dir) {
  LSMCOL_ASSIGN_OR_RETURN(BackupManifest catalog,
                          ReadBackupManifest(backup_dir, options_.fs));
  struct Victim {
    uint64_t id;
    std::string path;
  };
  std::vector<Victim> victims;
  {
    MutexLock lock(&mu_);
    if (repairing_) {
      return Status::InvalidArgument("dataset " + options_.name +
                                     " already has a repair in progress");
    }
    for (const auto& component : components_) {
      if (component->quarantined()) {
        victims.push_back(
            {component->meta().component_id, component->path()});
      }
    }
    if (victims.empty()) return Status::OK();
    repairing_ = true;
  }

  Status first_failure;
  size_t repaired = 0;
  for (const Victim& victim : victims) {
    Status one = [&]() -> Status {
      const BackupFileEntry* entry = nullptr;
      for (const auto& f : catalog.files) {
        if (f.kind == BackupFileKind::kComponent &&
            f.dataset == options_.name && f.id == victim.id) {
          entry = &f;
          break;
        }
      }
      if (entry == nullptr) {
        return Status::NotFound(
            "backup " + backup_dir + " holds no component " +
            std::to_string(victim.id) + " of dataset " + options_.name);
      }
      // Stage under `<path>.tmp`: a crash mid-repair leaves only a temp
      // file the next open's stale-file sweep removes.
      const std::string tmp = victim.path + ".tmp";
      LSMCOL_RETURN_NOT_OK(CopyFileVerified(backup_dir + "/" + entry->rel_path,
                                            tmp, entry->size, entry->checksum,
                                            options_.fs));
      {
        // Probe the staged copy end to end (identity + every leaf,
        // uncached) before it replaces anything. Salvage mode: a damaged
        // backup copy must fail the probe, not quarantine bookkeeping.
        auto probe =
            Component::OpenForSalvage(tmp, cache_, options_.page_size,
                                      options_.fs);
        Status st = probe.status();
        if (st.ok()) {
          if ((*probe)->meta().component_id != victim.id ||
              (*probe)->meta().layout != options_.layout) {
            st = Status::Corruption(
                "backup copy of component " + std::to_string(victim.id) +
                " carries the wrong identity");
          }
        }
        if (st.ok()) {
          Buffer payload;
          const size_t leaves = (*probe)->reader().leaves().size();
          for (size_t i = 0; st.ok() && i < leaves; ++i) {
            st = (*probe)->ReadLeaf(i, &payload);
          }
        }
        if (!st.ok()) {
          (void)RemoveFileIfExists(tmp, options_.fs);
          return st;
        }
      }
      // The damaged file is replaced in place; the old Component object
      // keeps its open handle to the dead inode and is dropped below
      // WITHOUT MarkObsolete (it shares the path with the repaired file —
      // its destructor must not unlink it).
      LSMCOL_RETURN_NOT_OK(RenameFile(tmp, victim.path, options_.fs));
      LSMCOL_ASSIGN_OR_RETURN(
          auto fresh, Component::Open(victim.path, cache_, options_.page_size,
                                      options_.fs, fault_counters_));
      std::shared_ptr<Component> replacement(std::move(fresh));
      MutexLock lock(&mu_);
      for (auto& component : components_) {
        if (component->meta().component_id == victim.id) {
          component = replacement;
          break;
        }
      }
      ++repaired;
      // Drop the damage record from the durable manifest in the same
      // breath — a crash right after the swap must not re-quarantine the
      // freshly repaired file.
      return WriteCurrentManifestLocked();
    }();
    if (!one.ok() && first_failure.ok()) first_failure = one;
  }

  {
    MutexLock lock(&mu_);
    repairing_ = false;
    if (repaired > 0) ScheduleMergeLocked();  // quarantine no longer blocks
    work_cv_.NotifyAll();
  }
  scheduler_->RunCallerTasks(this);
  return first_failure;
}

}  // namespace lsmcol
