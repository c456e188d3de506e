#include "src/lsm/options.h"

namespace lsmcol {
namespace {

Status Bad(const char* field, const std::string& why) {
  return Status::InvalidArgument("DatasetOptions." + std::string(field) +
                                 " " + why);
}

}  // namespace

const char* CompactionStrategyName(CompactionStrategy strategy) {
  switch (strategy) {
    case CompactionStrategy::kTiered:
      return "tiered";
    case CompactionStrategy::kLazyLeveling:
      return "lazy-leveling";
  }
  return "unknown";
}

Status ValidateDatasetOptions(const DatasetOptions& options) {
  if (options.dir.empty()) return Bad("dir", "must be non-empty");
  if (options.name.empty()) return Bad("name", "must be non-empty");
  if (options.name.find('/') != std::string::npos) {
    return Bad("name", "must not contain '/': " + options.name);
  }
  if (options.name == "." || options.name == "..") {
    return Bad("name", "must not be a relative path component: " +
                           options.name);
  }
  if (options.pk_field.empty()) return Bad("pk_field", "must be non-empty");
  if (options.page_size < kMinPageSize) {
    return Bad("page_size", "must be at least " +
                                std::to_string(kMinPageSize) + " bytes, got " +
                                std::to_string(options.page_size));
  }
  if (options.memtable_bytes == 0) {
    return Bad("memtable_bytes", "must be positive");
  }
  if (!(options.size_ratio > 1.0)) {
    return Bad("size_ratio", "must be > 1, got " +
                                 std::to_string(options.size_ratio));
  }
  if (options.max_components < 2) {
    return Bad("max_components", "must be >= 2, got " +
                                     std::to_string(options.max_components));
  }
  if (options.compaction != CompactionStrategy::kTiered &&
      options.compaction != CompactionStrategy::kLazyLeveling) {
    return Bad("compaction",
               "must be kTiered or kLazyLeveling, got " +
                   std::to_string(static_cast<int>(options.compaction)));
  }
  if (options.max_immutable_memtables < 1) {
    return Bad("max_immutable_memtables", "must be >= 1, got " +
                   std::to_string(options.max_immutable_memtables));
  }
  if (!(options.apax_fill_fraction > 0.0) ||
      options.apax_fill_fraction > 1.0) {
    return Bad("apax_fill_fraction", "must be in (0, 1]");
  }
  if (options.amax_max_records == 0) {
    return Bad("amax_max_records", "must be positive");
  }
  if (!(options.amax_empty_page_tolerance >= 0.0) ||
      options.amax_empty_page_tolerance > 1.0) {
    return Bad("amax_empty_page_tolerance", "must be in [0, 1]");
  }
  if (options.io_retry.max_retries < 0) {
    return Bad("io_retry.max_retries", "must be >= 0, got " +
                   std::to_string(options.io_retry.max_retries));
  }
  if (options.io_retry.max_retries > 0 &&
      options.io_retry.initial_backoff_micros >
          options.io_retry.max_backoff_micros) {
    return Bad("io_retry.initial_backoff_micros",
               "must not exceed io_retry.max_backoff_micros");
  }
  return Status::OK();
}

}  // namespace lsmcol
