// Replays: re-running one benchmark operation's work through the public
// functions of each layer, on the operation's own snapshot and
// projection, so the traced run can time every layer separately. A
// replay never touches the store's shared cache: reads go through a
// fresh, private BufferCache (the "cache cleared" case), writes into a
// scratch file that is deleted afterwards.
//
// Spans recorded (all under the current span, see trace.h):
//   read path   storage.leaf_read  storage.checksum  encoding.lz_decompress
//               layouts.leaf_open  columnar.decode   columnar.assemble
//   write path  schema.infer  columnar.shred (with layouts.emit_leaf
//               children)  storage.component_finish  encoding.lz_compress
//
// Replays cover on-disk components only; memtable sources are reported
// by the lsm spans of the operation itself.

#ifndef LSMCOL_BENCH_E2E_REPLAY_H_
#define LSMCOL_BENCH_E2E_REPLAY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench/e2e/trace.h"
#include "src/json/value.h"
#include "src/lsm/options.h"
#include "src/lsm/snapshot.h"
#include "src/schema/schema.h"

namespace lsmcol::e2e {

/// Read-path replay over every columnar component of `snapshot`: each
/// leaf (only the leaf that may hold `key`, when given) is read cold,
/// checksummed, decompressed, opened, batch-decoded for the projected
/// columns, and its records assembled (only the record at `key`, when
/// given). `*entries_decoded` receives the column entries decoded.
Status ReplayRead(Tracer* tracer, const Snapshot& snapshot,
                  const Projection& projection, std::optional<int64_t> key,
                  uint64_t* entries_decoded);

/// Write-path replay of one flush: `docs` (sorted by primary key) are
/// merged into `schema` (the replay's own copy of the inferred schema,
/// growing across flushes like the dataset's), shredded with the
/// dataset's leaf-cut rule into a scratch component at `scratch_path`,
/// finished, and the leaf payloads it wrote are LZ-compressed again.
/// `*leaves` receives the number of leaves the replay cut.
Status ReplayFlush(Tracer* tracer, const std::vector<const Value*>& docs,
                   const DatasetOptions& options, Schema* schema,
                   const std::string& scratch_path, size_t* leaves);

}  // namespace lsmcol::e2e

#endif  // LSMCOL_BENCH_E2E_REPLAY_H_
