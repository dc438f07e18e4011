#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// Per-layer host time of a traced run, measured by replaying the run's
// recorded inputs through each layer's public functions after the run:
// the timed phase's key stream through BTree::Get/Put and
// BufferPool::Touch on the run's own tables and pools, its writes
// through Binlog::Append, and its migration chunk count and size
// through the codec (LzCompress, Crc32c and the chunk encoder). Every
// result folds into `checksum`, so no call can be optimised away.

#include <cstdint>
#include <string>

#include "scenarios.h"

namespace perfbench {

struct LayerReplay {
  uint64_t reads = 0;
  uint64_t updates = 0;
  double btree_get_ns = 0.0;
  double btree_put_ns = 0.0;
  double bp_touch_ns = 0.0;
  /// Estimated storage time of the timed phase (Get + Put + Touch).
  double storage_s = 0.0;
  double wal_append_ns = 0.0;
  double wal_s = 0.0;
  uint64_t binlog_bytes = 0;
  double lz_mib_per_s = 0.0;
  double crc_mib_per_s = 0.0;
  /// Estimated codec time: per-chunk encode/verify cost times the
  /// run's chunk counts.
  double codec_s = 0.0;
  uint64_t checksum = 0;
  /// Non-empty when a replay ran implausibly fast (more than one
  /// operation per nanosecond): the work was optimised away.
  std::string implausible;
};

/// Replays `run`'s recorded inputs. Call after WorkloadRun::Finish():
/// the Put replay writes into the run's tables.
LayerReplay ReplayLayers(WorkloadRun* run, SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
