#ifndef CEPJOIN_PARALLEL_SHARD_CHECKPOINT_H_
#define CEPJOIN_PARALLEL_SHARD_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cepjoin {

/// One engine's serialized state, tagged with its owning query and
/// partition. The blob is a complete EngineStateWriter::Finish() payload
/// (durable/snapshot_codec.h), self-contained so restore can route it to
/// whichever shard owns the partition under the NEW thread count.
struct PartitionSnapshot {
  uint64_t query = 0;
  uint32_t partition = 0;
  std::string engine_state;
};

/// Everything a ShardedRuntime needs to resume mid-stream: every live
/// engine's state plus each worker's held, undelivered sink entries —
/// none when serials increase, since capture first delivers everything
/// the quiesced shards' watermark has passed. Sink blobs are kept per
/// capture-time shard (their internal entries carry emit serials and
/// partitions); restore redistributes the entries by the new shard map,
/// and the canonical (emit_serial, partition) delivery order makes the
/// result independent of either thread count.
struct ShardedCheckpoint {
  std::vector<PartitionSnapshot> partitions;
  std::vector<std::string> sink_blobs;
};

}  // namespace cepjoin

#endif  // CEPJOIN_PARALLEL_SHARD_CHECKPOINT_H_
