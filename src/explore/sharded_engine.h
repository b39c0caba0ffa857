#ifndef SMARTDD_EXPLORE_SHARDED_ENGINE_H_
#define SMARTDD_EXPLORE_SHARDED_ENGINE_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "explore/engine.h"
#include "storage/scan_source.h"
#include "storage/shard_plan.h"
#include "storage/table.h"
#include "weights/weight_function.h"

namespace smartdd {

/// Configuration of a sharded engine.
struct ShardedEngineOptions {
  /// Row partitions the dataset is split into (clamped to >= 1). Results
  /// are byte-identical for every value; the knob trades per-shard scan
  /// parallelism against per-shard working-set size.
  size_t num_shards = 1;
  /// Forwarded to the front ExplorationEngine (sampler, thread defaults,
  /// scheduler workers).
  EngineOptions engine;
};

/// N row-partitioned shards behind one engine: the dataset is split by a
/// ShardPlan into contiguous row slices (shared dictionaries), and every
/// drill-down is a scatter-gather over the shards — scattered as one
/// concatenated row space into the deterministic lane/chunk grids, gathered
/// by the same shape-driven merge order as the unsharded search. Sessions,
/// the wire protocol, deadlines, and fault injection ride through the
/// embedded front ExplorationEngine unchanged; expansion trees are
/// byte-identical to a single-shard serial engine for every
/// num_shards x num_threads combination.
///
/// In-memory mode hands the front engine the shard slices as its row
/// parts (ExplorationEngine::RunDrillDown / ExactMasses scatter-gather over
/// them); a one-shard plan's part is the borrowed table itself, so nothing
/// is copied. Scan-source mode slices the source into RangeScanSources
/// recombined by a ShardedScanSource — same rows, same order — so the
/// sampling subsystem (sub-reservoir stitch, ExactMasses chunk merges) is
/// byte-identical by construction.
///
/// Like ExplorationEngine, the sharded engine is pinned in memory and
/// borrows its table/source and weight; destroy all sessions before it.
class ShardedEngine {
 public:
  /// In-memory mode: `table` and `weight` must outlive the engine.
  static Result<std::unique_ptr<ShardedEngine>> Create(
      const Table& table, const WeightFunction& weight,
      ShardedEngineOptions options = {});

  /// Scan-source mode: `source` and `weight` must outlive the engine.
  static Result<std::unique_ptr<ShardedEngine>> Create(
      const ScanSource& source, const WeightFunction& weight,
      ShardedEngineOptions options = {});

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// The front engine sessions are created from (NewSession etc.).
  ExplorationEngine& front() const { return *front_; }

  size_t num_shards() const { return plan_.num_shards(); }
  const ShardPlan& plan() const { return plan_; }

 private:
  ShardedEngine() = default;

  ShardPlan plan_;
  /// In-memory mode with more than one shard: one row slice per shard,
  /// sharing the original table's dictionaries (the front engine's parts).
  std::vector<Table> shard_tables_;
  /// Scan-source mode: per-shard row-range slices and their concatenation
  /// (the front engine's source).
  std::vector<std::unique_ptr<RangeScanSource>> shard_sources_;
  std::unique_ptr<ShardedScanSource> sharded_source_;
  std::unique_ptr<ExplorationEngine> front_;
};

}  // namespace smartdd

#endif  // SMARTDD_EXPLORE_SHARDED_ENGINE_H_
