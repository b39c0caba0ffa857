#ifndef SMARTDD_STORAGE_SHARD_PLAN_H_
#define SMARTDD_STORAGE_SHARD_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace smartdd {

/// One shard's contiguous row range [begin, end) of a table.
struct ShardRange {
  uint64_t begin = 0;
  uint64_t end = 0;

  uint64_t num_rows() const { return end - begin; }
  bool operator==(const ShardRange&) const = default;
};

/// The row partitioner behind the sharded engine: splits [0, num_rows) into
/// `num_shards` contiguous, non-overlapping ranges that cover every row.
///
/// Contract (asserted by tests):
///  - Make(n, s) is a pure function of its two inputs — never of the
///    machine, the thread count, or any runtime state — so every replica
///    of a deployment computes the same partitioning.
///  - The ranges are contiguous in shard order: shard i ends where shard
///    i+1 begins, shard 0 begins at 0, the last shard ends at n.
///  - Balanced to within one scan granule: interior boundaries are aligned
///    down to ScanSource::PlanChunks' 4096-row granule (when n is large
///    enough for that).
///
/// Shard boundaries do NOT have to align with the lane/chunk grids of the
/// deterministic fold (see core/best_marginal.cc): the sharded search walks
/// the shards as one concatenated row space, so its merge order is a pure
/// function of the global shape regardless of where the cuts fall. The
/// alignment here is an I/O nicety, not a correctness requirement.
class ShardPlan {
 public:
  /// An empty plan (no shards). Rebuild with Make before use.
  ShardPlan() = default;

  /// Splits `num_rows` rows into `num_shards` ranges. `num_shards` is
  /// clamped to at least 1; shards beyond the row count come out empty
  /// (their begin == end), never dropped — shard identities are stable.
  static ShardPlan Make(uint64_t num_rows, size_t num_shards);

  size_t num_shards() const { return ranges_.size(); }
  uint64_t num_rows() const { return num_rows_; }
  const ShardRange& shard(size_t i) const { return ranges_[i]; }
  const std::vector<ShardRange>& ranges() const { return ranges_; }

  /// Index of the shard owning global row `row` (row < num_rows()).
  size_t ShardOf(uint64_t row) const;

 private:
  uint64_t num_rows_ = 0;
  std::vector<ShardRange> ranges_;
};

}  // namespace smartdd

#endif  // SMARTDD_STORAGE_SHARD_PLAN_H_
