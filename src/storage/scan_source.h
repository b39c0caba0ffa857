#ifndef SMARTDD_STORAGE_SCAN_SOURCE_H_
#define SMARTDD_STORAGE_SCAN_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/status.h"
#include "storage/table.h"

namespace smartdd {

/// Callback invoked once per tuple during a sequential pass.
/// `codes` has one entry per categorical column; `measures` has one entry per
/// measure column (nullptr when the source has none). Return false to stop
/// the scan early.
using ScanCallback = std::function<bool(uint64_t row_id, const uint32_t* codes,
                                        const double* measures)>;

/// Callback for chunked passes: like ScanCallback plus the index of the
/// chunk the tuple belongs to, so callers can index per-chunk accumulators
/// without sharing state between chunks. Returning false stops only the
/// current chunk.
using ChunkedScanCallback =
    std::function<bool(uint64_t chunk, uint64_t row_id, const uint32_t* codes,
                       const double* measures)>;

/// A table that can only be read by full sequential passes — the abstraction
/// the SampleHandler is written against. The paper's setting is a table too
/// large for memory where every Create costs a disk pass; implementations
/// here are an in-memory table (tests, small data) and a file-backed
/// DiskTable (large data).
class ScanSource {
 public:
  virtual ~ScanSource() = default;

  virtual const Schema& schema() const = 0;
  virtual uint64_t num_rows() const = 0;
  virtual size_t num_measures() const = 0;

  /// Sequential pass over the row range [row_begin, row_end). Implementations
  /// must allow concurrent ScanRange calls on disjoint ranges from different
  /// threads (each call carries its own buffers/file handles). A range pass
  /// does not count towards scan_count(); only whole-table passes do.
  virtual Status ScanRange(uint64_t row_begin, uint64_t row_end,
                           const ScanCallback& fn) const = 0;

  /// Performs one sequential pass over all tuples.
  Status Scan(const ScanCallback& fn) const;

  /// One partitioned pass over all tuples: splits [0, num_rows) into
  /// `num_chunks` contiguous ranges and scans them on the shared thread pool
  /// with up to `parallelism` concurrent lanes (1 runs fully inline).
  ///
  /// Determinism contract: chunk boundaries depend only on num_rows and
  /// num_chunks — never on `parallelism` or the machine — and `fn` receives
  /// the chunk index, so callers that keep per-chunk accumulators and merge
  /// them in chunk order afterwards get bit-identical results for every
  /// thread count. `fn` must be safe to call concurrently for *different*
  /// chunk indices; within a chunk, tuples arrive in row order on one
  /// thread. Counts as a single pass in scan_count().
  Status ScanChunks(uint64_t num_chunks, size_t parallelism,
                    const ChunkedScanCallback& fn) const;

  /// Deterministic chunk-count policy for partitioned passes: a pure
  /// function of the row count (roughly one chunk per 4096 rows, capped at
  /// 64), so chunked results are reproducible across machines and thread
  /// counts.
  static uint64_t PlanChunks(uint64_t num_rows);

  /// Creates an empty in-memory Table sharing this source's dictionaries
  /// (codes emitted by Scan are valid codes in the returned table).
  virtual Table MakeEmptyTable() const = 0;

  /// Number of completed whole-table passes — Scan() or ScanChunks() calls —
  /// for tests/benchmarks asserting how often the "disk" was touched. Safe
  /// to read while a background pass is in flight (e.g. the §4.3
  /// prefetcher): increments are atomic.
  uint64_t scan_count() const {
    return scan_count_.load(std::memory_order_relaxed);
  }

 protected:
  mutable std::atomic<uint64_t> scan_count_{0};
};

/// ScanSource over an in-memory Table.
class MemoryScanSource : public ScanSource {
 public:
  /// Does not take ownership; `table` must outlive the source.
  explicit MemoryScanSource(const Table& table) : table_(&table) {}

  const Schema& schema() const override { return table_->schema(); }
  uint64_t num_rows() const override { return table_->num_rows(); }
  size_t num_measures() const override { return table_->num_measures(); }
  Status ScanRange(uint64_t row_begin, uint64_t row_end,
                   const ScanCallback& fn) const override;
  Table MakeEmptyTable() const override { return Table::EmptyLike(*table_); }

  const Table& table() const { return *table_; }

 private:
  const Table* table_;
};

}  // namespace smartdd

#endif  // SMARTDD_STORAGE_SCAN_SOURCE_H_
