#ifndef SMARTDD_BENCH_BENCH_UTIL_H_
#define SMARTDD_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/brs.h"
#include "core/scan_kernels.h"
#include "data/census_gen.h"
#include "data/marketing_gen.h"
#include "explore/sharded_engine.h"
#include "explore/session.h"
#include "sampling/sample_handler.h"
#include "storage/disk_table.h"

namespace smartdd::bench {

/// Reads an unsigned integer from the environment, with default.
uint64_t EnvU64(const char* name, uint64_t default_value);

/// Common command-line flags shared by every benchmark binary.
struct BenchFlags {
  /// --threads=N (or SMARTDD_THREADS): threads for search passes.
  /// 0 = all hardware threads.
  size_t threads = 0;
  /// --shards=N (or SMARTDD_SHARDS): row partitions for session benches
  /// that go through BenchSession. 1 = the classic unsharded engine.
  size_t shards = 1;
  /// --json=FILE (or SMARTDD_JSON): write every PrintSeriesRow record as
  /// machine-readable JSON to FILE at exit.
  std::string json_path;
  /// --kernel=auto|scalar|avx2 (or SMARTDD_KERNEL): scan-kernel path for
  /// search passes. Results are byte-identical on every path.
  KernelPref kernel = KernelPref::kAuto;
};
BenchFlags& Flags();

/// Parses --threads=N / --shards=N / --json=FILE (env fallbacks
/// SMARTDD_THREADS / SMARTDD_SHARDS / SMARTDD_JSON) into Flags(). Call
/// first thing in main(); unknown arguments are left alone. Registers the
/// JSON flush atexit.
void ParseFlags(int argc, char** argv);

/// Writes all recorded series rows to Flags().json_path (no-op when the
/// flag is unset). Called automatically at exit after ParseFlags.
void FlushJson();

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Minimal JSON escaping for string values.
std::string JsonEscape(const std::string& s);

/// Records a named scalar emitted once in the JSON output's "scalars"
/// object (last write wins) — used for dataset byte footprints and
/// pass/skip gates that are not series rows.
void RecordScalar(const std::string& name, double value);

/// Records a table's packed (resident) vs unpacked (4 B/code) column bytes
/// under "<name>_packed_bytes" / "<name>_unpacked_bytes".
void RecordTableBytes(const std::string& name, const Table& table);

/// The benchmark datasets, cached per process.
///
/// Marketing: 9409 x 7 columns (the paper restricts qualitative experiments
/// to the first 7 columns).
const Table& Marketing7();

/// Marketing, all 14 columns.
const Table& Marketing14();

/// Census-like table streamed to a DiskTable file. Row count defaults to
/// 500000; override with SMARTDD_CENSUS_ROWS (paper scale: 2458285).
struct CensusData {
  std::string path;
  std::shared_ptr<DiskTable> disk;
  std::unique_ptr<DiskScanSource> source;
};
const CensusData& Census();

/// Uniform experiment output: a header block naming the experiment plus the
/// paper's expectation, then aligned data rows.
void PrintExperimentHeader(const std::string& id, const std::string& title,
                           const std::string& paper_expectation);
void PrintSeriesRow(const std::string& series, double x, double y,
                    const std::string& x_name, const std::string& y_name);

/// One "expand the empty rule" interaction through the sampling stack, as
/// timed in the paper's Figures 5 and 8.
struct ExpansionMeasurement {
  double total_ms = 0;    ///< sample acquisition + BRS
  double sample_ms = 0;   ///< SampleHandler::GetSampleFor
  double brs_ms = 0;      ///< BRS on the sample
  double scale = 1.0;
  uint64_t sample_rows = 0;
  BrsResult result;       ///< masses are *sample* masses (multiply by scale)
};
ExpansionMeasurement MeasureExpandEmpty(const ScanSource& source,
                                        const WeightFunction& weight,
                                        double mw, uint64_t min_sample_size,
                                        uint64_t memory_capacity, size_t k,
                                        uint64_t seed);

/// A ShardedEngine plus one session on its front, honoring Flags().shards
/// and Flags().threads. Dies with a message on invalid options (benches
/// want loud failures, not Status plumbing).
struct BenchSession {
  std::unique_ptr<ShardedEngine> engine;
  ExplorationSession session;
};
BenchSession MakeBenchSession(const Table& table, const WeightFunction& weight,
                              SessionOptions options);

}  // namespace smartdd::bench

#endif  // SMARTDD_BENCH_BENCH_UTIL_H_
