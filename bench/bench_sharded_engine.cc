// Scatter-gather drill-down through the ShardedEngine at 1/2/4 shards
// (plus --shards=N if given) on the census-at-scale workload.
//
// Each configuration runs sessions with num_threads=1 per shard, so the
// shard count is the only parallelism knob: the engine fans the request
// out as num_shards worker threads over the concatenated row space.
// Reports p50/p95 expand latency and pass-1 scan throughput per shard
// count, verifies the expansion trees are byte-identical across all of
// them, and emits machine-readable results to BENCH_sharded_engine.json.
//
// Knobs: SMARTDD_CENSUS_ROWS (default 500000), SMARTDD_CENSUS_COLS (7),
//        SMARTDD_BENCH_K (3 greedy steps), SMARTDD_BENCH_REPS (5).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "data/census_gen.h"
#include "explore/sharded_engine.h"
#include "explore/session.h"
#include "weights/standard_weights.h"

namespace {

using namespace smartdd;

struct Measurement {
  size_t shards = 1;
  double p50_ms = 0;
  double p95_ms = 0;
  /// Pass-1 scan throughput: tuple visits per second across the counting
  /// passes of one expand, best-of over the reps.
  double mtuples_per_sec = 0;
  std::string fingerprint;
};

std::string Fingerprint(const DrillDownResponse& response) {
  std::string out;
  char buf[64];
  for (const ScoredRule& sr : response.rules) {
    for (size_t c = 0; c < sr.rule.num_columns(); ++c) {
      if (sr.rule.is_star(c)) {
        out += "*,";
      } else {
        std::snprintf(buf, sizeof(buf), "%u,", sr.rule.value(c));
        out += buf;
      }
    }
    uint64_t mass_bits = 0;
    std::memcpy(&mass_bits, &sr.mass, sizeof(mass_bits));
    std::snprintf(buf, sizeof(buf), "m%llx;",
                  static_cast<unsigned long long>(mass_bits));
    out += buf;
  }
  return out;
}

Measurement RunOnce(const Table& table, const WeightFunction& weight, size_t k,
                    size_t shards, uint64_t reps) {
  ShardedEngineOptions options;
  options.num_shards = shards;
  auto engine = ShardedEngine::Create(table, weight, options);
  SMARTDD_CHECK(engine.ok()) << engine.status().ToString();

  DrillDownRequest request;
  request.base = Rule::Trivial(table.num_columns());
  request.k = k;
  request.max_weight = 3;
  request.num_threads = 1;  // per shard: the engine scales by num_shards

  Measurement m;
  m.shards = shards;
  std::vector<double> latencies;
  latencies.reserve(reps);
  for (uint64_t rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    auto response = (*engine)->front().RunDrillDown(request, std::nullopt);
    double ms = timer.ElapsedMillis();
    SMARTDD_CHECK(response.ok()) << response.status().ToString();
    latencies.push_back(ms);
    double mtps = static_cast<double>(response->stats.tuple_visits) /
                  (ms * 1e-3) / 1e6;
    m.mtuples_per_sec = std::max(m.mtuples_per_sec, mtps);
    m.fingerprint = Fingerprint(*response);
  }
  m.p50_ms = bench::Percentile(latencies, 0.50);
  m.p95_ms = bench::Percentile(latencies, 0.95);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace smartdd::bench;
  ParseFlags(argc, argv);

  CensusSpec spec;
  spec.rows = EnvU64("SMARTDD_CENSUS_ROWS", 500000);
  spec.columns_used = EnvU64("SMARTDD_CENSUS_COLS", 7);
  const size_t k = EnvU64("SMARTDD_BENCH_K", 3);
  const uint64_t reps = EnvU64("SMARTDD_BENCH_REPS", 5);

  PrintExperimentHeader(
      "SHARD-1", "scatter-gather drill-down through the sharded engine",
      "pass-1 scan throughput scales with the shard count (>= 1.5x at 4 "
      "shards with one thread per shard); byte-identical expansion trees "
      "at every shard count");
  std::fprintf(stderr, "[bench] generating census table (%llu x %zu)...\n",
               static_cast<unsigned long long>(spec.rows), spec.columns_used);
  Table table = GenerateCensusTable(spec);
  SizeWeight weight;

  std::vector<size_t> shard_counts = {1, 2, 4};
  if (Flags().shards != 0 &&
      std::find(shard_counts.begin(), shard_counts.end(), Flags().shards) ==
          shard_counts.end()) {
    shard_counts.push_back(Flags().shards);
  }

  std::vector<Measurement> runs;
  for (size_t shards : shard_counts) {
    runs.push_back(RunOnce(table, weight, k, shards, reps));
    const Measurement& m = runs.back();
    PrintSeriesRow("expand_p50", static_cast<double>(shards), m.p50_ms,
                   "shards", "ms");
    PrintSeriesRow("expand_p95", static_cast<double>(shards), m.p95_ms,
                   "shards", "ms");
    PrintSeriesRow("scan_mtuples_per_sec", static_cast<double>(shards),
                   m.mtuples_per_sec, "shards", "Mt/s");
  }

  const Measurement& single = runs.front();
  bool identical = true;
  for (const Measurement& m : runs) {
    identical &= (m.fingerprint == single.fingerprint);
  }
  double speedup_at_4 = 0;
  for (const Measurement& m : runs) {
    if (m.shards == 4) speedup_at_4 = m.mtuples_per_sec / single.mtuples_per_sec;
  }
  std::printf("identical results across shard counts: %s\n",
              identical ? "yes" : "NO (BUG)");
  std::printf("pass-1 scan throughput at 4 shards: %.2fx of 1 shard\n",
              speedup_at_4);
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("hardware threads available: %u\n", hw_threads);
  // The >=1.5x scaling gate only applies on a multi-core host: with one
  // hardware thread the four per-shard workers time-slice a single core.
  const char* gate = hw_threads < 2        ? "skipped (single-core host)"
                     : speedup_at_4 >= 1.5 ? "pass (>=1.5x at 4 shards)"
                                           : "FAIL (<1.5x at 4 shards)";
  std::printf("scaling gate: %s\n", gate);

  std::string path = Flags().json_path.empty() ? "BENCH_sharded_engine.json"
                                               : Flags().json_path;
  std::FILE* f = std::fopen(path.c_str(), "w");
  SMARTDD_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f,
               "{\n  \"workload\": \"census\",\n  \"rows\": %llu,\n"
               "  \"columns\": %zu,\n  \"k\": %zu,\n  \"reps\": %llu,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"identical_results\": %s,\n"
               "  \"scan_speedup_at_4_shards\": %.3f,\n"
               "  \"scaling_gate\": \"%s\",\n  \"runs\": [\n",
               static_cast<unsigned long long>(spec.rows), spec.columns_used,
               k, static_cast<unsigned long long>(reps), hw_threads,
               identical ? "true" : "false", speedup_at_4, gate);
  for (size_t i = 0; i < runs.size(); ++i) {
    const Measurement& m = runs[i];
    std::fprintf(f,
                 "    {\"shards\": %zu, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
                 "\"scan_mtuples_per_sec\": %.3f}%s\n",
                 m.shards, m.p50_ms, m.p95_ms, m.mtuples_per_sec,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());

  // Clear the flag so the generic atexit JSON sink does not overwrite the
  // structured report we just wrote.
  Flags().json_path.clear();
  return identical ? 0 : 1;
}
