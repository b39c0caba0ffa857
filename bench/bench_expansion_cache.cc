// Cold-vs-warm expansion latency through the cross-session expansion cache
// (src/cache/expansion_cache.h) on the census-at-scale workload.
//
// Two services over the same table: one with the cache disabled (every
// expand pays the full scan — the cold baseline) and one with the default
// cache (the first expand is the priming miss, every later identical expand
// from a fresh session is a warm hit). Reports p50/p95 for both, the
// warm-hit speedup, and the hit ratio of a zipf-repeat workload (session k
// drawn from a zipf over 16 distinct values, so popular cache keys repeat
// the way popular drill-downs do). Emits BENCH_expansion_cache.json.
//
// Gates (exit 1 on failure — CI runs this as the expansion-cache smoke):
//   * warm-hit responses are byte-identical to the cache-disabled cold runs
//   * warm-hit p50 is >= 10x faster than the cold p50
//
// Knobs: SMARTDD_CENSUS_ROWS (default 500000), SMARTDD_CENSUS_COLS (7),
//        SMARTDD_BENCH_K (3 greedy steps), SMARTDD_BENCH_REPS (5).

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "api/service.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "data/census_gen.h"
#include "weights/standard_weights.h"

namespace {

using namespace smartdd;

std::string TokenOf(const std::string& open_response) {
  size_t pos = open_response.find("\"session\":\"");
  SMARTDD_CHECK(pos != std::string::npos) << open_response;
  pos += 11;
  size_t end = open_response.find('"', pos);
  return open_response.substr(pos, end - pos);
}

/// One fresh-session interaction: open, timed expand of the root, close.
/// The expand response with the session token blanked is the byte-identity
/// fingerprint (tokens are per-session; everything else must match).
struct Interaction {
  double expand_ms = 0;
  std::string response;
};

Interaction RunOnce(api::ExplorationService& service, size_t k) {
  std::string open = service.ServeLine(
      "open dataset=census k=" + std::to_string(k));
  std::string token = TokenOf(open);
  WallTimer timer;
  std::string response = service.ServeLine("expand " + token + " 0");
  Interaction out;
  out.expand_ms = timer.ElapsedMillis();
  SMARTDD_CHECK(response.find("\"ok\":true") != std::string::npos) << response;
  service.ServeLine("close " + token);
  for (size_t pos = 0; (pos = response.find(token, pos)) != std::string::npos;)
    response.replace(pos, token.size(), "<T>");
  out.response = std::move(response);
  return out;
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
      "CACHE-1", "cross-session expansion cache, cold vs warm",
      "warm hits replay the memoized tree byte-identically at >= 10x the "
      "cold p50; zipf-repeat sessions mostly hit");
  std::fprintf(stderr, "[bench] generating census table (%llu x %zu)...\n",
               static_cast<unsigned long long>(spec.rows), spec.columns_used);
  Table table = GenerateCensusTable(spec);
  SizeWeight weight;

  api::ServiceOptions cold_options;
  cold_options.cache_max_bytes = 0;  // the cacheless baseline
  api::ExplorationService cold_service(cold_options);
  SMARTDD_CHECK(cold_service.AddShardedTable("census", table, weight).ok());

  api::ExplorationService warm_service{api::ServiceOptions()};
  SMARTDD_CHECK(warm_service.AddShardedTable("census", table, weight).ok());

  // Cold: every rep pays the full scan (cache disabled).
  std::vector<double> cold_ms;
  std::string cold_bytes;
  for (uint64_t rep = 0; rep < reps; ++rep) {
    Interaction run = RunOnce(cold_service, k);
    cold_ms.push_back(run.expand_ms);
    if (rep == 0) {
      cold_bytes = run.response;
    } else {
      SMARTDD_CHECK(run.response == cold_bytes)
          << "cold runs drifted between reps";
    }
  }

  // Warm: one priming miss, then every fresh session hits the cache.
  cache::ExpansionCache& cache = warm_service.expansion_cache();
  Interaction prime = RunOnce(warm_service, k);
  SMARTDD_CHECK(cache.misses() >= 1) << "priming expand did not miss";
  uint64_t hits_before = cache.hits();
  std::vector<double> warm_ms;
  bool byte_identical = prime.response == cold_bytes;
  for (uint64_t rep = 0; rep < reps; ++rep) {
    Interaction run = RunOnce(warm_service, k);
    warm_ms.push_back(run.expand_ms);
    byte_identical &= (run.response == cold_bytes);
  }
  uint64_t warm_hits = cache.hits() - hits_before;
  SMARTDD_CHECK(warm_hits == reps)
      << "expected " << reps << " warm hits, saw " << warm_hits;

  double cold_p50 = Percentile(cold_ms, 0.50);
  double cold_p95 = Percentile(cold_ms, 0.95);
  double warm_p50 = Percentile(warm_ms, 0.50);
  double warm_p95 = Percentile(warm_ms, 0.95);
  double speedup = warm_p50 > 0 ? cold_p50 / warm_p50 : 0;

  PrintSeriesRow("cold_expand_p50", static_cast<double>(spec.rows), cold_p50,
                 "rows", "ms");
  PrintSeriesRow("cold_expand_p95", static_cast<double>(spec.rows), cold_p95,
                 "rows", "ms");
  PrintSeriesRow("warm_expand_p50", static_cast<double>(spec.rows), warm_p50,
                 "rows", "ms");
  PrintSeriesRow("warm_expand_p95", static_cast<double>(spec.rows), warm_p95,
                 "rows", "ms");

  // Zipf-repeat workload: 64 fresh sessions whose k is drawn zipf(s=1.0)
  // over 16 distinct values — 16 distinct cache keys, popularity-skewed the
  // way real drill-down entry points are. Deterministic seed; the hit ratio
  // is reported, not gated (it depends only on the draw, not the host).
  constexpr size_t kZipfKeys = 16;
  constexpr size_t kZipfRequests = 64;
  std::vector<double> zipf_weights;
  for (size_t r = 1; r <= kZipfKeys; ++r) zipf_weights.push_back(1.0 / r);
  std::mt19937 rng(42);
  std::discrete_distribution<size_t> draw(zipf_weights.begin(),
                                          zipf_weights.end());
  uint64_t zipf_hits_before = cache.hits();
  uint64_t zipf_misses_before = cache.misses();
  for (size_t i = 0; i < kZipfRequests; ++i) {
    RunOnce(warm_service, 2 + draw(rng));
  }
  uint64_t zipf_hits = cache.hits() - zipf_hits_before;
  uint64_t zipf_misses = cache.misses() - zipf_misses_before;
  double zipf_hit_ratio =
      static_cast<double>(zipf_hits) / static_cast<double>(kZipfRequests);
  PrintSeriesRow("zipf_hit_ratio", static_cast<double>(kZipfRequests),
                 zipf_hit_ratio, "requests", "ratio");

  std::printf("warm hits byte-identical to cold runs: %s\n",
              byte_identical ? "yes" : "NO (BUG)");
  std::printf("warm-hit speedup: %.1fx (cold p50 %.3f ms, warm p50 %.3f ms)\n",
              speedup, cold_p50, warm_p50);
  std::printf("zipf(16 keys, 64 requests) hit ratio: %.2f (%llu hits, %llu "
              "misses)\n",
              zipf_hit_ratio, static_cast<unsigned long long>(zipf_hits),
              static_cast<unsigned long long>(zipf_misses));
  const bool speedup_ok = speedup >= 10.0;
  std::printf("byte-identity gate: %s\n",
              byte_identical ? "pass" : "FAIL (warm bytes diverged)");
  std::printf("speedup gate: %s\n",
              speedup_ok ? "pass (>=10x warm hits)" : "FAIL (<10x warm hits)");

  std::string path = Flags().json_path.empty() ? "BENCH_expansion_cache.json"
                                               : Flags().json_path;
  std::FILE* f = std::fopen(path.c_str(), "w");
  SMARTDD_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f,
               "{\n  \"workload\": \"census\",\n  \"rows\": %llu,\n"
               "  \"columns\": %zu,\n  \"k\": %zu,\n  \"reps\": %llu,\n"
               "  \"cold_p50_ms\": %.3f,\n  \"cold_p95_ms\": %.3f,\n"
               "  \"warm_p50_ms\": %.3f,\n  \"warm_p95_ms\": %.3f,\n"
               "  \"warm_speedup\": %.3f,\n  \"byte_identical\": %s,\n"
               "  \"zipf_keys\": %zu,\n  \"zipf_requests\": %zu,\n"
               "  \"zipf_hit_ratio\": %.4f,\n"
               "  \"cache_entries\": %zu,\n  \"cache_bytes\": %zu\n}\n",
               static_cast<unsigned long long>(spec.rows), spec.columns_used,
               k, static_cast<unsigned long long>(reps), cold_p50, cold_p95,
               warm_p50, warm_p95, speedup, byte_identical ? "true" : "false",
               kZipfKeys, kZipfRequests, zipf_hit_ratio, cache.entries(),
               cache.bytes());
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());

  Flags().json_path.clear();
  return (byte_identical && speedup_ok) ? 0 : 1;
}
