// Front-door service benchmark: N concurrent scripted clients drive the
// full wire path — codec parse, session registry, engine, snapshot
// rendering, JSON encode — against one ExplorationService. Each client
// loops: open a session, expand the root, drill into one child, close.
// Reports sessions/sec (open-to-close, the service's unit of work), p50/p95
// per-expand latency *through the registry*, and the codec overhead per
// request versus calling the engine directly. The service path should add
// only microseconds over the embedding layer: the registry is two mutex
// hops and the codec is one string parse + one JSON render.
//
// Env knobs: SMARTDD_SVC_ROWS (default 150000), SMARTDD_SVC_SESSIONS
// (sessions per client thread, default 8).
//
// Usage: bench_service_throughput [--threads=N] [--json=FILE]

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/codec.h"
#include "api/service.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "data/synth.h"
#include "explore/engine.h"
#include "explore/session.h"
#include "weights/standard_weights.h"

namespace {

using namespace smartdd;
using namespace smartdd::bench;

/// Expansion cache off: every expand runs the engine, so the script's
/// repeated clicks are priced cold instead of as cache hits.
api::ServiceOptions ColdServiceOptions() {
  api::ServiceOptions options;
  options.cache_max_bytes = 0;
  return options;
}

uint64_t TokenOf(const std::string& response_line) {
  size_t at = response_line.find("\"session\":\"");
  SMARTDD_CHECK(at != std::string::npos) << response_line;
  auto token = api::ParseToken(response_line.substr(at + 11, 16));
  SMARTDD_CHECK(token.ok()) << response_line;
  return *token;
}

/// One open -> expand -> expand -> close round trip through the wire
/// protocol; appends per-expand latencies.
void RunClientSession(api::ExplorationService& service, size_t variant,
                      std::vector<double>* expand_latencies_ms) {
  std::string open = service.ServeLine("open k=3");
  SMARTDD_CHECK(open.find("\"ok\":true") != std::string::npos) << open;
  std::string tok = api::FormatToken(TokenOf(open));

  WallTimer t;
  std::string first = service.ServeLine("expand " + tok + " 0");
  expand_latencies_ms->push_back(t.ElapsedMillis());
  SMARTDD_CHECK(first.find("\"ok\":true") != std::string::npos) << first;

  // Drill into one of the root's children, rotating by variant.
  int child = 1 + static_cast<int>(variant % 3);
  t.Restart();
  std::string second =
      service.ServeLine("expand " + tok + " " + std::to_string(child));
  expand_latencies_ms->push_back(t.ElapsedMillis());
  SMARTDD_CHECK(second.find("\"ok\":true") != std::string::npos) << second;

  SMARTDD_CHECK(
      service.ServeLine("close " + tok).find("\"ok\":true") !=
      std::string::npos);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[idx];
}

}  // namespace

int main(int argc, char** argv) {
  ParseFlags(argc, argv);

  const uint64_t rows = EnvU64("SMARTDD_SVC_ROWS", 150000);
  const uint64_t sessions_per_client = EnvU64("SMARTDD_SVC_SESSIONS", 8);

  SynthSpec spec;
  spec.rows = rows;
  spec.cardinalities = {12, 8, 6, 5, 4, 3};
  spec.zipf = {1.1, 0.8, 1.2, 0.6, 1.0, 0.4};
  spec.seed = 2024;
  Table table = GenerateSyntheticTable(spec);
  SizeWeight weight;

  PrintExperimentHeader(
      "service_throughput",
      "Front-door service: codec + registry + engine under client load",
      "sessions/sec rises with concurrent clients; the registry/codec adds "
      "negligible latency over direct engine calls");
  std::printf("rows=%llu, sessions/client=%llu, hw threads=%u\n\n",
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(sessions_per_client),
              std::thread::hardware_concurrency());

  // Codec/registry overhead probe: the same single-session script direct
  // vs through the service, serially.
  {
    EngineOptions engine_options;
    engine_options.num_threads = Flags().threads;
    ExplorationEngine engine(table, weight, engine_options);
    WallTimer direct_t;
    for (uint64_t i = 0; i < sessions_per_client; ++i) {
      SessionOptions options;
      options.k = 3;
      ExplorationSession session = *engine.NewSession(options);
      SMARTDD_CHECK(session.Expand(0).ok());
      SMARTDD_CHECK(session.Expand(1 + static_cast<int>(i % 3)).ok());
    }
    const double direct_ms = direct_t.ElapsedMillis();

    api::ExplorationService service(ColdServiceOptions());
    SMARTDD_CHECK(service.AddEngine("bench", &engine).ok());
    std::vector<double> lat;
    WallTimer service_t;
    for (uint64_t i = 0; i < sessions_per_client; ++i) {
      RunClientSession(service, i, &lat);
    }
    const double service_ms = service_t.ElapsedMillis();
    PrintSeriesRow("codec_overhead_ms_per_session", 1,
                   (service_ms - direct_ms) /
                       static_cast<double>(sessions_per_client),
                   "clients", "service-minus-direct ms/session");
  }

  for (size_t clients : {size_t{1}, size_t{4}, size_t{16}}) {
    EngineOptions engine_options;
    engine_options.num_threads = Flags().threads;
    ExplorationEngine engine(table, weight, engine_options);
    api::ExplorationService service(ColdServiceOptions());
    SMARTDD_CHECK(service.AddEngine("bench", &engine).ok());

    std::vector<std::vector<double>> latencies(clients);
    WallTimer wall;
    {
      std::vector<std::thread> threads;
      for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c]() {
          for (uint64_t i = 0; i < sessions_per_client; ++i) {
            RunClientSession(service, c + i, &latencies[c]);
          }
        });
      }
      for (auto& t : threads) t.join();
    }
    const double wall_s = wall.ElapsedSeconds();
    SMARTDD_CHECK(service.num_sessions() == 0)
        << "sessions leaked past close";
    SMARTDD_CHECK(engine.num_sessions() == 0);

    std::vector<double> all;
    for (const auto& lane : latencies) {
      all.insert(all.end(), lane.begin(), lane.end());
    }
    const double total_sessions =
        static_cast<double>(clients * sessions_per_client);
    PrintSeriesRow("sessions_per_sec", static_cast<double>(clients),
                   wall_s > 0 ? total_sessions / wall_s : 0, "clients",
                   "sessions/s (open..close)");
    PrintSeriesRow("p50_expand_ms", static_cast<double>(clients),
                   Percentile(all, 0.50), "clients",
                   "p50 expand latency (ms)");
    PrintSeriesRow("p95_expand_ms", static_cast<double>(clients),
                   Percentile(all, 0.95), "clients",
                   "p95 expand latency (ms)");
    std::printf("\n");
  }

  std::printf("service throughput bench done\n");
  return 0;
}
