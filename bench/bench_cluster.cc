// Cluster-path benchmark: the same client script driven through the
// in-process WireService seam and through the full cluster stack —
// router -> SDRP RPC over loopback -> shard-server -> engine — fronted by
// two backend replicas. Each client loops: open, expand the root, drill
// into one child, close. Reports requests/sec and p50/p95 per-expand
// latency for both deployments, plus an RPC overhead probe (ping through a
// raw rpc::Channel versus the in-process seam) that isolates what the
// framing + socket hop costs per call: it should be tens of microseconds,
// dwarfed by any real expansion.
//
// Responses are asserted byte-identical between the two paths as a side
// effect (same table, same token seed, first open lands on backend 0), so
// the bench doubles as a cheap cluster-correctness smoke.
//
// Env knobs: SMARTDD_CLUSTER_ROWS (default 150000),
// SMARTDD_CLUSTER_SESSIONS (sessions per client thread, default 8).
//
// Usage: bench_cluster [--threads=N] [--json=FILE]

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/codec.h"
#include "api/service.h"
#include "api/wire_service.h"
#include "bench/bench_util.h"
#include "cluster/router.h"
#include "cluster/shard_server.h"
#include "common/logging.h"
#include "common/timer.h"
#include "data/synth.h"
#include "explore/engine.h"
#include "rpc/channel.h"
#include "weights/standard_weights.h"

namespace {

using namespace smartdd;
using namespace smartdd::bench;

std::string TokenOf(const std::string& json) {
  size_t at = json.find("\"session\":\"");
  SMARTDD_CHECK(at != std::string::npos) << json;
  return json.substr(at + 11, 16);
}

/// One open -> expand -> expand -> close round trip against any
/// WireService; appends the two expand latencies.
void RunClientSession(api::WireService& wire, size_t variant,
                      std::vector<double>* expand_latencies_ms) {
  api::WireResponse open = wire.ServeWire("open k=3");
  SMARTDD_CHECK(open.status.ok()) << open.json;
  std::string token = TokenOf(open.json);

  WallTimer t;
  api::WireResponse first = wire.ServeWire("expand " + token + " 0");
  expand_latencies_ms->push_back(t.ElapsedMillis());
  SMARTDD_CHECK(first.status.ok()) << first.json;

  int child = 1 + static_cast<int>(variant % 3);
  t.Restart();
  api::WireResponse second =
      wire.ServeWire("expand " + token + " " + std::to_string(child));
  expand_latencies_ms->push_back(t.ElapsedMillis());
  SMARTDD_CHECK(second.status.ok()) << second.json;

  SMARTDD_CHECK(wire.ServeWire("close " + token).status.ok());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[idx];
}

/// A full backend stack (the shard-server example's innards) on an
/// ephemeral loopback port.
struct Backend {
  Backend(const Table& table, const WeightFunction& weight,
          uint64_t token_seed)
      : engine(*ExplorationEngine::Create(table, weight)) {
    api::ServiceOptions options;
    options.token_seed = token_seed;
    options.cache_max_bytes = 0;  // every expand runs the engine
    service = std::make_unique<api::ExplorationService>(options);
    SMARTDD_CHECK(service->AddEngine("bench", engine.get()).ok());
    wire = std::make_unique<api::LocalWireService>(service.get());
    server = std::make_unique<cluster::ShardServer>(wire.get());
    SMARTDD_CHECK(server->Start().ok());
  }

  std::unique_ptr<ExplorationEngine> engine;
  std::unique_ptr<api::ExplorationService> service;
  std::unique_ptr<api::LocalWireService> wire;
  std::unique_ptr<cluster::ShardServer> server;
};

/// Runs the client loop at each concurrency level and prints/records the
/// series rows under `prefix`.
void MeasureDeployment(api::WireService& wire, const std::string& prefix,
                       uint64_t sessions_per_client) {
  for (size_t clients : {size_t{1}, size_t{4}, size_t{8}}) {
    std::vector<std::vector<double>> latencies(clients);
    WallTimer t;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c]() {
        for (uint64_t i = 0; i < sessions_per_client; ++i) {
          RunClientSession(wire, c * 31 + i, &latencies[c]);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    const double elapsed_s = t.ElapsedMillis() / 1000.0;

    std::vector<double> all;
    for (auto& per_client : latencies) {
      all.insert(all.end(), per_client.begin(), per_client.end());
    }
    // 4 requests per session (open/expand/expand/close).
    const double requests = static_cast<double>(
        4 * clients * sessions_per_client);
    PrintSeriesRow(prefix + "_rps", static_cast<double>(clients),
                   requests / elapsed_s, "clients", "requests/sec");
    PrintSeriesRow(prefix + "_expand_p50_ms", static_cast<double>(clients),
                   Percentile(all, 0.50), "clients", "p50 expand ms");
    PrintSeriesRow(prefix + "_expand_p95_ms", static_cast<double>(clients),
                   Percentile(all, 0.95), "clients", "p95 expand ms");
  }
}

}  // namespace

int main(int argc, char** argv) {
  ParseFlags(argc, argv);

  const uint64_t rows = EnvU64("SMARTDD_CLUSTER_ROWS", 150000);
  const uint64_t sessions_per_client = EnvU64("SMARTDD_CLUSTER_SESSIONS", 8);
  constexpr uint64_t kSeed = 0xC1B5A;

  SynthSpec spec;
  spec.rows = rows;
  spec.cardinalities = {12, 8, 6, 5, 4, 3};
  spec.zipf = {1.1, 0.8, 1.2, 0.6, 1.0, 0.4};
  spec.seed = 2024;
  Table table = GenerateSyntheticTable(spec);
  SizeWeight weight;

  PrintExperimentHeader(
      "cluster",
      "Router -> RPC -> shard-server versus the in-process seam",
      "the cluster hop adds a near-constant per-request cost (framing + "
      "loopback TCP), so throughput and tail latency track the in-process "
      "deployment for engine-bound work");
  std::printf("rows=%llu, sessions/client=%llu, hw threads=%u\n\n",
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(sessions_per_client),
              std::thread::hardware_concurrency());

  // In-process deployment.
  ExplorationEngine local_engine(table, weight);
  api::ServiceOptions local_options;
  local_options.token_seed = kSeed;
  local_options.cache_max_bytes = 0;
  api::ExplorationService local_service(local_options);
  SMARTDD_CHECK(local_service.AddEngine("bench", &local_engine).ok());
  api::LocalWireService local(&local_service);

  // Cluster deployment: two backend replicas behind a router.
  Backend backend_a(table, weight, kSeed);
  Backend backend_b(table, weight, kSeed + 1);
  cluster::Router router(
      {{"127.0.0.1", backend_a.server->port()},
       {"127.0.0.1", backend_b.server->port()}});
  SMARTDD_CHECK(router.Start().ok());

  // Correctness side-effect: identical request lines answer byte-identical
  // envelopes across deployments (first cluster open lands on backend 0,
  // which shares the in-process token seed).
  {
    api::WireResponse local_open = local.ServeWire("open k=3");
    api::WireResponse cluster_open = router.ServeWire("open k=3");
    SMARTDD_CHECK(local_open.json == cluster_open.json)
        << "cluster deployment diverged on open";
    std::string token = TokenOf(local_open.json);
    SMARTDD_CHECK(local.ServeWire("expand " + token + " 0").json ==
                  router.ServeWire("expand " + token + " 0").json)
        << "cluster deployment diverged on expand";
    SMARTDD_CHECK(local.ServeWire("close " + token).json ==
                  router.ServeWire("close " + token).json);
  }

  // RPC overhead probe: ping through a raw channel vs the in-process seam.
  {
    constexpr int kPings = 2000;
    rpc::ChannelOptions copts;
    copts.port = backend_a.server->port();
    rpc::Channel channel(copts);
    SMARTDD_CHECK(channel.Connect().ok());
    WallTimer warm;
    for (int i = 0; i < kPings; ++i) {
      SMARTDD_CHECK(channel.Call("ping").ok());
    }
    const double rpc_us = warm.ElapsedMillis() * 1000.0 / kPings;
    WallTimer local_t;
    for (int i = 0; i < kPings; ++i) {
      SMARTDD_CHECK(local.ServeWire("ping").status.ok());
    }
    const double local_us = local_t.ElapsedMillis() * 1000.0 / kPings;
    PrintSeriesRow("rpc_overhead_us_per_call", 1, rpc_us - local_us,
                   "probe", "RPC-minus-inprocess us/call");
  }

  MeasureDeployment(local, "inprocess", sessions_per_client);
  MeasureDeployment(router, "cluster", sessions_per_client);

  router.Shutdown();
  return 0;
}
