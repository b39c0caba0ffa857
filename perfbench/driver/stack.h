// The program under test, stood up the way each workload deploys it.

#ifndef PERFBENCH_DRIVER_STACK_H_
#define PERFBENCH_DRIVER_STACK_H_

#include <memory>
#include <string>

#include "api/service.h"
#include "bench.h"
#include "explore/engine.h"
#include "explore/session.h"
#include "storage/scan_source.h"
#include "storage/table.h"
#include "weights/weight_function.h"

namespace perfbench {

/// Every session opens on one scan thread with prefetch off.
inline const std::string kOpenLine =
    "open dataset=data k=3 threads=1 prefetch=off";

const smartdd::WeightFunction& Weight();

/// Members are declared in dependency order so destruction runs service,
/// engine, source, table.
struct Stack {
  std::unique_ptr<smartdd::Table> table;  ///< null for live (moved in)
  std::unique_ptr<smartdd::MemoryScanSource> source;
  std::unique_ptr<smartdd::ExplorationEngine> engine;  ///< sampled-drill
  std::unique_ptr<smartdd::api::ExplorationService> service;
};

smartdd::api::ServiceOptions ServiceOptionsFor(const std::string& workload);

/// Engine options of the sampled-drill engine: the paper's dynamic sampling
/// scheme with the default M and minSS, on one scan thread.
smartdd::EngineOptions SampledEngineOptions();

/// ReadCsvFile of the generated table through registration: the span
/// setup_s times. For live-append this includes the WAL replay.
smartdd::Result<std::unique_ptr<Stack>> StandUp(const Options& o);

/// Restores the live-append WAL to the generated pre-phase log (untimed),
/// so every set-up replays the same records. No-op for other workloads.
void PrepareWal(const Options& o);

/// Resolves a click path against an engine-direct session's tree.
int ResolveSessionPath(const smartdd::ExplorationSession& session,
                       const std::vector<int>& path);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_STACK_H_
