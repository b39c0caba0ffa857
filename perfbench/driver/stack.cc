#include "stack.h"

#include <filesystem>

#include "storage/csv.h"
#include "weights/standard_weights.h"

namespace perfbench {

using namespace smartdd;

const WeightFunction& Weight() {
  static const SizeWeight weight;
  return weight;
}

api::ServiceOptions ServiceOptionsFor(const std::string& workload) {
  api::ServiceOptions options;
  options.token_seed = 0x5eed;
  if (workload == "cold-drill") options.cache_max_bytes = 0;
  // The WAL sits in the checkout, whose device flush cost varies run to
  // run by an order of magnitude; records still reach the file on every
  // append (write(2)), they are just not fsynced.
  if (workload == "live-append") options.live_fsync_every_records = 0;
  return options;
}

EngineOptions SampledEngineOptions() {
  EngineOptions options;
  options.use_sampling = true;
  options.num_threads = 1;
  options.sampler.num_threads = 1;
  return options;
}

void PrepareWal(const Options& o) {
  if (o.workload != "live-append") return;
  std::filesystem::copy_file(
      WalSeedPath(o), LiveWalPath(o),
      std::filesystem::copy_options::overwrite_existing);
}

Result<std::unique_ptr<Stack>> StandUp(const Options& o) {
  auto stack = std::make_unique<Stack>();
  SMARTDD_ASSIGN_OR_RETURN(Table loaded, ReadCsvFile(BaseCsvPath(o)));
  stack->service =
      std::make_unique<api::ExplorationService>(ServiceOptionsFor(o.workload));
  if (o.workload == "live-append") {
    SMARTDD_RETURN_IF_ERROR(stack->service->AddLiveTable(
        "data", std::move(loaded), Weight(), LiveWalPath(o)));
    return stack;
  }
  stack->table = std::make_unique<Table>(std::move(loaded));
  if (o.workload == "sampled-drill") {
    stack->source = std::make_unique<MemoryScanSource>(*stack->table);
    SMARTDD_ASSIGN_OR_RETURN(
        stack->engine, ExplorationEngine::Create(*stack->source, Weight(),
                                                 SampledEngineOptions()));
    SMARTDD_RETURN_IF_ERROR(
        stack->service->AddEngine("data", stack->engine.get()));
    return stack;
  }
  SMARTDD_RETURN_IF_ERROR(
      stack->service->AddShardedTable("data", *stack->table, Weight(), 1));
  return stack;
}

int ResolveSessionPath(const ExplorationSession& session,
                       const std::vector<int>& path) {
  int node = session.root();
  for (int pos : path) {
    const auto& kids = session.node(node).children;
    if (pos >= static_cast<int>(kids.size())) return -1;
    node = kids[pos];
  }
  return node;
}

}  // namespace perfbench
