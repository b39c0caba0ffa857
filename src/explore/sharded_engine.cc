#include "explore/sharded_engine.h"

#include <utility>

namespace smartdd {

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    const Table& table, const WeightFunction& weight,
    ShardedEngineOptions options) {
  std::unique_ptr<ShardedEngine> engine(new ShardedEngine());
  engine->plan_ = ShardPlan::Make(table.num_rows(), options.num_shards);
  // One shard is the table itself; only a real partition pays for slices.
  std::vector<const Table*> parts = {&table};
  if (engine->plan_.num_shards() > 1) {
    engine->shard_tables_.reserve(engine->plan_.num_shards());
    parts.clear();
    for (const ShardRange& r : engine->plan_.ranges()) {
      engine->shard_tables_.push_back(table.SliceRows(r.begin, r.end));
      parts.push_back(&engine->shard_tables_.back());
    }
  }
  // The front engine serves sessions over the full table (prototype,
  // validation, root mass) and drills its exact expansions over the parts.
  SMARTDD_ASSIGN_OR_RETURN(
      engine->front_, ExplorationEngine::Create(table, std::move(parts), weight,
                                                std::move(options.engine)));
  return engine;
}

}  // namespace smartdd
