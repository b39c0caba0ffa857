#include "explore/engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "explore/session.h"
#include "rules/rule_ops.h"
#include "storage/table_view.h"

namespace smartdd {

namespace {

/// Logs the scan-kernel path this engine's sessions will run with (their
/// kAuto defers to EngineOptions::kernel, which kAuto-resolves through
/// SMARTDD_KERNEL and CPU detection). One line per engine, at creation, so
/// an operator can confirm from the log which path a deployment took.
void LogKernelPath(KernelPref pref) {
  SMARTDD_LOG(Info) << "scan kernels: "
                    << KernelPathName(ResolveKernelPath(pref))
                    << " (requested " << KernelPrefName(pref) << ")";
}

Status ValidateEngineOptions(const EngineOptions& options, bool in_memory) {
  if (options.scheduler_workers == 0) {
    return Status::InvalidArgument(
        "scheduler_workers must be >= 1: with no scheduler workers, "
        "background prefetch tasks would queue forever");
  }
  if (in_memory && options.use_sampling) {
    return Status::InvalidArgument(
        "sampling mode requires a ScanSource engine; in-memory tables are "
        "drilled exactly");
  }
  if (options.use_sampling &&
      options.sampler.memory_capacity < options.sampler.min_sample_size) {
    return Status::InvalidArgument(StrFormat(
        "sampler memory_capacity (%llu) is below min_sample_size (%llu); "
        "no sample could ever be created",
        static_cast<unsigned long long>(options.sampler.memory_capacity),
        static_cast<unsigned long long>(options.sampler.min_sample_size)));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<ExplorationEngine>> ExplorationEngine::Create(
    const Table& table, const WeightFunction& weight, EngineOptions options) {
  return Create(table, {&table}, weight, std::move(options));
}

Result<std::unique_ptr<ExplorationEngine>> ExplorationEngine::Create(
    const Table& table, std::vector<const Table*> parts,
    const WeightFunction& weight, EngineOptions options) {
  SMARTDD_RETURN_IF_ERROR(ValidateEngineOptions(options, /*in_memory=*/true));
  return std::unique_ptr<ExplorationEngine>(new ExplorationEngine(
      table, std::move(parts), weight, std::move(options)));
}

Result<std::unique_ptr<ExplorationEngine>> ExplorationEngine::Create(
    const ScanSource& source, const WeightFunction& weight,
    EngineOptions options) {
  SMARTDD_RETURN_IF_ERROR(ValidateEngineOptions(options, /*in_memory=*/false));
  return std::unique_ptr<ExplorationEngine>(
      new ExplorationEngine(source, weight, std::move(options)));
}

ExplorationEngine::ExplorationEngine(const Table& table,
                                     const WeightFunction& weight,
                                     EngineOptions options)
    : ExplorationEngine(table, {&table}, weight, std::move(options)) {}

ExplorationEngine::ExplorationEngine(const Table& table,
                                     std::vector<const Table*> parts,
                                     const WeightFunction& weight,
                                     EngineOptions options)
    : weight_(&weight),
      options_(std::move(options)),
      table_(&table),
      parts_(std::move(parts)),
      prototype_(Table::EmptyLike(table)),
      scheduler_(std::make_unique<TaskScheduler>(
          std::max<size_t>(1, options_.scheduler_workers))) {
  SMARTDD_CHECK(!options_.use_sampling)
      << "sampling mode requires the ScanSource constructor";
  SMARTDD_CHECK(!parts_.empty()) << "an in-memory engine needs a part";
  LogKernelPath(options_.kernel);
  // Per-part observability, labeled by the part's position in row order.
  MetricsRegistry& registry = MetricsRegistry::Default();
  part_scan_passes_.reserve(parts_.size());
  for (size_t s = 0; s < parts_.size(); ++s) {
    const std::string label = StrFormat("{shard=\"%zu\"}", s);
    registry
        .GetGauge("smartdd_shard_rows" + label,
                  "Rows owned by each shard of the sharded engine")
        .Set(static_cast<int64_t>(parts_[s]->num_rows()));
    registry
        .GetGauge("smartdd_table_bytes" + label,
                  "Resident bytes of each shard slice's packed column "
                  "storage")
        .Set(static_cast<int64_t>(parts_[s]->resident_column_bytes()));
    part_scan_passes_.push_back(&registry.GetCounter(
        "smartdd_shard_scan_passes_total" + label,
        "Counting-pass scans executed against each shard's rows"));
  }
  merge_latency_ = &registry.GetHistogram(
      "smartdd_sharded_merge_latency_seconds",
      "Wall time of the scatter-gather merge stages (folding per-lane and "
      "per-block partials in deterministic order) per sharded drill-down",
      Histogram::LatencySeconds());
}

ExplorationEngine::ExplorationEngine(const ScanSource& source,
                                     const WeightFunction& weight,
                                     EngineOptions options)
    : weight_(&weight),
      options_(std::move(options)),
      source_(&source),
      prototype_(source.MakeEmptyTable()),
      scheduler_(std::make_unique<TaskScheduler>(
          std::max<size_t>(1, options_.scheduler_workers))) {
  if (options_.use_sampling) {
    // The sampler's scan passes share the engine's thread knob unless it
    // was configured separately.
    if (options_.sampler.num_threads == 0) {
      options_.sampler.num_threads = options_.num_threads;
    }
    sampler_ = std::make_unique<SampleHandler>(source, options_.sampler);
  }
  LogKernelPath(options_.kernel);
}

Result<DrillDownResponse> ExplorationEngine::RunDrillDown(
    DrillDownRequest request, std::optional<size_t> measure) const {
  SMARTDD_CHECK(table_ != nullptr) << "exact drill-down requires a table";
  // Fan the session's per-part thread knob out across the parts: N parts
  // at k threads each search with N*k lanes (0 stays 0 = all hardware).
  if (request.num_threads != 0) request.num_threads *= parts_.size();

  std::vector<TableView> views;
  views.reserve(parts_.size());  // view_ptrs point into it
  std::vector<const TableView*> view_ptrs;
  for (const Table* part : parts_) {
    views.emplace_back(*part);
    if (measure) views.back().SelectMeasure(*measure);
    view_ptrs.push_back(&views.back());
  }

  SMARTDD_ASSIGN_OR_RETURN(
      DrillDownResponse response,
      SmartDrillDownSharded(view_ptrs, *weight_, request));

  // Observability: every counting pass scanned every part's rows once;
  // the gather/merge wall time is the scatter-gather overhead.
  for (Counter* c : part_scan_passes_) c->Inc(response.stats.passes);
  merge_latency_->Observe(response.stats.merge_seconds);
  return response;
}

std::vector<double> ExplorationEngine::ExactMasses(
    const std::vector<Rule>& rules, std::optional<size_t> measure) const {
  SMARTDD_CHECK(table_ != nullptr) << "ExactMasses requires a table";
  std::vector<double> masses(rules.size(), 0.0);
  // Each rule's accumulator advances sequentially across the parts in row
  // order — the same addition sequence as one pass over the whole table,
  // so the floats are byte-identical for every part count.
  for (const Table* part : parts_) {
    TableView view(*part);
    if (measure) view.SelectMeasure(*measure);
    const uint64_t n = view.num_rows();
    for (size_t i = 0; i < rules.size(); ++i) {
      double acc = masses[i];
      for (uint64_t row = 0; row < n; ++row) {
        if (RuleCoversRow(rules[i], view, row)) acc += view.mass(row);
      }
      masses[i] = acc;
    }
  }
  for (Counter* c : part_scan_passes_) c->Inc(1);
  return masses;
}

ExplorationEngine::~ExplorationEngine() {
  SMARTDD_CHECK(live_sessions_.load(std::memory_order_relaxed) == 0)
      << "sessions must not outlive their engine";
}

Status ExplorationEngine::ValidateSessionOptions(
    const SessionOptions& options) const {
  if (options.k == 0) {
    return Status::InvalidArgument(
        "k must be >= 1: each drill-down reveals k rules");
  }
  if (std::isnan(options.max_weight) || options.max_weight <= 0) {
    return Status::InvalidArgument(
        "max_weight must be positive (infinity derives the cap from the "
        "weight function)");
  }
  if (options.measure_column) {
    auto measure = prototype_.FindMeasure(*options.measure_column);
    if (!measure.ok()) {
      return Status::InvalidArgument(StrFormat(
          "measure_column '%s' does not name a measure column of the source",
          options.measure_column->c_str()));
    }
  }
  if (options.prefetch != SessionOptions::PrefetchMode::kDisabled &&
      sampler_ == nullptr) {
    return Status::InvalidArgument(
        "prefetch requires a sampling engine (EngineOptions::use_sampling); "
        "exact drill-downs have nothing to pre-fetch");
  }
  return Status::OK();
}

Result<ExplorationSession> ExplorationEngine::NewSession(
    SessionOptions options) {
  SMARTDD_RETURN_IF_ERROR(ValidateSessionOptions(options));
  return ExplorationSession(this, std::move(options));
}

Result<ExplorationSession> ExplorationEngine::NewSession() {
  return NewSession(SessionOptions{});
}

uint64_t ExplorationEngine::RegisterSession() {
  live_sessions_.fetch_add(1, std::memory_order_relaxed);
  return scheduler_->CreateQueue();
}

void ExplorationEngine::UnregisterSession(uint64_t id) {
  // Join any in-flight background work first; then the queue and the
  // handler's per-session tree can go.
  (void)scheduler_->Drain(id);
  if (sampler_ != nullptr) sampler_->DropSession(id);
  scheduler_->DestroyQueue(id);
  live_sessions_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace smartdd
