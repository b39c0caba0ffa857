#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"

namespace smartdd::bench {

namespace {

struct SeriesRecord {
  std::string series;
  double x = 0;
  double y = 0;
  std::string x_name;
  std::string y_name;
};

std::vector<SeriesRecord>& JsonRecords() {
  static std::vector<SeriesRecord>* records = new std::vector<SeriesRecord>();
  return *records;
}

std::vector<std::pair<std::string, double>>& ScalarRecords() {
  static auto* records = new std::vector<std::pair<std::string, double>>();
  return *records;
}

}  // namespace

BenchFlags& Flags() {
  static BenchFlags* flags = new BenchFlags();
  return *flags;
}

void ParseFlags(int argc, char** argv) {
  BenchFlags& flags = Flags();
  flags.threads = static_cast<size_t>(EnvU64("SMARTDD_THREADS", 0));
  flags.shards = static_cast<size_t>(EnvU64("SMARTDD_SHARDS", 1));
  const char* json_env = std::getenv("SMARTDD_JSON");
  if (json_env != nullptr && *json_env != '\0') flags.json_path = json_env;
  // SMARTDD_KERNEL also steers kAuto resolution inside the library; parsing
  // it here as well makes the flag and the env var behave identically.
  flags.kernel = KernelPrefFromEnv();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      flags.threads = static_cast<size_t>(std::strtoull(arg + 10, nullptr, 10));
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      flags.shards = static_cast<size_t>(std::strtoull(arg + 9, nullptr, 10));
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      flags.json_path = arg + 7;
    } else if (std::strncmp(arg, "--kernel=", 9) == 0) {
      auto pref = ParseKernelPref(arg + 9);
      SMARTDD_CHECK(pref.ok()) << pref.status().ToString();
      flags.kernel = *pref;
    }
  }
  std::fprintf(stderr, "[bench] scan kernels: %s (requested %s)\n",
               KernelPathName(ResolveKernelPath(flags.kernel)),
               KernelPrefName(flags.kernel));
  static bool registered = false;
  if (!registered) {
    registered = true;
    std::atexit(FlushJson);
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * (values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

void RecordScalar(const std::string& name, double value) {
  for (auto& [n, v] : ScalarRecords()) {
    if (n == name) {
      v = value;
      return;
    }
  }
  ScalarRecords().emplace_back(name, value);
}

void RecordTableBytes(const std::string& name, const Table& table) {
  RecordScalar(name + "_packed_bytes",
               static_cast<double>(table.resident_column_bytes()));
  RecordScalar(name + "_unpacked_bytes",
               static_cast<double>(table.unpacked_column_bytes()));
}

void FlushJson() {
  const std::string& path = Flags().json_path;
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot open %s for JSON output\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"threads\": %zu,\n  \"kernel\": \"%s\",\n",
               Flags().threads,
               KernelPathName(ResolveKernelPath(Flags().kernel)));
  const auto& scalars = ScalarRecords();
  std::fprintf(f, "  \"scalars\": {");
  for (size_t i = 0; i < scalars.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %.10g", i ? "," : "",
                 JsonEscape(scalars[i].first).c_str(), scalars[i].second);
  }
  std::fprintf(f, "%s},\n", scalars.empty() ? "" : "\n  ");
  std::fprintf(f, "  \"rows\": [\n");
  const auto& records = JsonRecords();
  for (size_t i = 0; i < records.size(); ++i) {
    const SeriesRecord& r = records[i];
    std::fprintf(f,
                 "    {\"series\": \"%s\", \"%s\": %.10g, "
                 "\"%s\": %.10g}%s\n",
                 JsonEscape(r.series).c_str(), JsonEscape(r.x_name).c_str(),
                 r.x, JsonEscape(r.y_name).c_str(), r.y,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %zu JSON rows to %s\n", records.size(),
               path.c_str());
}

uint64_t EnvU64(const char* name, uint64_t default_value) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return default_value;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value) return default_value;
  return static_cast<uint64_t>(parsed);
}

const Table& Marketing7() {
  static const Table* table = [] {
    MarketingSpec spec;
    spec.columns = 7;
    return new Table(GenerateMarketingTable(spec));
  }();
  return *table;
}

const Table& Marketing14() {
  static const Table* table = [] {
    return new Table(GenerateMarketingTable({}));
  }();
  return *table;
}

const CensusData& Census() {
  static const CensusData* data = [] {
    auto* d = new CensusData();
    CensusSpec spec;
    spec.rows = EnvU64("SMARTDD_CENSUS_ROWS", 500000);
    // The paper (§5): "Unless otherwise specified, in all our experiments,
    // we restrict the tables to the first 7 columns". Override with
    // SMARTDD_CENSUS_COLS=68 for the full-width (much heavier) variant.
    spec.columns_used = EnvU64("SMARTDD_CENSUS_COLS", 7);
    const char* tmp = std::getenv("TMPDIR");
    d->path = std::string(tmp ? tmp : "/tmp") + "/smartdd_census_bench.sddt";
    std::fprintf(stderr,
                 "[bench] generating census disk table (%llu rows x %zu "
                 "cols) at %s\n",
                 static_cast<unsigned long long>(spec.rows),
                 spec.columns_used, d->path.c_str());
    Status s = GenerateCensusDiskTable(spec, d->path);
    SMARTDD_CHECK(s.ok()) << s.ToString();
    auto dt = DiskTable::Open(d->path);
    SMARTDD_CHECK(dt.ok()) << dt.status().ToString();
    d->disk = *dt;
    d->source = std::make_unique<DiskScanSource>(d->disk);
    return d;
  }();
  return *data;
}

void PrintExperimentHeader(const std::string& id, const std::string& title,
                           const std::string& paper_expectation) {
  std::printf("\n=============================================================\n");
  std::printf("EXPERIMENT %s — %s\n", id.c_str(), title.c_str());
  std::printf("paper expectation: %s\n", paper_expectation.c_str());
  std::printf("=============================================================\n");
  std::fflush(stdout);
}

void PrintSeriesRow(const std::string& series, double x, double y,
                    const std::string& x_name, const std::string& y_name) {
  std::printf("series=%-28s %s=%-10.4g %s=%.6g\n", series.c_str(),
              x_name.c_str(), x, y_name.c_str(), y);
  std::fflush(stdout);
  if (!Flags().json_path.empty()) {
    JsonRecords().push_back(SeriesRecord{series, x, y, x_name, y_name});
  }
}

ExpansionMeasurement MeasureExpandEmpty(const ScanSource& source,
                                        const WeightFunction& weight,
                                        double mw, uint64_t min_sample_size,
                                        uint64_t memory_capacity, size_t k,
                                        uint64_t seed) {
  ExpansionMeasurement m;
  SampleHandlerOptions options;
  options.memory_capacity = memory_capacity;
  options.min_sample_size = min_sample_size;
  // The paper's SampleHandler returns samples of exactly minSS tuples; a
  // bare Create here must not round up to a fraction of M, or the minSS
  // sweeps of Figure 8 would all see the same sample.
  options.create_capacity_fraction = 0;
  options.seed = seed;
  SampleHandler handler(source, options);

  WallTimer total;
  WallTimer phase;
  auto sample = handler.GetSampleFor(Rule::Trivial(source.schema().num_columns()));
  SMARTDD_CHECK(sample.ok()) << sample.status().ToString();
  m.sample_ms = phase.ElapsedMillis();
  m.scale = sample->scale;
  m.sample_rows = sample->table.num_rows();

  TableView view(sample->table);
  BrsOptions brs;
  brs.k = k;
  brs.max_weight = mw;
  brs.num_threads = Flags().threads;
  brs.kernel = Flags().kernel;
  phase.Restart();
  auto result = RunBrs(view, weight, brs);
  SMARTDD_CHECK(result.ok()) << result.status().ToString();
  m.brs_ms = phase.ElapsedMillis();
  m.total_ms = total.ElapsedMillis();
  m.result = std::move(result).value();
  return m;
}

BenchSession MakeBenchSession(const Table& table, const WeightFunction& weight,
                              SessionOptions options) {
  ShardedEngineOptions engine_options;
  engine_options.num_shards = Flags().shards;
  engine_options.engine.num_threads = options.num_threads;
  engine_options.engine.kernel = Flags().kernel;
  if (options.kernel == KernelPref::kAuto) options.kernel = Flags().kernel;
  RecordTableBytes("session_table", table);
  auto engine = ShardedEngine::Create(table, weight, engine_options);
  SMARTDD_CHECK(engine.ok()) << engine.status().ToString();
  auto session = (*engine)->front().NewSession(std::move(options));
  SMARTDD_CHECK(session.ok()) << session.status().ToString();
  return BenchSession{std::move(engine).value(), std::move(session).value()};
}

}  // namespace smartdd::bench
