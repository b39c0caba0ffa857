// perfbench_driver: measures one workload of the smart drill-down
// benchmark. run.py invokes it twice per run, in separate processes so the
// measured process's peak RSS holds no generator state:
//
//   perfbench_driver gen --workload W --seed S --dir D
//   perfbench_driver run --workload W --seed S --seconds X --trace 0|1
//                        --dir D --out RESULT.json
//
// `run` writes the raw record (set-up times, spans, counters, correctness
// gates) to RESULT.json and the per-request latencies to RESULT.json.ops;
// run.py computes the metrics.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/logging.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Options* o) {
  if (argc < 2) return false;
  o->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o->seconds = std::stod(value);
    } else if (flag == "--trace") {
      o->trace = value == "1";
    } else if (flag == "--dir") {
      o->dir = value;
    } else if (flag == "--out") {
      o->out = value;
    } else {
      return false;
    }
  }
  return (o->mode == "gen" || o->mode == "run") && !o->workload.empty() &&
         !o->dir.empty() && (o->mode == "gen" || !o->out.empty());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver gen|run --workload W --seed S "
                 "[--seconds X --trace 0|1 --out FILE] --dir D\n");
    return 2;
  }
  smartdd::SetLogLevel(smartdd::LogLevel::kWarning);
  if (o.mode == "gen") {
    smartdd::Status s = perfbench::Generate(o);
    if (!s.ok()) std::fprintf(stderr, "gen: %s\n", s.ToString().c_str());
    return s.ok() ? 0 : 1;
  }
  perfbench::Record record;
  perfbench::FillContext(o, &record);
  smartdd::Status s = record.OpenOps(o.out + ".ops");
  if (s.ok()) s = o.trace ? perfbench::RunTraced(o, &record)
                              : perfbench::RunWorkload(o, &record);
  if (!s.ok()) {
    std::fprintf(stderr, "run: %s\n", s.ToString().c_str());
    return 1;
  }
  s = record.Write(o.out);
  if (!s.ok()) {
    std::fprintf(stderr, "run: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}
