// Shared pieces of the drill-down benchmark driver: command-line options,
// the seeded click scripts, the raw result record the driver hands to
// run.py, and small helpers for reading codec responses.
//
// The driver measures; run.py turns the raw record into metrics. Keeping
// the statistics in Python keeps them unit-testable without a build.

#ifndef PERFBENCH_DRIVER_BENCH_H_
#define PERFBENCH_DRIVER_BENCH_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

using smartdd::Status;

struct Options {
  std::string mode;      ///< "gen" (write inputs) or "run" (measure)
  std::string workload;  ///< cold-drill | live-append | sampled-drill
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;  ///< work directory for generated inputs (in the checkout)
  std::string out;  ///< raw result file
};

/// Fixed workload shapes. Every number here is part of the benchmark
/// definition; changing one is a benchmark change, not a program change.
inline constexpr size_t kColumns = 7;
inline constexpr size_t kK = 3;
inline constexpr uint64_t kBaseRows = 200000;     ///< census 200k x 7
inline constexpr uint64_t kSampledRows = 1000000;  ///< census 1M x 7
inline constexpr uint64_t kWalPrefillRows = 1024;  ///< replayed in set-up
inline constexpr uint64_t kAppendStreamRows = 60000;
inline constexpr uint64_t kSnapshotEveryRows = 256;  ///< service default
inline constexpr uint64_t kPublishesPerReader = 2;
inline constexpr size_t kPinnedReaders = 3;
/// Windows of the drill-script workloads run at least this many whole
/// cycles of the 7 star columns, and at least this many rule expands, so
/// the reported p90 always has >= 10 samples beyond it.
inline constexpr size_t kMinCycles = 3;
inline constexpr size_t kMinRuleExpands = 100;

double NowSeconds();

/// One click of a session script. `path` names the clicked node by child
/// positions from the root (empty = the root), the way a user clicks the
/// i-th displayed rule; it is resolved to a node id against the live tree.
struct Click {
  enum Kind { kRoot, kStar, kRule };
  Kind kind = kRoot;
  std::vector<int> path;
  size_t column = 0;  ///< star column (kStar only)
};
using Script = std::vector<Click>;

const char* KindName(Click::Kind kind);

/// Request kinds of the op log. run.py names them by index (OP_KINDS), so
/// append new kinds at the end.
enum OpKind : uint8_t {
  kOpOpen,
  kOpRoot,
  kOpStar,
  kOpRule,
  kOpClose,
  kOpAppend,
  kOpPublish,
  kOpShow,
};
OpKind ClickOp(Click::Kind kind);

/// The drill script shared by cold-drill, live-append readers and
/// sampled-drill: root expand, star on root column `star_column`, then
/// every child and every grandchild of the starred root (3 + 9 rule
/// expands at k = 3). Session i stars column i mod 7: the click plan is
/// fixed so every window holds the same star-column mix (rule costs differ
/// several-fold by column); the seed reaches each click through the data.
Script DrillScript(size_t star_column);

/// The sampled-drill script: the drill script, then the user returns up
/// the tree and re-expands each child. By then the grandchildren's samples
/// have pushed the children's out of the store (M = 50k rows), so about two
/// thirds of the rule expands pay a Create pass; the rest are served from
/// memory. Keeping that share well away from one half keeps the rule p50
/// and p90 each inside one mode of a bimodal distribution.
Script SampledScript(size_t star_column);

/// A script and the star column that names its clicks.
struct PlannedSession {
  size_t star_column = 0;
  Script script;
};

/// Raw measurements of one run, written as JSON for run.py.
struct Record {
  std::map<std::string, std::string> context;  ///< echoed verbatim
  std::vector<double> setup_s;
  double window_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> gate_failures;
  uint64_t gates_checked = 0;
  std::map<std::string, double> counters;
  double peak_heap_mb = 0;
  /// Samples HeapInUseMb into peak_heap_mb; called between requests of the
  /// timed window.
  void NoteHeap();

  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = none
    std::string request;  ///< shared by one click across surfaces
    std::string name;
    double start_us = 0;
    double end_us = 0;
  };
  std::vector<Span> spans;

  /// Per-request latencies stream to a file as they are taken (1 byte
  /// OpKind, then the milliseconds as a little-endian double), so the
  /// measured process's memory does not grow with the run's length.
  FILE* ops_file = nullptr;
  Status OpenOps(const std::string& path);
  void Op(OpKind kind, double ms) {
    std::fputc(kind, ops_file);
    std::fwrite(&ms, sizeof(ms), 1, ops_file);
  }

  void Gate(bool ok, const std::string& name, const std::string& detail);
  /// Starts a span and returns its id; EndSpan closes it.
  uint64_t BeginSpan(const std::string& name, const std::string& request,
                     uint64_t parent = 0);
  void EndSpan(uint64_t id);
  Status Write(const std::string& path) const;
};

// --- codec response helpers -------------------------------------------

bool IsOk(const std::string& response);
std::string TokenOf(const std::string& response);
/// Children ids of `node` in a response tree; empty when absent.
std::vector<int> ChildrenOf(const std::string& response, int node);
/// Resolves a click path to a node id in a response tree (-1 if absent).
int ResolvePath(const std::string& response, const std::vector<int>& path);
/// Replaces every occurrence of the session token so responses from
/// different sessions of one script compare byte for byte.
std::string BlankToken(std::string response, const std::string& token);
/// True when two responses differ at most in their session token.
bool SameExceptToken(const std::string& a, const std::string& b);
/// The codec request line for a click on `node`.
std::string ClickLine(const Click& click, const std::string& token, int node);
uint64_t Fnv1a(const std::string& bytes, uint64_t h = 1469598103934665603ull);
std::string Hex(uint64_t v);

// --- inputs ------------------------------------------------------------

std::string BaseCsvPath(const Options& o);
std::string AppendStreamPath(const Options& o);
std::string WalSeedPath(const Options& o);
std::string LiveWalPath(const Options& o);  ///< the WAL live-append serves
uint64_t RowsFor(const std::string& workload);
/// Writes every input of the workload from the seed (untimed pre-phase).
Status Generate(const Options& o);
/// CSV rows of the seeded append stream, one row per entry.
std::vector<std::string> ReadLines(const std::string& path);

// --- run context -------------------------------------------------------

/// Effective parallelism: wall time of one spinning thread against
/// `threads` spinning at once, as cores' worth of progress.
double SpinProbeEffectiveCores(unsigned threads);
/// Bytes the program holds on the heap (malloc's in-use bytes, mmapped
/// chunks included). Unlike RSS it does not depend on how the allocator's
/// free memory happens to be fragmented or trimmed.
double HeapInUseMb();
void FillContext(const Options& o, Record* r);

// --- workloads ---------------------------------------------------------

Status RunWorkload(const Options& o, Record* r);
Status RunTraced(const Options& o, Record* r);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_BENCH_H_
