#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "core/scan_kernels.h"
#include "data/census_gen.h"
#include "live/table_versions.h"
#include "storage/csv.h"

namespace perfbench {

using namespace smartdd;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* KindName(Click::Kind kind) {
  switch (kind) {
    case Click::kRoot:
      return "root";
    case Click::kStar:
      return "star";
    case Click::kRule:
      return "rule";
  }
  return "?";
}

Script DrillScript(size_t star_column) {
  Script s;
  s.push_back({Click::kRoot, {}, 0});
  s.push_back({Click::kStar, {}, star_column});
  for (int c = 0; c < static_cast<int>(kK); ++c) {
    s.push_back({Click::kRule, {c}, 0});
  }
  for (int c = 0; c < static_cast<int>(kK); ++c) {
    for (int g = 0; g < static_cast<int>(kK); ++g) {
      s.push_back({Click::kRule, {c, g}, 0});
    }
  }
  return s;
}

Script SampledScript(size_t star_column) {
  Script s = DrillScript(star_column);
  for (int c = 0; c < static_cast<int>(kK); ++c) {
    s.push_back({Click::kRule, {c}, 0});
  }
  return s;
}

OpKind ClickOp(Click::Kind kind) {
  switch (kind) {
    case Click::kRoot:
      return kOpRoot;
    case Click::kStar:
      return kOpStar;
    case Click::kRule:
      return kOpRule;
  }
  return kOpRule;
}

// --- Record ------------------------------------------------------------

Status Record::OpenOps(const std::string& path) {
  ops_file = std::fopen(path.c_str(), "wb");
  if (ops_file == nullptr) return Status::IOError("cannot write " + path);
  static char buffer[1 << 16];
  std::setvbuf(ops_file, buffer, _IOFBF, sizeof(buffer));
  return Status::OK();
}

void Record::Gate(bool ok, const std::string& name,
                  const std::string& detail) {
  ++gates_checked;
  if (!ok) gate_failures.emplace_back(name, detail);
}

uint64_t Record::BeginSpan(const std::string& name, const std::string& request,
                           uint64_t parent) {
  Span s;
  s.id = spans.size() + 1;
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start_us = NowSeconds() * 1e6;
  spans.push_back(std::move(s));
  return spans.back().id;
}

void Record::EndSpan(uint64_t id) { spans[id - 1].end_us = NowSeconds() * 1e6; }

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Status Record::Write(const std::string& path) const {
  if (ops_file != nullptr && std::fclose(ops_file) != 0) {
    return Status::IOError("cannot write the op log");
  }
  std::ostringstream o;
  o << "{\"context\":{";
  bool first = true;
  for (const auto& [k, v] : context) {
    o << (first ? "" : ",") << JsonString(k) << ":" << JsonString(v);
    first = false;
  }
  o << "},\"setup_s\":[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    o << (i ? "," : "") << Num(setup_s[i]);
  }
  o << "],\"window_s\":" << Num(window_s) << ",\"attempted\":" << attempted
    << ",\"failed\":" << failed << ",\"gates_checked\":" << gates_checked
    << ",\"peak_heap_mb\":" << Num(peak_heap_mb) << ",\"gate_failures\":[";
  for (size_t i = 0; i < gate_failures.size(); ++i) {
    o << (i ? "," : "") << "[" << JsonString(gate_failures[i].first) << ","
      << JsonString(gate_failures[i].second) << "]";
  }
  o << "],\"counters\":{";
  first = true;
  for (const auto& [k, v] : counters) {
    o << (first ? "" : ",") << JsonString(k) << ":" << Num(v);
    first = false;
  }
  o << "},\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    o << (i ? "," : "") << "[" << s.id << "," << s.parent << ","
      << JsonString(s.request) << "," << JsonString(s.name) << ","
      << Num(s.start_us) << "," << Num(s.end_us) << "]";
  }
  o << "]}\n";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << o.str();
  f.close();
  if (!f) return Status::IOError("cannot write " + path);
  return Status::OK();
}

// --- codec response helpers --------------------------------------------

bool IsOk(const std::string& response) {
  return response.compare(0, 10, "{\"ok\":true") == 0;
}

std::string TokenOf(const std::string& response) {
  size_t at = response.find("\"session\":\"");
  if (at == std::string::npos) return {};
  return response.substr(at + 11, 16);
}

std::vector<int> ChildrenOf(const std::string& response, int node) {
  std::vector<int> out;
  const std::string key = "{\"id\":" + std::to_string(node) + ",\"label\"";
  size_t at = response.find(key);
  if (at == std::string::npos) return out;
  at = response.find("\"children\":[", at);
  if (at == std::string::npos) return out;
  at += 12;
  while (at < response.size() && response[at] != ']') {
    size_t used = 0;
    out.push_back(std::stoi(response.substr(at, 12), &used));
    at += used;
    if (response[at] == ',') ++at;
  }
  return out;
}

int ResolvePath(const std::string& response, const std::vector<int>& path) {
  int node = 0;
  for (int pos : path) {
    std::vector<int> kids = ChildrenOf(response, node);
    if (pos >= static_cast<int>(kids.size())) return -1;
    node = kids[pos];
  }
  return node;
}

std::string BlankToken(std::string response, const std::string& token) {
  if (token.empty()) return response;
  for (size_t at = 0; (at = response.find(token, at)) != std::string::npos;) {
    response.replace(at, token.size(), "<T>");
  }
  return response;
}

bool SameExceptToken(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  size_t at = a.find("\"session\":\"");
  if (at == std::string::npos) return a == b;
  at += 11;
  return a.compare(0, at, b, 0, at) == 0 &&
         a.compare(at + 16, std::string::npos, b, at + 16, std::string::npos) ==
             0;
}

std::string ClickLine(const Click& click, const std::string& token, int node) {
  if (click.kind == Click::kStar) {
    return "star " + token + " " + std::to_string(node) + " " +
           std::to_string(click.column);
  }
  return "expand " + token + " " + std::to_string(node);
}

uint64_t Fnv1a(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- inputs --------------------------------------------------------------

std::string BaseCsvPath(const Options& o) { return o.dir + "/base.csv"; }
std::string AppendStreamPath(const Options& o) { return o.dir + "/append.csv"; }
std::string WalSeedPath(const Options& o) { return o.dir + "/seed.wal"; }
std::string LiveWalPath(const Options& o) { return o.dir + "/live.wal"; }

uint64_t RowsFor(const std::string& workload) {
  return workload == "sampled-drill" ? kSampledRows : kBaseRows;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

Status Generate(const Options& o) {
  ::mkdir(o.dir.c_str(), 0755);
  CensusSpec spec;
  spec.rows = RowsFor(o.workload);
  spec.columns_used = kColumns;
  spec.seed = o.seed;
  SMARTDD_RETURN_IF_ERROR(
      WriteCsvFile(GenerateCensusTable(spec), BaseCsvPath(o)));

  // The append stream (live-append's writer; the traced live replay on
  // every workload): rows of the same census distribution drawn from a
  // seed derived from --seed, one CSV row per line (header dropped).
  CensusSpec stream_spec = spec;
  stream_spec.rows = kAppendStreamRows;
  stream_spec.seed = o.seed * 1000003ull + 17;
  const std::string tmp = o.dir + "/append_with_header.csv";
  SMARTDD_RETURN_IF_ERROR(
      WriteCsvFile(GenerateCensusTable(stream_spec), tmp));
  std::vector<std::string> lines = ReadLines(tmp);
  std::remove(tmp.c_str());
  {
    std::ofstream f(AppendStreamPath(o), std::ios::trunc);
    for (size_t i = 1; i < lines.size(); ++i) f << lines[i] << "\n";
  }
  if (o.workload != "live-append") return Status::OK();

  // The WAL a restart replays: the first kWalPrefillRows stream rows,
  // appended once here so every set-up recovers the same log.
  std::remove(WalSeedPath(o).c_str());
  SMARTDD_ASSIGN_OR_RETURN(Table base, ReadCsvFile(BaseCsvPath(o)));
  live::LiveTableOptions lo;
  lo.wal_path = WalSeedPath(o);
  lo.snapshot_every_rows = 0;
  lo.fsync_every_records = 0;
  SMARTDD_ASSIGN_OR_RETURN(auto live_table,
                           live::LiveTable::Create(std::move(base), lo));
  for (uint64_t i = 1; i <= kWalPrefillRows; ++i) {
    SMARTDD_RETURN_IF_ERROR(live_table->Append(lines[i]));
  }
  return live_table->SyncWal();
}

// --- run context ---------------------------------------------------------

double SpinProbeEffectiveCores(unsigned threads) {
  auto spin = [] {
    volatile uint64_t x = 0;
    for (uint64_t i = 0; i < 60'000'000ull; ++i) x = x + i;
  };
  double t0 = NowSeconds();
  spin();
  const double one = NowSeconds() - t0;
  t0 = NowSeconds();
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i) pool.emplace_back(spin);
  for (auto& t : pool) t.join();
  const double many = NowSeconds() - t0;
  return many > 0 ? threads * one / many : 0;
}

double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

void Record::NoteHeap() {
  peak_heap_mb = std::max(peak_heap_mb, HeapInUseMb());
}

void FillContext(const Options& o, Record* r) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  char probe[32];
  std::snprintf(probe, sizeof(probe), "%.2f", SpinProbeEffectiveCores(nproc));
  r->context["workload"] = o.workload;
  r->context["seed"] = std::to_string(o.seed);
  r->context["rows"] = std::to_string(RowsFor(o.workload));
  r->context["columns"] = std::to_string(kColumns);
  r->context["k"] = std::to_string(kK);
  r->context["threads"] = "1";
  r->context["clients"] = "1 (closed loop)";
  r->context["nproc"] = std::to_string(nproc);
  r->context["effective_cores"] = probe;
  r->context["scan_kernel"] =
      KernelPathName(ResolveKernelPath(KernelPref::kAuto));
  r->context["wal"] = o.workload == "live-append"
                          ? LiveWalPath(o) + " (in the checkout, fsync off)"
                          : "none";
  r->context["trace"] = o.trace ? "1" : "0";
}

}  // namespace perfbench
