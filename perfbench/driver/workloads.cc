// The three untraced workloads. Each runs one closed-loop client thread
// against ExplorationService::ServeLine in this process: no sockets and no
// block-device fsync on any timed path, and every session scans on one
// engine thread (`threads=1` on open, EngineOptions::num_threads = 1 for
// the sampling engine).

#include <deque>

#include "api/codec.h"
#include "bench.h"
#include "stack.h"

namespace perfbench {

using namespace smartdd;

namespace {

/// Set-up repetitions per run; run.py reports their median as setup_s.
size_t SetupReps(const std::string& workload) {
  return workload == "sampled-drill" ? 3 : 5;
}

struct SessionResult {
  std::string token;
  std::vector<std::string> responses;
  size_t rule_expands = 0;
  bool ok = true;
};

std::string Serve(api::ExplorationService& service, const std::string& line,
                  OpKind kind, Record* rec) {
  const double t0 = NowSeconds();
  std::string response = service.ServeLine(line);
  if (rec != nullptr) {
    rec->Op(kind, (NowSeconds() - t0) * 1e3);
    ++rec->attempted;
    if (!IsOk(response)) ++rec->failed;
  }
  return response;
}

/// Runs `script` as one session through ServeLine. Timed when `rec` is
/// non-null. Returns the response of every click; clicks whose node is
/// absent from the tree (fewer than k children) are skipped.
SessionResult RunSession(api::ExplorationService& service,
                         const Script& script, Record* rec, bool close) {
  SessionResult out;
  const std::string opened = Serve(service, kOpenLine, kOpOpen, rec);
  out.ok = IsOk(opened);
  out.token = TokenOf(opened);
  out.responses.reserve(script.size());  // keeps `tree` valid below
  const std::string* tree = &opened;
  for (const Click& click : script) {
    if (!out.ok) break;
    const int node = ResolvePath(*tree, click.path);
    if (node < 0) continue;
    out.responses.push_back(Serve(service, ClickLine(click, out.token, node),
                                  ClickOp(click.kind), rec));
    tree = &out.responses.back();
    out.ok = IsOk(*tree);
    if (click.kind == Click::kRule) ++out.rule_expands;
  }
  if (close && !out.token.empty()) {
    out.ok = IsOk(Serve(service, "close " + out.token, kOpClose, rec)) && out.ok;
  }
  return out;
}

/// Digest of a session's responses with the session token blanked.
uint64_t Digest(const std::vector<std::string>& responses) {
  uint64_t h = Fnv1a("");
  for (const auto& r : responses) h = Fnv1a(BlankToken(r, TokenOf(r)) + "\n", h);
  return h;
}

/// Stands the workload's program up SetupReps times, timing each from
/// ReadCsvFile to ready; returns the last stack. `between` runs on every
/// stack but the last one (untimed).
Result<std::unique_ptr<Stack>> TimedSetups(
    const Options& o, Record* r,
    const std::function<void(Stack&)>& between = nullptr) {
  const size_t reps = SetupReps(o.workload);
  std::unique_ptr<Stack> stack;
  for (size_t rep = 0; rep < reps; ++rep) {
    stack.reset();
    PrepareWal(o);
    const double t0 = NowSeconds();
    SMARTDD_ASSIGN_OR_RETURN(stack, StandUp(o));
    r->setup_s.push_back(NowSeconds() - t0);
    if (between && rep + 1 < reps) between(*stack);
  }
  return stack;
}

/// Replays `script` through an engine-direct session (no service, no
/// codec) and checks every tree against the service's response bytes.
bool MatchesEngineDirect(const Table& table, const Script& script,
                         const std::vector<std::string>& responses) {
  ShardedEngineOptions eo;
  eo.num_shards = 1;
  auto engine = ShardedEngine::Create(table, Weight(), eo);
  if (!engine.ok()) return false;
  SessionOptions so;
  so.k = kK;
  so.num_threads = 1;
  auto session = (*engine)->front().NewSession(so);
  if (!session.ok()) return false;
  size_t matched = 0;
  for (const Click& click : script) {
    const int node = ResolveSessionPath(*session, click.path);
    if (node < 0) continue;
    auto kids = click.kind == Click::kStar
                    ? session->ExpandStar(node, click.column)
                    : session->Expand(node);
    if (!kids.ok() || matched >= responses.size()) return false;
    const std::string tree =
        "\"tree\":" + api::EncodeTree(api::SnapshotOf(*session)) + "}";
    if (responses[matched].find(tree) == std::string::npos) return false;
    ++matched;
  }
  return matched == responses.size();
}

/// A cold-drill, live-append or sampled-drill window ends after `sessions`
/// sessions once it has run at least kMinCycles whole cycles of the 7 star
/// columns, `--seconds` and kMinRuleExpands rule expands. Whole cycles give
/// every window the same star-column mix (rule costs differ several-fold by
/// column); at least two make the cycle count, and so the window's work,
/// the same from run to run.
bool WindowDone(size_t sessions, size_t rule_expands, double t0,
                const Options& o) {
  return sessions >= kMinCycles * kColumns && sessions % kColumns == 0 &&
         rule_expands >= kMinRuleExpands && NowSeconds() - t0 >= o.seconds;
}

Status ColdOrSampled(const Options& o, Record* r) {
  const bool sampled = o.workload == "sampled-drill";
  const auto script = sampled ? SampledScript : DrillScript;
  // Digest of the first session on a fresh engine, taken during set-up.
  uint64_t first_digest = 0;
  auto replay_first = [&](Stack& s) {
    if (sampled && first_digest == 0) {
      first_digest =
          Digest(RunSession(*s.service, script(0), nullptr, true).responses);
    }
  };
  SMARTDD_ASSIGN_OR_RETURN(auto stack, TimedSetups(o, r, replay_first));
  api::ExplorationService& service = *stack->service;

  // Per-session digests, plus session 0's bytes for the engine-direct
  // check: the benchmark's own bookkeeping stays constant in peak_heap_mb.
  std::vector<uint64_t> digests;
  std::vector<std::string> first_session;
  size_t rule_expands = 0;
  const double t0 = NowSeconds();
  for (size_t i = 0; !WindowDone(i, rule_expands, t0, o); ++i) {
    SessionResult s = RunSession(service, script(i % kColumns), r, true);
    rule_expands += s.rule_expands;
    if (!s.ok) r->Gate(false, "responses_ok", "session " + std::to_string(i));
    digests.push_back(Digest(s.responses));
    if (i == 0) first_session = std::move(s.responses);
    r->NoteHeap();
  }
  r->window_s = NowSeconds() - t0;
  r->counters["sessions"] = static_cast<double>(digests.size());

  if (sampled) {
    r->context["response_digest"] = Hex(first_digest);
    r->Gate(first_digest == digests[0], "sampled_digest_repeats",
            Hex(digests[0]) + " in the window");
    r->counters["sampler_scans"] =
        static_cast<double>(stack->engine->sampler()->scans_performed());
    return Status::OK();
  }

  // Sessions i and i + 7 ran the same script: their bytes must agree.
  for (size_t i = kColumns; i < digests.size(); ++i) {
    r->Gate(digests[i] == digests[i - kColumns], "cold_repeat_identical",
            "session " + std::to_string(i));
  }
  r->Gate(MatchesEngineDirect(*stack->table, DrillScript(0), first_session),
          "cold_matches_engine_direct", "session 0");
  return Status::OK();
}

/// "version":N / "rows":N / "pending_rows":N from an append or tableinfo
/// response.
uint64_t Field(const std::string& response, const std::string& name) {
  size_t at = response.find("\"" + name + "\":");
  if (at == std::string::npos) return 0;
  return std::stoull(response.substr(at + name.size() + 3, 24));
}

Status LiveAppend(const Options& o, Record* r) {
  SMARTDD_ASSIGN_OR_RETURN(auto stack, TimedSetups(o, r));
  const std::vector<std::string> stream = ReadLines(AppendStreamPath(o));
  if (stream.size() < kAppendStreamRows) {
    return Status::Internal("append stream missing; run gen first");
  }

  struct Pinned {
    std::string token;
    std::string last;  ///< the session's last response
  };
  std::deque<Pinned> pinned;
  size_t pinned_drift = 0;
  auto retire = [&](api::ExplorationService& service, Record* rec) {
    Pinned p = std::move(pinned.front());
    pinned.pop_front();
    const std::string shown = Serve(service, "show " + p.token, kOpShow, rec);
    if (!SameExceptToken(shown, p.last)) ++pinned_drift;
    Serve(service, "close " + p.token, kOpClose, rec);
  };

  api::ExplorationService& service = *stack->service;
  uint64_t version = Field(Serve(service, "tableinfo", kOpShow, nullptr),
                           "version");
  size_t next = kWalPrefillRows;
  uint64_t acked = 0, readers = 0;
  size_t rule_expands = 0;
  const double t0 = NowSeconds();
  while (!WindowDone(readers, rule_expands, t0, o)) {
    for (uint64_t published = 0; published < kPublishesPerReader;) {
      if (next >= stream.size()) return Status::Internal("append stream exhausted");
      const double a0 = NowSeconds();
      const std::string response =
          service.ServeLine("append dataset=data " + stream[next++]);
      const double ms = (NowSeconds() - a0) * 1e3;
      ++r->attempted;
      if (!IsOk(response)) {
        ++r->failed;
        continue;
      }
      ++acked;
      const uint64_t v = Field(response, "version");
      r->Op(v != version ? kOpPublish : kOpAppend, ms);
      if (v != version) ++published;
      version = v;
    }
    SessionResult s =
        RunSession(service, DrillScript(readers % kColumns), r, false);
    rule_expands += s.rule_expands;
    if (!s.ok) r->Gate(false, "responses_ok", "reader " + std::to_string(readers));
    pinned.push_back({s.token, s.responses.empty() ? "" : s.responses.back()});
    if (pinned.size() > kPinnedReaders) retire(service, r);
    ++readers;
    r->NoteHeap();
  }
  r->window_s = NowSeconds() - t0;
  r->counters["sessions"] = static_cast<double>(readers);
  r->counters["rows_appended"] = static_cast<double>(acked);
  while (!pinned.empty()) retire(service, nullptr);
  r->Gate(pinned_drift == 0, "live_pinned_sessions_stable",
          std::to_string(pinned_drift) + " pinned sessions drifted");

  const uint64_t expected = kBaseRows + kWalPrefillRows + acked;
  const std::string info = Serve(service, "tableinfo", kOpShow, nullptr);
  const uint64_t rows = Field(info, "rows") + Field(info, "pending_rows");
  r->Gate(rows == expected, "live_tableinfo_rows",
          std::to_string(rows) + " vs " + std::to_string(expected));

  // Restart: a fresh program over the same WAL recovers exactly those rows.
  stack.reset();
  SMARTDD_ASSIGN_OR_RETURN(stack, StandUp(o));
  const std::string after =
      Serve(*stack->service, "tableinfo", kOpShow, nullptr);
  const uint64_t recovered = Field(after, "rows") + Field(after, "pending_rows");
  r->Gate(recovered == expected, "live_restart_recovers_rows",
          std::to_string(recovered) + " vs " + std::to_string(expected));
  return Status::OK();
}

}  // namespace

Status RunWorkload(const Options& o, Record* r) {
  if (o.workload == "cold-drill" || o.workload == "sampled-drill") {
    return ColdOrSampled(o, r);
  }
  if (o.workload == "live-append") return LiveAppend(o, r);
  return Status::InvalidArgument("unknown workload " + o.workload);
}

}  // namespace perfbench
