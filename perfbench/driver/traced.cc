// The traced run: replays a fixed set of the workload's seeded scripts one
// surface at a time and records a span around every call into a module's
// public functions. Spans stay in memory until the run ends. Every surface
// runs on every workload, on that workload's data, so each layer's cost is
// known everywhere; README.md says which end-to-end metric it can move on
// which workload.
//
// Surfaces, bottom up (each replay on freshly stood-up objects):
//   core      SmartDrillDownSharded, with DrillDownRequest::on_step (BRS
//             on_rule) marking each greedy step
//   sampling  SampleHandler::GetSampleFor + the drill-down on the sample;
//             on sampled-drill this is the lower surface in place of core
//   explore   ExplorationSession::Expand / ExpandStar, in lockstep with the
//             lower surface
//   api       ParseRequest -> ExplorationService::Execute -> EncodeResponse
//   repeat    zipf-popular dashboard paths behind a primed expansion cache,
//             through the api (cache), HttpServer + ExplorationHttpAdapter
//             over loopback (net) and Router -> ShardServer over loopback
//             (cluster). Hits cost microseconds, so transport overheads
//             resolve there; on this host their run-to-run spread was too
//             wide for a bounded end-to-end workload.
//   live      LiveTable::Append / PublishSnapshot and a version engine per
//             snapshot, over the workload's table and the seeded stream
//
// Every click carries a request id (click key + occurrence) shared across
// surfaces, so run.py can take a surface's self time against the same
// request one surface down.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <deque>
#include <filesystem>
#include <optional>

#include "api/codec.h"
#include "api/wire_service.h"
#include "bench.h"
#include "cluster/router.h"
#include "cluster/shard_server.h"
#include "common/random.h"
#include "core/drilldown.h"
#include "explore/sharded_engine.h"
#include "live/table_versions.h"
#include "net/exploration_http_adapter.h"
#include "net/http_server.h"
#include "stack.h"
#include "storage/csv.h"
#include "storage/table_view.h"

namespace perfbench {

using namespace smartdd;

namespace {

constexpr size_t kTracedScripts = 3;
constexpr size_t kDashboardStarColumns = 3;
constexpr size_t kRepeatSessions = 300;
constexpr size_t kTracedLivePublishes = 8;
constexpr size_t kCsvLoads = 3;

std::string ClickKey(size_t star_column, const Click& click) {
  if (click.kind == Click::kRoot) return "root";
  std::string key = "c" + std::to_string(star_column) + "/" +
                    KindName(click.kind);
  for (int p : click.path) key += "." + std::to_string(p);
  return key;
}

/// Seeded permutation of [0, n).
std::vector<size_t> Permutation(size_t n, uint64_t seed) {
  std::vector<size_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = i;
  Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[rng.UniformInt(i)]);
  }
  return p;
}

/// The repeat pass's key set: for each of kDashboardStarColumns seeded
/// columns c, every path root, star c, child j, grandchild m of child j.
std::vector<PlannedSession> DashboardPaths(uint64_t seed) {
  const std::vector<size_t> columns = Permutation(kColumns, seed ^ 0xd45b);
  std::vector<PlannedSession> paths;
  for (size_t c = 0; c < kDashboardStarColumns; ++c) {
    for (int j = 0; j < static_cast<int>(kK); ++j) {
      for (int m = 0; m < static_cast<int>(kK); ++m) {
        paths.push_back({columns[c],
                         {{Click::kRoot, {}, 0},
                          {Click::kStar, {}, columns[c]},
                          {Click::kRule, {j}, 0},
                          {Click::kRule, {j, m}, 0}}});
      }
    }
  }
  return paths;
}

/// The seeded sequence of repeat sessions: zipf(1.0)-popular draws over
/// the paths, with a seeded path behind each popularity rank.
class PathDraws {
 public:
  PathDraws(size_t paths, uint64_t seed)
      : rank_to_path_(Permutation(paths, seed ^ 0x21f)),
        rng_(seed ^ 0x9e37),
        zipf_(paths, 1.0) {}
  size_t Next() { return rank_to_path_[zipf_.Sample(rng_)]; }

 private:
  std::vector<size_t> rank_to_path_;
  Rng rng_;
  Rng::ZipfTable zipf_;
};

/// Request ids: click key plus its occurrence, identical on every surface
/// that replays the same request sequence.
class Ids {
 public:
  std::string Next(const std::string& key) {
    return key + "#" + std::to_string(seen_[key]++);
  }

 private:
  std::map<std::string, int> seen_;
};

/// The scripts the core, explore and api surfaces replay.
std::vector<PlannedSession> LowerScripts(const Options& o) {
  std::vector<PlannedSession> out;
  for (size_t c = 0; c < kTracedScripts; ++c) {
    out.push_back({c, o.workload == "sampled-drill" ? SampledScript(c)
                                                    : DrillScript(c)});
  }
  return out;
}

// --- core / sampling ------------------------------------------------------

/// Runs one drill-down as a traced call: a `name` span with a
/// `name.step` child per greedy step and a `name.evaluate` child for the
/// final rule-list evaluation. Core drill-downs also add their search
/// statistics to the core.* counters.
Result<DrillDownResponse> TracedDrillDown(const TableView& view,
                                          DrillDownRequest request,
                                          const std::string& id,
                                          uint64_t parent,
                                          const std::string& name, Record* r) {
  const uint64_t span = r->BeginSpan(name, id, parent);
  uint64_t step = r->BeginSpan(name + ".step", id, span);
  request.on_step = [&](const ScoredRule&, size_t) {
    r->EndSpan(step);
    step = r->BeginSpan(name + ".step", id, span);
    return true;
  };
  std::vector<const TableView*> views{&view};
  auto response = SmartDrillDownSharded(views, Weight(), request);
  r->EndSpan(step);
  r->spans[step - 1].name = name + ".evaluate";
  r->EndSpan(span);
  if (response.ok() && name == "core.drilldown") {
    const MarginalSearchStats& st = response->stats;
    r->counters["core.drilldowns"] += 1;
    r->counters["core.passes"] += static_cast<double>(st.passes);
    r->counters["core.tuple_visits"] += static_cast<double>(st.tuple_visits);
    r->counters["core.candidates_generated"] +=
        static_cast<double>(st.candidates_generated);
    r->counters["core.candidates_counted"] +=
        static_cast<double>(st.candidates_counted);
    r->counters["core.merge_ms"] += st.merge_seconds * 1e3;
  }
  return response;
}

/// Adds one expand's sampler activity to the sampling.* counters.
class SamplerDelta {
 public:
  explicit SamplerDelta(const SampleHandler* sampler)
      : sampler_(sampler),
        scans_(sampler ? sampler->scans_performed() : 0),
        reused_(sampler ? sampler->find_hits() + sampler->combine_hits() : 0) {}
  void AddTo(Record* r) const {
    if (sampler_ == nullptr) return;
    r->counters["sampling.requests"] += 1;
    r->counters["sampling.scans"] +=
        static_cast<double>(sampler_->scans_performed() - scans_);
    r->counters["sampling.reused"] += static_cast<double>(
        sampler_->find_hits() + sampler_->combine_hits() - reused_);
  }

 private:
  const SampleHandler* sampler_;
  uint64_t scans_;
  uint64_t reused_;
};

/// The displayed rules of one replayed session by click path, for the
/// surfaces below explore, which keep no session of their own.
class RuleTree {
 public:
  RuleTree() { rules_.emplace(std::vector<int>{}, Rule::Trivial(kColumns)); }

  /// The drill-down a click asks for, or nullopt if its node is absent.
  std::optional<DrillDownRequest> RequestFor(const Click& click) const {
    auto it = rules_.find(click.path);
    if (it == rules_.end()) return std::nullopt;
    DrillDownRequest request;
    request.base = it->second;
    if (click.kind == Click::kStar) request.star_column = click.column;
    request.k = kK;
    request.num_threads = 1;
    return request;
  }

  /// Replaces the clicked node's subtree with the drill-down's rules.
  void Expand(const Click& click, const DrillDownResponse& response) {
    const std::vector<int>& path = click.path;
    for (auto d = rules_.begin(); d != rules_.end();) {
      const bool below = d->first.size() > path.size() &&
                         std::equal(path.begin(), path.end(), d->first.begin());
      d = below ? rules_.erase(d) : std::next(d);
    }
    for (size_t x = 0; x < response.rules.size(); ++x) {
      std::vector<int> child = path;
      child.push_back(static_cast<int>(x));
      rules_.emplace(std::move(child), response.rules[x].rule);
    }
  }

 private:
  std::map<std::vector<int>, Rule> rules_;
};

/// GetSampleFor under a sampling.request span, then the drill-down on the
/// sample as a `brs` span.
Result<DrillDownResponse> SampledDrillDown(SampleHandler& sampler,
                                           const DrillDownRequest& request,
                                           const std::string& id,
                                           const std::string& brs, Record* r) {
  const uint64_t span = r->BeginSpan("sampling.request", id);
  const uint64_t get = r->BeginSpan("sampling.get_sample", id, span);
  auto sample = sampler.GetSampleFor(request.base);
  r->EndSpan(get);
  if (!sample.ok()) return sample.status();
  TableView view(sample->table);
  auto response = TracedDrillDown(view, request, id, span, brs, r);
  r->EndSpan(span);
  return response;
}

/// Replays the scripts on two surfaces in lockstep, click by click, so a
/// request's pair of spans is taken moments apart and host drift cancels
/// in their difference:
///   lower    the core (exact, over `table`) or, when `sampler` is set, the
///            sample handler plus the core drill-down on each sample;
///   explore  an ExplorationSession of `engine`.
Status LowerAndExploreReplay(const Table& table, SampleHandler* sampler,
                             ExplorationEngine& engine,
                             const std::vector<PlannedSession>& entries,
                             Record* r) {
  TableView full(table);
  Ids ids;
  for (const PlannedSession& e : entries) {
    RuleTree tree;
    SessionOptions so;
    so.k = kK;
    so.num_threads = 1;
    SMARTDD_ASSIGN_OR_RETURN(ExplorationSession session, engine.NewSession(so));
    for (const Click& click : e.script) {
      const std::string id = ids.Next(ClickKey(e.star_column, click));
      if (auto request = tree.RequestFor(click)) {
        SMARTDD_ASSIGN_OR_RETURN(
            DrillDownResponse response,
            sampler == nullptr
                ? TracedDrillDown(full, *request, id, 0, "core.drilldown", r)
                : SampledDrillDown(*sampler, *request, id, "core.drilldown", r));
        tree.Expand(click, response);
      }
      const int node = ResolveSessionPath(session, click.path);
      if (node < 0) continue;
      const SamplerDelta delta(engine.sampler());
      const uint64_t span = r->BeginSpan("explore.expand", id);
      auto kids = click.kind == Click::kStar
                      ? session.ExpandStar(node, click.column)
                      : session.Expand(node);
      r->EndSpan(span);
      if (!kids.ok()) return kids.status();
      delta.AddTo(r);
    }
  }
  return Status::OK();
}

/// The sampling surface on a workload served exactly: the same scripts
/// through a SampleHandler over the table (default M and minSS, one scan
/// thread), pricing what the paper's sampler would cost on this data.
Status SamplingReplay(const Table& table,
                      const std::vector<PlannedSession>& entries, Record* r) {
  MemoryScanSource source(table);
  SampleHandler sampler(source, SampledEngineOptions().sampler);
  Ids ids;
  for (const PlannedSession& e : entries) {
    RuleTree tree;
    for (const Click& click : e.script) {
      const std::string id = ids.Next(ClickKey(e.star_column, click));
      auto request = tree.RequestFor(click);
      if (!request) continue;
      const SamplerDelta delta(&sampler);
      SMARTDD_ASSIGN_OR_RETURN(
          DrillDownResponse response,
          SampledDrillDown(sampler, *request, id, "sampling.brs_on_sample", r));
      delta.AddTo(r);
      tree.Expand(click, response);
    }
  }
  return Status::OK();
}

// --- request sequences (api, net, cluster) ---------------------------------

/// Carries one request line to the surface under test; returns the
/// response JSON.
using ServeFn =
    std::function<std::string(const std::string& line, const std::string& id)>;

using Responses = std::map<std::string, std::string>;  ///< id -> bytes
/// Priming responses of each dashboard path, token blanked.
using Primed = std::vector<std::vector<std::string>>;

/// Replays a request sequence through `serve`, recording each response
/// (token blanked) by request id. The sequence is the workload's own, or
/// with `repeat` kRepeatSessions zipf draws over the dashboard paths; then
/// sessions whose bytes differ from their path's `primed` responses are
/// counted in `*mismatches`.
Status ReplayRequests(const Options& o, bool repeat, const ServeFn& serve,
                      Responses* responses, const Primed* primed = nullptr,
                      size_t* mismatches = nullptr) {
  Ids ids;
  std::vector<std::string> session_bytes;
  auto call = [&](const std::string& line, const std::string& key) {
    const std::string id = ids.Next(key);
    std::string response = serve(line, id);
    session_bytes.push_back(BlankToken(response, TokenOf(response)));
    (*responses)[id] = session_bytes.back();
    return response;
  };
  auto session = [&](size_t star_column, const Script& script, bool close) {
    std::string response = call(kOpenLine, "open");
    const std::string token = TokenOf(response);
    session_bytes.clear();
    for (const Click& click : script) {
      const int node = ResolvePath(response, click.path);
      if (node < 0) continue;
      response = call(ClickLine(click, token, node), ClickKey(star_column, click));
    }
    const std::vector<std::string> clicks = session_bytes;
    if (close) call("close " + token, "close");
    return std::make_pair(token, clicks);
  };

  if (repeat) {
    const std::vector<PlannedSession> paths = DashboardPaths(o.seed);
    PathDraws draws(paths.size(), o.seed);
    for (size_t i = 0; i < kRepeatSessions; ++i) {
      const size_t p = draws.Next();
      auto [token, clicks] = session(paths[p].star_column, paths[p].script, true);
      if (primed != nullptr && clicks != (*primed)[p]) ++*mismatches;
    }
    return Status::OK();
  }
  if (o.workload != "live-append") {
    for (const PlannedSession& e : LowerScripts(o)) {
      session(e.star_column, e.script, true);
    }
    return Status::OK();
  }

  const std::vector<std::string> stream = ReadLines(AppendStreamPath(o));
  std::deque<std::string> pinned;
  size_t next = kWalPrefillRows;
  for (const PlannedSession& e : LowerScripts(o)) {
    for (uint64_t i = 0; i < kPublishesPerReader * kSnapshotEveryRows; ++i) {
      if (next >= stream.size()) return Status::Internal("stream exhausted");
      call("append dataset=data " + stream[next++], "append");
    }
    pinned.push_back(session(e.star_column, e.script, false).first);
    if (pinned.size() > kPinnedReaders) {
      call("close " + pinned.front(), "close");
      pinned.pop_front();
    }
  }
  for (const std::string& token : pinned) call("close " + token, "close");
  return Status::OK();
}

/// The workload's program, freshly stood up.
Result<std::unique_ptr<Stack>> FreshStack(const Options& o) {
  PrepareWal(o);
  return StandUp(o);
}

/// The repeat pass's program: the workload's table (its first 200k rows;
/// a hit costs the same at any size, and priming the 1M table exactly
/// would take a minute) behind a service with the default expansion cache,
/// primed by running every dashboard path once. `primed` receives each
/// path's responses, token blanked.
Result<std::unique_ptr<Stack>> RepeatStack(const Options& o, Primed* primed) {
  auto stack = std::make_unique<Stack>();
  CsvOptions csv;
  csv.max_rows = kBaseRows;
  SMARTDD_ASSIGN_OR_RETURN(Table table, ReadCsvFile(BaseCsvPath(o), csv));
  stack->table = std::make_unique<Table>(std::move(table));
  api::ServiceOptions options;
  options.token_seed = ServiceOptionsFor(o.workload).token_seed;
  stack->service = std::make_unique<api::ExplorationService>(options);
  SMARTDD_RETURN_IF_ERROR(
      stack->service->AddShardedTable("data", *stack->table, Weight(), 1));
  for (const PlannedSession& path : DashboardPaths(o.seed)) {
    std::string response = stack->service->ServeLine(kOpenLine);
    const std::string token = TokenOf(response);
    std::vector<std::string> clicks;
    for (const Click& click : path.script) {
      const int node = ResolvePath(response, click.path);
      if (node < 0) continue;
      response = stack->service->ServeLine(ClickLine(click, token, node));
      clicks.push_back(BlankToken(response, token));
    }
    stack->service->ServeLine("close " + token);
    primed->push_back(std::move(clicks));
  }
  return stack;
}

/// Minimal blocking keep-alive HTTP/1.1 client for the /v1 JSON routes.
class HttpClient {
 public:
  explicit HttpClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ok_ = fd_ >= 0 &&
          ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~HttpClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Maps a codec line to its /v1 route and returns the response body
  /// without its trailing newline ("" on a transport failure).
  std::string Serve(const std::string& line) {
    static const std::map<std::string, std::string> kRoutes = {
        {"open", "/v1/open"},   {"expand", "/v1/expand"},
        {"star", "/v1/expandstar"}, {"close", "/v1/close"},
        {"show", "/v1/tree"},   {"append", "/v1/append"}};
    const size_t sp = line.find(' ');
    const std::string verb = line.substr(0, sp);
    const std::string body = sp == std::string::npos ? "" : line.substr(sp + 1);
    auto route = kRoutes.find(verb);
    if (!ok_ || route == kRoutes.end()) return {};
    std::string request = "POST " + route->second + " HTTP/1.1\r\nHost: b\r\n" +
                          "Content-Length: " + std::to_string(body.size()) +
                          "\r\n\r\n" + body;
    for (size_t sent = 0; sent < request.size();) {
      ssize_t w = ::send(fd_, request.data() + sent, request.size() - sent,
                         MSG_NOSIGNAL);
      if (w <= 0) return {};
      sent += static_cast<size_t>(w);
    }
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return {};
    }
    const size_t cl = buffer_.find("Content-Length: ");
    if (cl == std::string::npos || cl > header_end) return {};
    const size_t total = header_end + 4 + std::stoul(buffer_.substr(cl + 16));
    while (buffer_.size() < total) {
      if (!Fill()) return {};
    }
    std::string out = buffer_.substr(header_end + 4, total - header_end - 4);
    buffer_.erase(0, total);
    if (!out.empty() && out.back() == '\n') out.pop_back();
    return out;
  }

 private:
  bool Fill() {
    char buf[16384];
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    buffer_.append(buf, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  bool ok_ = false;
  std::string buffer_;
};

/// One transport replay of the repeat traffic: every request as a span
/// named `name`, and every response checked byte for byte against the api
/// replay.
Status TransportReplay(const Options& o, const std::string& name,
                       const std::function<std::string(const std::string&)>& send,
                       const Responses& expected, Record* r) {
  Responses got;
  SMARTDD_RETURN_IF_ERROR(ReplayRequests(
      o, /*repeat=*/true,
      [&](const std::string& line, const std::string& id) {
        const uint64_t span = r->BeginSpan(name, id);
        std::string response = send(line);
        r->EndSpan(span);
        return response;
      },
      &got));
  r->Gate(got == expected, name + "_matches_serveline",
          std::to_string(got.size()) + " responses");
  return Status::OK();
}

/// The api surface: ParseRequest, Execute and EncodeResponse under one
/// `<prefix>.request` span, with an `<prefix>.execute` child (named
/// `<prefix>.execute.hit` when the expansion cache answered).
ServeFn TracedApi(api::ExplorationService& service, const std::string& prefix,
                  Record* r) {
  return [&service, prefix, r](const std::string& line, const std::string& id) {
    const uint64_t span = r->BeginSpan(prefix + ".request", id);
    auto request = api::ParseRequest(line);
    if (!request.ok()) return request.status().ToString();
    const uint64_t hits = service.expansion_cache().hits();
    const uint64_t exec = r->BeginSpan(prefix + ".execute", id, span);
    api::Response response = service.Execute(*request);
    r->EndSpan(exec);
    std::string out = api::EncodeResponse(response);
    r->EndSpan(span);
    if (service.expansion_cache().hits() != hits) {
      r->spans[exec - 1].name += ".hit";
    }
    ++r->attempted;
    if (!IsOk(out)) ++r->failed;
    return out;
  };
}

/// cold-drill's repeat pass: cache, net and cluster on primed hit traffic.
Status RepeatReplay(const Options& o, Record* r) {
  Responses expected;
  {
    Primed primed;
    SMARTDD_ASSIGN_OR_RETURN(auto stack, RepeatStack(o, &primed));
    cache::ExpansionCache& cache = stack->service->expansion_cache();
    const uint64_t hits0 = cache.hits(), misses0 = cache.misses();
    const uint64_t evictions0 = cache.evictions();
    const uint64_t waits0 = cache.singleflight_waits();
    size_t mismatches = 0;
    SMARTDD_RETURN_IF_ERROR(ReplayRequests(
        o, /*repeat=*/true, TracedApi(*stack->service, "repeat", r), &expected,
        &primed, &mismatches));
    r->Gate(mismatches == 0, "repeat_hits_identical_to_priming",
            std::to_string(mismatches) + " sessions differ");
    r->Gate(cache.misses() == misses0, "repeat_expands_all_hit",
            std::to_string(cache.misses() - misses0) + " misses");
    r->counters["cache.hits"] = static_cast<double>(cache.hits() - hits0);
    r->counters["cache.misses"] = static_cast<double>(cache.misses() - misses0);
    r->counters["cache.evictions"] =
        static_cast<double>(cache.evictions() - evictions0);
    r->counters["cache.singleflight_waits"] =
        static_cast<double>(cache.singleflight_waits() - waits0);
    r->counters["cache.bytes"] = static_cast<double>(cache.bytes());
  }
  {
    Primed primed;
    SMARTDD_ASSIGN_OR_RETURN(auto stack, RepeatStack(o, &primed));
    net::ExplorationHttpAdapter adapter(stack->service.get());
    net::HttpServerOptions ho;
    ho.worker_threads = 1;
    net::HttpServer server(adapter.AsHandler(), ho);
    SMARTDD_RETURN_IF_ERROR(server.Start());
    HttpClient client(server.port());
    Status s = TransportReplay(
        o, "net.request",
        [&](const std::string& line) { return client.Serve(line); }, expected,
        r);
    server.Shutdown();
    SMARTDD_RETURN_IF_ERROR(s);
  }
  Primed primed;
  SMARTDD_ASSIGN_OR_RETURN(auto stack, RepeatStack(o, &primed));
  api::LocalWireService wire(stack->service.get());
  cluster::ShardServer shard(&wire);
  SMARTDD_RETURN_IF_ERROR(shard.Start());
  cluster::Router router({{"127.0.0.1", shard.port()}});
  Status s = router.Start();
  if (s.ok()) {
    s = TransportReplay(
        o, "cluster.request",
        [&](const std::string& line) { return router.ServeWire(line).json; },
        expected, r);
  }
  router.Shutdown();
  shard.Shutdown();
  return s;
}

Status LiveReplay(const Options& o, Record* r) {
  SMARTDD_ASSIGN_OR_RETURN(Table base, ReadCsvFile(BaseCsvPath(o)));
  const std::string wal = o.dir + "/trace.wal";
  std::filesystem::remove(wal);
  live::LiveTableOptions lo;
  lo.wal_path = wal;
  lo.snapshot_every_rows = 0;  // publishes are explicit below, to time them
  lo.fsync_every_records = 0;
  SMARTDD_ASSIGN_OR_RETURN(auto table, live::LiveTable::Create(std::move(base), lo));
  const std::vector<std::string> stream = ReadLines(AppendStreamPath(o));

  struct Version {
    std::shared_ptr<const live::TableSnapshot> snapshot;
    std::unique_ptr<ShardedEngine> engine;
  };
  std::deque<Version> alive;
  uint64_t appended = 0;
  size_t next = kWalPrefillRows;
  for (size_t p = 0; p < kTracedLivePublishes; ++p) {
    for (uint64_t i = 0; i < kSnapshotEveryRows; ++i, ++appended) {
      const std::string id = "append#" + std::to_string(appended);
      const uint64_t span = r->BeginSpan("live.append", id);
      Status s = table->Append(stream[next++]);
      r->EndSpan(span);
      SMARTDD_RETURN_IF_ERROR(s);
    }
    const std::string id = "publish#" + std::to_string(p);
    uint64_t span = r->BeginSpan("live.publish", id);
    Version v;
    v.snapshot = table->PublishSnapshot();
    r->EndSpan(span);
    span = r->BeginSpan("live.version_engine", id);
    ShardedEngineOptions eo;
    eo.num_shards = 1;
    SMARTDD_ASSIGN_OR_RETURN(v.engine,
                             ShardedEngine::Create(v.snapshot->table, Weight(), eo));
    r->EndSpan(span);
    r->counters["live.version_bytes_sum"] +=
        static_cast<double>(v.snapshot->table.resident_column_bytes());
    alive.push_back(std::move(v));
    // Readers pin the last few versions; older ones are retired.
    if (alive.size() > kPinnedReaders + 1) alive.pop_front();
  }
  r->counters["live.versions_alive"] = static_cast<double>(alive.size());
  r->counters["live.publishes"] = static_cast<double>(kTracedLivePublishes);
  r->counters["live.wal_bytes_per_row"] =
      static_cast<double>(table->Info().wal_bytes) / static_cast<double>(appended);
  return Status::OK();
}

}  // namespace

Status RunTraced(const Options& o, Record* r) {
  // storage: the CSV load that opens every set-up.
  std::unique_ptr<Table> table;
  for (size_t i = 0; i < kCsvLoads; ++i) {
    const uint64_t span = r->BeginSpan("storage.csv_load", "load#" + std::to_string(i));
    auto loaded = ReadCsvFile(BaseCsvPath(o));
    r->EndSpan(span);
    if (!loaded.ok()) return loaded.status();
    table = std::make_unique<Table>(std::move(loaded).value());
  }
  r->counters["storage.table_bytes"] =
      static_cast<double>(table->resident_column_bytes());

  const std::vector<PlannedSession> lower = LowerScripts(o);
  if (o.workload == "sampled-drill") {
    MemoryScanSource source(*table);
    SampleHandler sampler(source, SampledEngineOptions().sampler);
    SMARTDD_ASSIGN_OR_RETURN(
        auto engine,
        ExplorationEngine::Create(source, Weight(), SampledEngineOptions()));
    SMARTDD_RETURN_IF_ERROR(
        LowerAndExploreReplay(*table, &sampler, *engine, lower, r));
  } else {
    ShardedEngineOptions eo;
    eo.num_shards = 1;
    SMARTDD_ASSIGN_OR_RETURN(auto engine,
                             ShardedEngine::Create(*table, Weight(), eo));
    SMARTDD_RETURN_IF_ERROR(
        LowerAndExploreReplay(*table, nullptr, engine->front(), lower, r));
    SMARTDD_RETURN_IF_ERROR(SamplingReplay(*table, lower, r));
  }

  // api, untraced then traced, each on a fresh stack: the wall-time ratio
  // is the tracing overhead.
  Responses expected;
  {
    SMARTDD_ASSIGN_OR_RETURN(auto stack, FreshStack(o));
    const double t0 = NowSeconds();
    SMARTDD_RETURN_IF_ERROR(ReplayRequests(
        o, /*repeat=*/false,
        [&](const std::string& line, const std::string&) {
          return stack->service->ServeLine(line);
        },
        &expected));
    r->counters["trace.untraced_wall_s"] = NowSeconds() - t0;
  }
  {
    SMARTDD_ASSIGN_OR_RETURN(auto stack, FreshStack(o));
    Responses traced;
    const double t0 = NowSeconds();
    SMARTDD_RETURN_IF_ERROR(ReplayRequests(
        o, /*repeat=*/false, TracedApi(*stack->service, "api", r), &traced));
    r->counters["trace.traced_wall_s"] = NowSeconds() - t0;
    r->Gate(traced == expected, "api_execute_matches_serveline",
            std::to_string(traced.size()) + " responses");
  }

  SMARTDD_RETURN_IF_ERROR(RepeatReplay(o, r));
  return LiveReplay(o, r);
}

}  // namespace perfbench
