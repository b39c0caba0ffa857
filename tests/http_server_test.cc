// net/ tests: the epoll HTTP server's connection state machine (keep-alive
// pipelining, bounded parsing, slow-loris timeouts, load shedding, graceful
// shutdown) and the ExplorationHttpAdapter contract — concurrent HTTP
// clients produce byte-identical trees to direct ExplorationService calls,
// and the SSE expansion stream carries exactly the events a ProgressSink
// hears, with slow clients cancelled instead of stalling the engine.

#include "net/http_server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/codec.h"
#include "api/service.h"
#include "common/fault_injection.h"
#include "common/string_util.h"
#include "data/synth.h"
#include "explore/engine.h"
#include "live/wal.h"
#include "net/exploration_http_adapter.h"
#include "net/http_parser.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

using net::ExplorationHttpAdapter;
using net::HttpHandler;
using net::HttpLimits;
using net::HttpRequest;
using net::HttpResponse;
using net::HttpServer;
using net::HttpServerOptions;
using net::StreamWriter;

constexpr int kIoTimeoutMs = 10000;

/// Minimal blocking test client with poll()-based timeouts so a server bug
/// fails the test instead of hanging it.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t w = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (w <= 0) break;
      sent += static_cast<size_t>(w);
    }
  }

  /// Reads more bytes into the buffer; false on timeout or EOF.
  bool FillBuffer() {
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, 1, kIoTimeoutMs) <= 0) return false;
    char buf[16384];
    ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
    if (r <= 0) {
      eof_ = true;
      return false;
    }
    buffer_.append(buf, static_cast<size_t>(r));
    return true;
  }

  /// Reads one full response (headers + Content-Length or chunked body).
  /// Returns the raw bytes including headers; empty on failure.
  std::string ReadResponse() {
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!FillBuffer()) return std::string();
    }
    std::string headers = buffer_.substr(0, header_end + 4);
    std::string lower;
    for (char c : headers) lower += static_cast<char>(std::tolower(c));

    if (lower.find("transfer-encoding: chunked") != std::string::npos) {
      // Scan chunked frames until the terminal 0-length chunk.
      size_t at = header_end + 4;
      while (true) {
        size_t line_end;
        while ((line_end = buffer_.find("\r\n", at)) == std::string::npos) {
          if (!FillBuffer()) return std::string();
        }
        size_t chunk_len =
            std::stoul(buffer_.substr(at, line_end - at), nullptr, 16);
        size_t chunk_end = line_end + 2 + chunk_len + 2;
        while (buffer_.size() < chunk_end) {
          if (!FillBuffer()) return std::string();
        }
        at = chunk_end;
        if (chunk_len == 0) break;
      }
      std::string response = buffer_.substr(0, at);
      buffer_.erase(0, at);
      return response;
    }

    size_t content_length = 0;
    size_t cl = lower.find("content-length: ");
    if (cl != std::string::npos) {
      content_length = std::stoul(lower.substr(cl + 16));
    }
    size_t total = header_end + 4 + content_length;
    while (buffer_.size() < total) {
      if (!FillBuffer()) return std::string();
    }
    std::string response = buffer_.substr(0, total);
    buffer_.erase(0, total);
    return response;
  }

  std::string ReadBody() {
    std::string response = ReadResponse();
    size_t at = response.find("\r\n\r\n");
    return at == std::string::npos ? std::string() : response.substr(at + 4);
  }

  /// Strips chunked framing from a chunked response's body.
  static std::string DechunkedBody(const std::string& response) {
    size_t at = response.find("\r\n\r\n");
    if (at == std::string::npos) return std::string();
    at += 4;
    std::string body;
    while (at < response.size()) {
      size_t line_end = response.find("\r\n", at);
      if (line_end == std::string::npos) break;
      size_t len = std::stoul(response.substr(at, line_end - at), nullptr, 16);
      if (len == 0) break;
      body += response.substr(line_end + 2, len);
      at = line_end + 2 + len + 2;
    }
    return body;
  }

  /// Reads until `needle` shows up in the buffered bytes (without
  /// consuming anything); false on timeout/EOF.
  bool WaitForBuffered(std::string_view needle, int timeout_ms) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (buffer_.find(needle) == std::string::npos) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      if (!FillBuffer() && eof_) return false;
    }
    return true;
  }

  /// True once the server closes the connection (within the timeout).
  bool WaitForClose(int timeout_ms) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      pollfd p{fd_, POLLIN, 0};
      int n = ::poll(&p, 1, 100);
      if (n <= 0) continue;
      char buf[4096];
      ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
      if (r == 0) return true;
      if (r < 0) return true;
      buffer_.append(buf, static_cast<size_t>(r));
    }
    return false;
  }

  const std::string& buffered() const { return buffer_; }

 private:
  int fd_ = -1;
  bool connected_ = false;
  bool eof_ = false;
  std::string buffer_;
};

std::string GetRequest(std::string_view path, bool keep_alive = true) {
  std::string r = "GET ";
  r += path;
  r += " HTTP/1.1\r\nHost: t\r\n";
  if (!keep_alive) r += "Connection: close\r\n";
  r += "\r\n";
  return r;
}

std::string PostRequest(std::string_view path, std::string_view body) {
  std::string r = "POST ";
  r += path;
  r += " HTTP/1.1\r\nHost: t\r\n";
  r += StrFormat("Content-Length: %zu\r\n\r\n", body.size());
  r += body;
  return r;
}

int StatusOf(const std::string& response) {
  if (response.size() < 12) return -1;
  return std::atoi(response.c_str() + 9);
}

/// An echo handler: 200 with the method, path, and body reflected back.
HttpResponse EchoHandler(const HttpRequest& request,
                         const std::shared_ptr<StreamWriter>&) {
  HttpResponse r;
  r.content_type = "text/plain; charset=utf-8";
  r.body = request.method + " " + request.path + " [" + request.body + "]";
  return r;
}

Table MakeTable() {
  SynthSpec spec;
  spec.rows = 20000;
  spec.cardinalities = {6, 5, 4, 3};
  spec.zipf = {1.1, 0.7, 1.3, 0.4};
  spec.seed = 505;
  return GenerateSyntheticTable(spec);
}

// --- server state machine -----------------------------------------------

TEST(HttpServerTest, PipelinedKeepAliveRequestsAnswerInOrder) {
  HttpServer server(EchoHandler, {});
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Three pipelined requests in a single write.
  client.Send(PostRequest("/a", "one") + PostRequest("/b", "two") +
              GetRequest("/c"));
  std::string r1 = client.ReadResponse();
  std::string r2 = client.ReadResponse();
  std::string r3 = client.ReadResponse();
  EXPECT_EQ(StatusOf(r1), 200);
  EXPECT_NE(r1.find("POST /a [one]"), std::string::npos);
  EXPECT_NE(r2.find("POST /b [two]"), std::string::npos);
  EXPECT_NE(r3.find("GET /c []"), std::string::npos);
  // Keep-alive: the connection survives all three.
  client.Send(GetRequest("/later"));
  EXPECT_NE(client.ReadResponse().find("GET /later []"), std::string::npos);

  server.Shutdown();
}

TEST(HttpServerTest, InputBudgetPausesReadsThenResumesThePipeline) {
  // While the first request is handled, the pipelined followers overrun
  // the input budget: the server stops reading (TCP holds the rest) and
  // must resume once the budget frees, answering every request in order.
  std::atomic<bool> release{false};
  HttpServerOptions options;
  options.limits.max_request_line_bytes = 256;
  options.limits.max_header_bytes = 1024;
  options.limits.max_body_bytes = 1024;
  HttpServer server(
      [&](const HttpRequest& request, const std::shared_ptr<StreamWriter>& s) {
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return EchoHandler(request, s);
      },
      options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kRequests = 24;
  const std::string body(900, 'b');
  std::string pipeline;
  for (int i = 0; i < kRequests; ++i) {
    pipeline += PostRequest("/r" + std::to_string(i), body);
  }
  ASSERT_GT(pipeline.size(), 3 * options.limits.input_budget());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send(pipeline);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  release = true;
  for (int i = 0; i < kRequests; ++i) {
    std::string response = client.ReadResponse();
    ASSERT_EQ(StatusOf(response), 200) << "request " << i;
    EXPECT_NE(response.find("POST /r" + std::to_string(i) + " ["),
              std::string::npos);
  }
  server.Shutdown();
}

TEST(HttpServerTest, ConnectionCloseRequestsGetTheirWholeResponse) {
  // A fast handler finishes while the loop is still flushing after the
  // dispatch; the close decision must see the response it appended, so
  // every `Connection: close` request is answered in full before the close.
  HttpServerOptions options;
  options.worker_threads = 4;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 300; ++i) {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    const std::string path = "/c" + std::to_string(i);
    client.Send(GetRequest(path, /*keep_alive=*/false));
    std::string response = client.ReadResponse();
    ASSERT_EQ(StatusOf(response), 200) << "request " << i;
    ASSERT_NE(response.find("GET " + path + " []"), std::string::npos);
    ASSERT_TRUE(client.WaitForClose(kIoTimeoutMs));
  }
  server.Shutdown();
}

TEST(HttpServerTest, OversizedHeadersRejected431) {
  HttpServerOptions options;
  options.limits.max_header_bytes = 512;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  std::string request = "GET / HTTP/1.1\r\nHost: t\r\nX-Big: ";
  request += std::string(2048, 'x');
  request += "\r\n\r\n";
  client.Send(request);
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 431);
  EXPECT_TRUE(client.WaitForClose(kIoTimeoutMs));

  server.Shutdown();
}

TEST(HttpServerTest, OversizedRequestLineRejected414) {
  HttpServerOptions options;
  options.limits.max_request_line_bytes = 256;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // No newline at all: the 414 must fire from buffered length alone, so an
  // attacker cannot dodge the cap by never terminating the line.
  client.Send("GET /" + std::string(1024, 'y'));
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 414);

  server.Shutdown();
}

TEST(HttpServerTest, MalformedRequestLineRejected400) {
  HttpServer server(EchoHandler, {});
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  client.Send("NONSENSE\r\n\r\n");
  EXPECT_EQ(StatusOf(client.ReadResponse()), 400);
  server.Shutdown();
}

TEST(HttpServerTest, UnsupportedVersionRejected505) {
  HttpServer server(EchoHandler, {});
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  client.Send("GET / HTTP/2.0\r\n\r\n");
  EXPECT_EQ(StatusOf(client.ReadResponse()), 505);
  server.Shutdown();
}

TEST(HttpServerTest, DuplicateContentLengthRejected400) {
  // Conflicting duplicates are a request-smuggling vector: reject, never
  // pick one copy and desynchronize against an intermediary picking the
  // other.
  HttpServer server(EchoHandler, {});
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  client.Send(
      "POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n"
      "Content-Length: 5\r\n\r\nhello");
  EXPECT_EQ(StatusOf(client.ReadResponse()), 400);
  server.Shutdown();
}

TEST(HttpServerTest, ExpectContinueGetsInterimResponse) {
  HttpServer server(EchoHandler, {});
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  // Headers only — a standard client now waits for the 100 before sending
  // the body.
  client.Send(
      "POST /big HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n"
      "Content-Length: 5\r\n\r\n");
  std::string interim = client.ReadResponse();
  EXPECT_EQ(StatusOf(interim), 100);
  client.Send("hello");
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(response.find("POST /big [hello]"), std::string::npos);
  server.Shutdown();
}

TEST(HttpServerTest, SlowLorisConnectionTimesOut) {
  HttpServerOptions options;
  options.idle_timeout_ms = 150;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send("GET / HTTP/1.1\r\nHost: t\r\nX-Drip");  // stalls mid-header
  // The sweep must 408 + close well before the test timeout.
  EXPECT_TRUE(client.WaitForClose(5000));
  EXPECT_NE(client.buffered().find("408"), std::string::npos);

  // An idle connection with no request at all is also reclaimed.
  TestClient idle(server.port());
  ASSERT_TRUE(idle.connected());
  EXPECT_TRUE(idle.WaitForClose(5000));

  // The client observes EOF a beat before the server's bookkeeping lands;
  // poll instead of snapshotting.
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.open_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.open_connections(), 0u);
  server.Shutdown();
}

TEST(HttpServerTest, InflightLimitShedsWith503) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  HttpServerOptions options;
  options.max_inflight_requests = 2;
  options.worker_threads = 4;
  HttpServer server(
      [&](const HttpRequest&, const std::shared_ptr<StreamWriter>&) {
        entered.fetch_add(1);
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&]() { return release; });
        HttpResponse r;
        r.body = "slow done";
        return r;
      },
      options);
  ASSERT_TRUE(server.Start().ok());

  TestClient c1(server.port()), c2(server.port()), c3(server.port());
  c1.Send(GetRequest("/slow"));
  c2.Send(GetRequest("/slow"));
  // Wait until both are actually in flight (occupying the budget).
  while (entered.load() < 2) std::this_thread::sleep_for(
      std::chrono::milliseconds(5));

  c3.Send(GetRequest("/now"));
  std::string shed = c3.ReadResponse();
  EXPECT_EQ(StatusOf(shed), 503);
  EXPECT_NE(shed.find("Retry-After"), std::string::npos);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_EQ(StatusOf(c1.ReadResponse()), 200);
  EXPECT_EQ(StatusOf(c2.ReadResponse()), 200);
  // The shed connection is still usable once capacity frees up.
  c3.Send(GetRequest("/again"));
  EXPECT_EQ(StatusOf(c3.ReadResponse()), 200);

  server.Shutdown();
}

TEST(HttpServerTest, ConnectionLimitShedsWith503) {
  HttpServerOptions options;
  options.max_connections = 1;
  HttpServer server(EchoHandler, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient keeper(server.port());
  ASSERT_TRUE(keeper.connected());
  keeper.Send(GetRequest("/hold"));
  ASSERT_EQ(StatusOf(keeper.ReadResponse()), 200);

  TestClient refused(server.port());
  ASSERT_TRUE(refused.connected());  // accepted, then told off
  std::string response = refused.ReadResponse();
  EXPECT_EQ(StatusOf(response), 503);
  EXPECT_TRUE(refused.WaitForClose(kIoTimeoutMs));

  server.Shutdown();
}

TEST(HttpServerTest, GracefulShutdownFinishesInFlightRequest) {
  std::atomic<bool> entered{false};
  HttpServer server(
      [&](const HttpRequest&, const std::shared_ptr<StreamWriter>&) {
        entered.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        HttpResponse r;
        r.body = "finished cleanly";
        return r;
      },
      {});
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.port();

  TestClient client(port);
  client.Send(GetRequest("/slow", /*keep_alive=*/false));
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::thread shutdown([&]() { server.Shutdown(); });
  // The in-flight response must still arrive complete.
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(response.find("finished cleanly"), std::string::npos);
  shutdown.join();
  EXPECT_FALSE(server.running());

  // And the listener is gone: a new connection is either refused outright
  // or (if the SYN landed pre-close) never served.
  TestClient late(port);
  if (late.connected()) {
    late.Send(GetRequest("/x"));
    EXPECT_TRUE(late.WaitForClose(2000));
  }
}

TEST(HttpServerTest, AbruptClientCloseDoesNotKillServer) {
  // SIGPIPE regression: a peer that slams its socket shut while the server
  // still has bytes to write must surface as EPIPE (handled), never as a
  // process-killing signal.
  HttpServer server(EchoHandler, {});
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 5; ++i) {
    TestClient goner(server.port());
    ASSERT_TRUE(goner.connected());
    goner.Send(PostRequest("/burst", std::string(4096, 'x')));
    // TestClient's destructor closes the socket immediately — typically
    // before the echoed 4KB response has been flushed back.
  }
  // Let the event loop run its writes against the dead sockets.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  TestClient alive(server.port());
  ASSERT_TRUE(alive.connected());
  alive.Send(GetRequest("/still-here"));
  EXPECT_EQ(StatusOf(alive.ReadResponse()), 200);
  server.Shutdown();
}

// --- adapter ------------------------------------------------------------

struct AdapterFixture {
  AdapterFixture(const Table& table, HttpServerOptions options = {})
      : engine(*ExplorationEngine::Create(table, weight)),
        adapter(&service),
        server(adapter.AsHandler(), std::move(options)) {
    EXPECT_TRUE(service.AddEngine("synth", engine.get()).ok());
    EXPECT_TRUE(server.Start().ok());
  }
  ~AdapterFixture() { server.Shutdown(); }

  SizeWeight weight;
  std::unique_ptr<ExplorationEngine> engine;
  api::ExplorationService service;
  ExplorationHttpAdapter adapter;
  HttpServer server;
};

/// Drives open -> expand 0 -> expand child -> tree -> close over HTTP and
/// returns the final tree payload (the bytes after "tree":).
std::string DriveHttpClient(uint16_t port, int child) {
  TestClient client(port);
  EXPECT_TRUE(client.connected());
  client.Send(PostRequest("/v1/open", "k=3"));
  std::string open = client.ReadBody();
  size_t at = open.find("\"session\":\"");
  EXPECT_NE(at, std::string::npos) << open;
  std::string token = open.substr(at + 11, 16);

  client.Send(PostRequest("/v1/expand", token + " 0"));
  EXPECT_NE(client.ReadBody().find("\"ok\":true"), std::string::npos);
  client.Send(PostRequest("/v1/expand", token + " " + std::to_string(child)));
  EXPECT_NE(client.ReadBody().find("\"ok\":true"), std::string::npos);

  client.Send(PostRequest("/v1/tree", token));
  std::string shown = client.ReadBody();
  client.Send(PostRequest("/v1/close", token));
  EXPECT_NE(client.ReadBody().find("\"ok\":true"), std::string::npos);

  size_t tree = shown.find("\"tree\":");
  EXPECT_NE(tree, std::string::npos) << shown;
  // Strip the envelope (and trailing "}\n") down to the tree object.
  return shown.substr(tree + 7, shown.size() - tree - 7 - 2);
}

TEST(HttpAdapterTest, ConcurrentClientsByteIdenticalToDirectService) {
  Table table = MakeTable();
  SizeWeight weight;

  // Direct baselines, one per child variant, through the service codec.
  ExplorationEngine direct_engine(table, weight);
  api::ExplorationService direct;
  ASSERT_TRUE(direct.AddEngine("synth", &direct_engine).ok());
  std::vector<std::string> baselines;
  for (int child = 1; child <= 3; ++child) {
    std::string open = direct.ServeLine("open k=3");
    size_t at = open.find("\"session\":\"");
    ASSERT_NE(at, std::string::npos);
    std::string token = open.substr(at + 11, 16);
    EXPECT_NE(direct.ServeLine("expand " + token + " 0").find("\"ok\":true"),
              std::string::npos);
    EXPECT_NE(direct.ServeLine("expand " + token + " " + std::to_string(child))
                  .find("\"ok\":true"),
              std::string::npos);
    std::string shown = direct.ServeLine("show " + token);
    EXPECT_NE(direct.ServeLine("close " + token).find("\"ok\":true"),
              std::string::npos);
    size_t tree = shown.find("\"tree\":");
    ASSERT_NE(tree, std::string::npos);
    baselines.push_back(shown.substr(tree + 7, shown.size() - tree - 7 - 1));
  }

  AdapterFixture fixture(table);
  constexpr int kClients = 8;
  std::vector<std::string> trees(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      trees[c] = DriveHttpClient(fixture.server.port(), 1 + (c % 3));
    });
  }
  for (auto& t : threads) t.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(trees[c], baselines[c % 3]) << "client " << c;
  }
  EXPECT_EQ(fixture.service.num_sessions(), 0u);
}

/// Collects the exact SSE bytes a ProgressSink-driven expansion should
/// stream: per-step `id`/`event: step`/`data:` records, then `event: done`.
class GoldenSink : public api::ProgressSink {
 public:
  bool OnStep(const api::NodeView& rule, size_t step, size_t) override {
    golden += StrFormat("id: %zu\n", step);
    golden += "event: step\ndata: " + api::EncodeNode(rule) + "\n\n";
    return true;
  }
  void OnDone(const api::Response&) override {}
  std::string golden;
};

TEST(HttpAdapterTest, SseStreamMatchesProgressSinkGolden) {
  Table table = MakeTable();
  SizeWeight weight;

  // Direct golden: same deterministic token stream as the HTTP service.
  ExplorationEngine direct_engine(table, weight);
  api::ServiceOptions direct_options;
  direct_options.token_seed = 42;
  api::ExplorationService direct(direct_options);
  ASSERT_TRUE(direct.AddEngine("synth", &direct_engine).ok());
  std::string open = direct.ServeLine("open k=3");
  size_t at = open.find("\"session\":\"");
  ASSERT_NE(at, std::string::npos);
  uint64_t token = *api::ParseToken(open.substr(at + 11, 16));
  GoldenSink sink;
  api::ExpandRequest expand;
  expand.session = token;
  expand.node = 0;
  api::Response done = direct.Execute(api::Request(expand), &sink);
  ASSERT_TRUE(done.status.ok());
  std::string golden =
      sink.golden + "event: done\ndata: " + api::EncodeResponse(done) + "\n\n";

  // HTTP side: fresh engine/service with the same token seed.
  ExplorationEngine http_engine(table, weight);
  api::ServiceOptions service_options;
  service_options.token_seed = 42;
  api::ExplorationService service(service_options);
  ASSERT_TRUE(service.AddEngine("synth", &http_engine).ok());
  ExplorationHttpAdapter adapter(&service);
  HttpServer server(adapter.AsHandler(), {});
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  client.Send(PostRequest("/v1/open", "k=3"));
  std::string opened = client.ReadBody();
  size_t tok_at = opened.find("\"session\":\"");
  ASSERT_NE(tok_at, std::string::npos);
  std::string http_token = opened.substr(tok_at + 11, 16);
  ASSERT_EQ(http_token, api::FormatToken(token));

  client.Send(PostRequest("/v1/expand/stream", http_token + " 0"));
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(response.find("Content-Type: text/event-stream"),
            std::string::npos);
  EXPECT_EQ(TestClient::DechunkedBody(response), golden);

  // The stream is chunked keep-alive: the same connection serves more.
  client.Send(PostRequest("/v1/close", http_token));
  EXPECT_NE(client.ReadBody().find("\"ok\":true"), std::string::npos);

  server.Shutdown();
}

TEST(HttpAdapterTest, SseStreamViaGetQueryParameters) {
  Table table = MakeTable();
  AdapterFixture fixture(table);

  TestClient client(fixture.server.port());
  client.Send(PostRequest("/v1/open", "k=3"));
  std::string opened = client.ReadBody();
  size_t at = opened.find("\"session\":\"");
  ASSERT_NE(at, std::string::npos);
  std::string token = opened.substr(at + 11, 16);

  client.Send(
      GetRequest("/v1/expand/stream?session=" + token + "&node=0"));
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200);
  std::string body = TestClient::DechunkedBody(response);
  EXPECT_NE(body.find("event: step"), std::string::npos);
  EXPECT_NE(body.find("event: done"), std::string::npos);
  EXPECT_NE(body.find("\"ok\":true"), std::string::npos);
}

TEST(HttpAdapterTest, SlowSseClientCancelledWithoutStallingOthers) {
  Table table = MakeTable();
  HttpServerOptions options;
  // Cap far below one step event: the first OnStep overflows, cancelling
  // the expansion for this client only.
  options.max_stream_buffer_bytes = 64;
  AdapterFixture fixture(table, options);

  TestClient slow(fixture.server.port());
  slow.Send(PostRequest("/v1/open", "k=3"));
  std::string opened = slow.ReadBody();
  size_t at = opened.find("\"session\":\"");
  ASSERT_NE(at, std::string::npos);
  std::string token = opened.substr(at + 11, 16);

  slow.Send(PostRequest("/v1/expand/stream", token + " 0"));
  // The cancelled stream's connection is torn down without the terminal
  // chunk — never left hanging.
  EXPECT_TRUE(slow.WaitForClose(kIoTimeoutMs));

  // Other sessions keep working at full fidelity while/after that.
  std::string tree = DriveHttpClient(fixture.server.port(), 1);
  EXPECT_NE(tree.find("\"nodes\":"), std::string::npos);

  // The expansion was submitted against the slow session and cancelled;
  // closing it must still succeed (rules found so far became children).
  TestClient closer(fixture.server.port());
  closer.Send(PostRequest("/v1/close", token));
  EXPECT_NE(closer.ReadBody().find("\"ok\":true"), std::string::npos);
}

TEST(HttpAdapterTest, GracefulShutdownDrainsInFlightExpansion) {
  Table table = MakeTable();
  SizeWeight weight;
  auto engine = *ExplorationEngine::Create(table, weight);
  api::ExplorationService service;
  ASSERT_TRUE(service.AddEngine("synth", engine.get()).ok());
  ExplorationHttpAdapter adapter(&service);
  HttpServer server(adapter.AsHandler(), {});
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  client.Send(PostRequest("/v1/open", "k=3"));
  std::string opened = client.ReadBody();
  size_t at = opened.find("\"session\":\"");
  ASSERT_NE(at, std::string::npos);
  std::string token = opened.substr(at + 11, 16);

  // Fire the SSE expansion and wait until its response headers reach us —
  // proof the request was dispatched and the stream began (shutdown
  // starting before dispatch would legitimately shed it with 503). Only
  // then begin shutdown: the server must drain the stream (every step +
  // done) before closing.
  client.Send(PostRequest("/v1/expand/stream", token + " 0"));
  ASSERT_TRUE(client.WaitForBuffered("text/event-stream", kIoTimeoutMs));
  std::thread shutdown([&]() { server.Shutdown(); });
  std::string response = client.ReadResponse();
  shutdown.join();

  EXPECT_EQ(StatusOf(response), 200) << "response bytes: [" << response
                                     << "] buffered: [" << client.buffered()
                                     << "]";
  std::string body = TestClient::DechunkedBody(response);
  EXPECT_NE(body.find("event: done"), std::string::npos);
  EXPECT_NE(body.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(server.inflight_requests(), 0u);
}

TEST(HttpAdapterTest, DeadlineExceededExpandShipsPartialTreeAs200) {
  EXPECT_EQ(net::HttpStatusFor(Status::DeadlineExceeded("x")), 504);

  Table table = MakeTable();
  AdapterFixture fixture(table);

  TestClient client(fixture.server.port());
  client.Send(PostRequest("/v1/open", "k=3"));
  std::string opened = client.ReadBody();
  size_t at = opened.find("\"session\":\"");
  ASSERT_NE(at, std::string::npos);
  std::string token = opened.substr(at + 11, 16);

  // A deadline this small expires before greedy step 0: deterministically
  // degraded, zero new children, still a well-formed envelope carrying the
  // session and the partial tree. Degraded-but-usable ships as 200.
  client.Send(PostRequest("/v1/expand", token + " 0 deadline_ms=0.0001"));
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200);
  size_t split = response.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  std::string body = response.substr(split + 4);
  EXPECT_NE(body.find("\"ok\":false"), std::string::npos) << body;
  EXPECT_NE(body.find("\"code\":\"DEADLINE_EXCEEDED\""), std::string::npos);
  EXPECT_NE(body.find("\"partial\":true"), std::string::npos);
  EXPECT_NE(body.find("\"session\":\"" + token + "\""), std::string::npos);
  EXPECT_NE(body.find("\"tree\":"), std::string::npos);

  // The session degrades, it does not break: a full-budget expand on the
  // same node then succeeds.
  client.Send(PostRequest("/v1/expand", token + " 0"));
  EXPECT_NE(client.ReadBody().find("\"ok\":true"), std::string::npos);
  client.Send(PostRequest("/v1/close", token));
  EXPECT_NE(client.ReadBody().find("\"ok\":true"), std::string::npos);
}

TEST(HttpAdapterTest, SseStreamEmitsDegradedTerminalEvent) {
  Table table = MakeTable();
  AdapterFixture fixture(table);

  TestClient client(fixture.server.port());
  client.Send(PostRequest("/v1/open", "k=3"));
  std::string opened = client.ReadBody();
  size_t at = opened.find("\"session\":\"");
  ASSERT_NE(at, std::string::npos);
  std::string token = opened.substr(at + 11, 16);

  client.Send(PostRequest("/v1/expand/stream",
                          token + " 0 deadline_ms=0.0001"));
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200);
  std::string body = TestClient::DechunkedBody(response);
  EXPECT_NE(body.find("event: degraded"), std::string::npos) << body;
  EXPECT_EQ(body.find("event: done"), std::string::npos) << body;
  EXPECT_NE(body.find("\"partial\":true"), std::string::npos);

  // GET variant: deadline_ms rides a query parameter, and being a
  // key=value option it must not bump the expand into the star arity.
  client.Send(GetRequest("/v1/expand/stream?session=" + token +
                         "&node=0&deadline_ms=0.0001"));
  std::string get_response = client.ReadResponse();
  EXPECT_EQ(StatusOf(get_response), 200);
  std::string get_body = TestClient::DechunkedBody(get_response);
  EXPECT_NE(get_body.find("event: degraded"), std::string::npos) << get_body;

  client.Send(PostRequest("/v1/close", token));
  EXPECT_NE(client.ReadBody().find("\"ok\":true"), std::string::npos);
}

TEST(HttpAdapterTest, HealthMetricsAndRouting) {
  Table table = MakeTable();
  AdapterFixture fixture(table);

  TestClient client(fixture.server.port());
  client.Send(GetRequest("/healthz"));
  std::string health = client.ReadResponse();
  EXPECT_EQ(StatusOf(health), 200);
  EXPECT_NE(health.find("ok"), std::string::npos);

  client.Send(GetRequest("/nope"));
  EXPECT_EQ(StatusOf(client.ReadResponse()), 404);

  client.Send(GetRequest("/v1/open"));  // wrong method
  EXPECT_EQ(StatusOf(client.ReadResponse()), 405);

  client.Send(PostRequest("/v1/expand", "zz 0"));  // codec-level defect
  std::string bad = client.ReadResponse();
  EXPECT_EQ(StatusOf(bad), 400);
  EXPECT_NE(bad.find("INVALID_ARGUMENT"), std::string::npos);

  client.Send(GetRequest("/metrics"));
  std::string metrics = client.ReadResponse();
  EXPECT_EQ(StatusOf(metrics), 200);
  EXPECT_NE(metrics.find("smartdd_http_requests_total"), std::string::npos);
  EXPECT_NE(metrics.find("smartdd_scheduler_queue_depth"), std::string::npos);
  EXPECT_NE(metrics.find("smartdd_http_request_seconds_bucket"),
            std::string::npos);
  // Build identity ships with every /metrics-serving process: the value is
  // a constant 1, the information lives in the labels.
  EXPECT_NE(metrics.find("smartdd_build_info{version="), std::string::npos);
  EXPECT_NE(metrics.find("git_sha="), std::string::npos);
  EXPECT_NE(metrics.find("kernel="), std::string::npos);
}

// Liveness (/healthz) answers 200 for the whole process lifetime;
// readiness (/readyz) is the rotation signal — 503 before the service can
// serve opens and 503 the moment a drain starts.
TEST(HttpAdapterTest, ReadyzTracksEngineLoadAndDraining) {
  // A service with no engines yet: alive but not ready.
  api::ExplorationService empty_service;
  ExplorationHttpAdapter adapter(&empty_service);
  HttpServer server(adapter.AsHandler(), {});
  adapter.SetReadinessProbe([&server]() { return !server.draining(); });
  ASSERT_TRUE(server.Start().ok());

  {
    TestClient client(server.port());
    client.Send(GetRequest("/healthz"));
    std::string health = client.ReadResponse();
    EXPECT_EQ(StatusOf(health), 200);
    EXPECT_NE(health.find("ok"), std::string::npos);

    client.Send(GetRequest("/readyz"));
    std::string not_ready = client.ReadResponse();
    EXPECT_EQ(StatusOf(not_ready), 503);
    EXPECT_NE(not_ready.find("loading"), std::string::npos);
    EXPECT_NE(not_ready.find("Retry-After"), std::string::npos);

    client.Send(PostRequest("/readyz", ""));  // probes are GET-only
    EXPECT_EQ(StatusOf(client.ReadResponse()), 405);
  }

  // Engines registered: ready.
  Table table = MakeTable();
  SizeWeight weight;
  auto engine = ExplorationEngine::Create(table, weight);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(empty_service.AddEngine("synth", engine->get()).ok());
  {
    TestClient client(server.port());
    client.Send(GetRequest("/readyz"));
    std::string ready = client.ReadResponse();
    EXPECT_EQ(StatusOf(ready), 200);
    EXPECT_NE(ready.find("ready"), std::string::npos);
  }
  server.Shutdown();
}

TEST(HttpAdapterTest, ReadyzAnswersDrainingViaProbe) {
  Table table = MakeTable();
  AdapterFixture fixture(table);

  // Engines are loaded and no drain is in progress: ready. The probe is
  // the transport's half of the signal, so flipping it must answer 503
  // "draining" even while the engines stay healthy.
  std::atomic<bool> draining{false};
  fixture.adapter.SetReadinessProbe(
      [&draining]() { return !draining.load(); });

  TestClient client(fixture.server.port());
  client.Send(GetRequest("/readyz"));
  EXPECT_EQ(StatusOf(client.ReadResponse()), 200);

  draining = true;
  client.Send(GetRequest("/readyz"));
  std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 503);
  EXPECT_NE(response.find("draining"), std::string::npos);

  // Liveness is unaffected — the process should NOT be restarted, only
  // rotated out.
  client.Send(GetRequest("/healthz"));
  EXPECT_EQ(StatusOf(client.ReadResponse()), 200);
}

// While AddLiveTable rebuilds snapshots from a write-ahead log, /readyz
// must answer 503 `replaying` (with Retry-After, like every not-ready
// state) so a load balancer keeps traffic off the node until recovery
// lands — and flip to 200 `ready` the moment the replay finishes.
TEST(HttpAdapterTest, ReadyzAnswersReplayingDuringWalRebuild) {
  auto& faults = FaultRegistry::Default();
  faults.DisarmAll();
  std::string wal_path = ::testing::TempDir() + "/readyz_replaying.wal";
  std::remove(wal_path.c_str());
  {
    auto writer = live::WalWriter::Open(wal_path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE((*writer)->Append("a,b,c,d").ok());
    }
  }

  api::ExplorationService service;
  ExplorationHttpAdapter adapter(&service);
  HttpServer server(adapter.AsHandler(), {});
  ASSERT_TRUE(server.Start().ok());

  // Slow the replay down to an observable window: 50ms per frame.
  faults.ArmLatency("live.wal.replay", 50.0, 0);
  Table table = MakeTable();
  SizeWeight weight;
  std::thread loader([&service, &table, &weight, &wal_path]() {
    ASSERT_TRUE(
        service.AddLiveTable("synth", table, weight, wal_path).ok());
  });

  bool saw_replaying = false;
  for (int attempt = 0; attempt < 200 && !saw_replaying; ++attempt) {
    TestClient client(server.port());
    client.Send(GetRequest("/readyz"));
    std::string response = client.ReadResponse();
    if (response.find("replaying") != std::string::npos) {
      saw_replaying = true;
      EXPECT_EQ(StatusOf(response), 503);
      EXPECT_NE(response.find("Retry-After"), std::string::npos) << response;
      // `replaying` outranks `loading`: the node is doing recovery work,
      // not waiting for configuration.
      EXPECT_EQ(response.find("loading"), std::string::npos);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  loader.join();
  faults.DisarmAll();
  EXPECT_TRUE(saw_replaying)
      << "/readyz never reported `replaying` during the WAL rebuild";

  // Recovery done: the dataset is registered and the node is ready.
  TestClient client(server.port());
  client.Send(GetRequest("/readyz"));
  std::string ready = client.ReadResponse();
  EXPECT_EQ(StatusOf(ready), 200);
  EXPECT_NE(ready.find("ready"), std::string::npos);
  server.Shutdown();
  std::remove(wal_path.c_str());
}

// The live-table HTTP surface: /v1/append (single row), /v1/append/bulk
// (newline-separated rows, first bad row reported), /v1/tableinfo — and
// the version contract over HTTP: a session opened before the appends
// keeps serving its pinned version's bytes.
TEST(HttpAdapterTest, AppendAndTableInfoRoutes) {
  Table table = MakeTable();
  SizeWeight weight;
  api::ServiceOptions options;
  options.live_snapshot_every_rows = 1;
  api::ExplorationService service(options);
  ASSERT_TRUE(service.AddLiveTable("synth", table, weight).ok());
  ExplorationHttpAdapter adapter(&service);
  HttpServer server(adapter.AsHandler(), {});
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  client.Send(PostRequest("/v1/open", "k=3"));
  std::string open = client.ReadResponse();
  EXPECT_EQ(StatusOf(open), 200);
  size_t at = open.find("\"session\":\"");
  ASSERT_NE(at, std::string::npos) << open;
  std::string token = open.substr(at + 11, 16);
  client.Send(PostRequest("/v1/tree", token));
  std::string before = client.ReadResponse();

  client.Send(GetRequest("/v1/tableinfo?dataset=synth"));
  std::string info = client.ReadResponse();
  EXPECT_EQ(StatusOf(info), 200);
  EXPECT_NE(info.find("\"version\":1"), std::string::npos) << info;

  client.Send(PostRequest("/v1/append", "w,x,y,z"));
  std::string appended = client.ReadResponse();
  EXPECT_EQ(StatusOf(appended), 200);
  EXPECT_NE(appended.find("\"version\":2"), std::string::npos) << appended;

  client.Send(PostRequest("/v1/append/bulk?dataset=synth",
                          "b1,b1,b1,b1\nb2,b2,b2,b2\n\nb3,b3,b3,b3\n"));
  std::string bulk = client.ReadResponse();
  EXPECT_EQ(StatusOf(bulk), 200);
  EXPECT_NE(bulk.find("\"version\":5"), std::string::npos) << bulk;

  // A bulk body with a bad row stops there and reports it.
  client.Send(PostRequest("/v1/append/bulk", "ok,ok,ok,ok\nshort,row\n"));
  std::string bad_bulk = client.ReadResponse();
  EXPECT_EQ(StatusOf(bad_bulk), 400);
  EXPECT_NE(bad_bulk.find("INVALID_ARGUMENT"), std::string::npos) << bad_bulk;
  // The good prefix landed before the bad row was rejected.
  client.Send(GetRequest("/v1/tableinfo?dataset=synth"));
  EXPECT_NE(client.ReadResponse().find("\"version\":6"), std::string::npos);

  client.Send(PostRequest("/v1/append/bulk", ""));
  EXPECT_EQ(StatusOf(client.ReadResponse()), 400);

  // The pre-append session still renders its version-1 tree bytes.
  client.Send(PostRequest("/v1/tree", token));
  EXPECT_EQ(client.ReadResponse(), before);
  client.Send(PostRequest("/v1/close", token));
  EXPECT_EQ(StatusOf(client.ReadResponse()), 200);
  server.Shutdown();
}

}  // namespace
}  // namespace smartdd
