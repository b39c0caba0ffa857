#ifndef SMARTDD_NET_EVENT_LOOP_H_
#define SMARTDD_NET_EVENT_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace smartdd::net {

/// State co-owned by an EventLoop and every object that can outlive a
/// handler call (an HTTP StreamWriter, an rpc::Responder): the dirty list
/// with its eventfd wakeup, and the in-flight count the shutdown drain
/// waits on. A completion that arrives after its server is gone — work
/// that outlived the drain window — touches only this, never the server.
/// Protocols derive their own core to add stream caps and metrics.
struct LoopCore {
  /// Queues connection `id` for event-loop attention (its output grew or
  /// its work finished) and wakes the loop. Safe from any thread at any
  /// point in the server's lifetime: after shutdown the fd reads -1 under
  /// the same lock and the wakeup is skipped.
  void MarkDirty(uint64_t id);

  /// Releases one in-flight slot (taken with `inflight.fetch_add`); the
  /// last release wakes a waiting shutdown drain.
  void DecrementInflight();

  std::atomic<size_t> inflight{0};
  std::mutex drain_mu;
  std::condition_variable drain_cv;
  std::mutex dirty_mu;
  std::vector<uint64_t> dirty;
  /// Wakeup fd; -1 once shutdown closes it (lifetime guarded by dirty_mu).
  int event_fd = -1;
};

/// One accepted socket. Protocols derive their connection state from it.
/// The unannotated fields belong to the event-loop thread alone; what
/// workers touch sits behind `mu` or is atomic.
struct Connection {
  Connection(int fd, uint64_t id) : fd(fd), id(id) {}
  virtual ~Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const int fd;
  const uint64_t id;

  // --- event-loop thread only ---
  std::string in;           ///< received bytes the protocol has not parsed
  bool read_eof = false;    ///< the peer half-closed its write side
  uint32_t armed_mask = 0;  ///< events currently registered with epoll
  uint64_t last_activity_ms = 0;

  // --- shared with workers ---
  std::atomic<bool> closed{false};
  std::mutex mu;
  std::string out;          ///< bytes awaiting the socket (guarded by mu)
  bool abort_conn = false;  ///< discard `out` and close now (guarded by mu)
};

/// What a wire protocol decides about its connections; the EventLoop does
/// everything else. Every hook runs on the event-loop thread, without
/// `Connection::mu` held unless it says otherwise.
class ConnectionProtocol {
 public:
  virtual ~ConnectionProtocol() = default;

  /// Wraps a freshly accepted socket. Bytes queued in its `out` (a
  /// greeting) are flushed at once.
  virtual std::shared_ptr<Connection> Admit(int fd, uint64_t id) = 0;

  /// A socket turned away at max_connections or while draining; the
  /// protocol may send a best-effort refusal before the loop closes it.
  virtual void Refuse(int /*fd*/) {}

  /// Unparsed input the loop buffers before it stops reading (TCP
  /// backpressure holds the peer); 0 stops reading altogether.
  virtual size_t InputBudget(const Connection& conn) const = 0;

  /// Parses and acts on `conn->in`; runs after every read.
  virtual void OnInput(const std::shared_ptr<Connection>& conn) = 0;

  /// A worker marked the connection dirty (output queued, work finished).
  virtual void OnWake(const std::shared_ptr<Connection>& /*conn*/) {}

  /// Graceful shutdown began: runs once per live connection.
  virtual void OnDrain(Connection& /*conn*/) {}

  /// With `out` fully flushed: may the connection close now (its work is
  /// finished, or its peer half-closed and nothing is left to answer)?
  /// Runs with `conn.mu` held, so no worker can queue output between the
  /// flush and this answer; read the fields `mu` guards without locking.
  virtual bool MayClose(Connection& conn) = 0;

  /// The connection sat quiet for idle_timeout_ms: true closes it (after
  /// any parting words the protocol sends).
  virtual bool ExpireIdle(Connection& /*conn*/) { return false; }

  /// The connection is closing: cancel work still bound to it.
  virtual void OnClose(Connection& /*conn*/) {}
};

struct EventLoopOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;
  size_t worker_threads = 4;
  /// Accepted sockets beyond this are Refuse()d and closed.
  size_t max_connections = 1024;
  /// How long Shutdown() waits for in-flight work before closing anyway.
  uint64_t drain_timeout_ms = 10000;
  /// Quiet connections are offered to ExpireIdle after this; 0 disables.
  uint64_t idle_timeout_ms = 0;
};

/// The connection lifecycle shared by the HTTP and SDRP servers: one
/// event-loop thread owns the listener, epoll, the eventfd and every
/// socket (accept, read, flush, close, idle sweep), and a small worker
/// pool runs protocol handlers, so a slow peer can never wedge the loop and
/// a slow handler can never wedge other connections' I/O.
class EventLoop {
 public:
  /// `protocol` must outlive the loop. The counter and gauge are the
  /// protocol's accepted/open connection instruments.
  EventLoop(ConnectionProtocol& protocol, std::shared_ptr<LoopCore> core,
            EventLoopOptions options, Counter& connections_total,
            Gauge& connections_open);
  /// Stops abruptly if still running.
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Binds, listens, and spawns the event loop + workers. IOError on any
  /// socket failure (port in use), InvalidArgument on a bad address.
  Status Start();

  /// Graceful shutdown: closes the listener, runs OnDrain on every
  /// connection, waits up to drain_timeout_ms for in-flight work, pumps
  /// the remaining output briefly, then closes everything and joins.
  /// Idempotent; safe from any thread except a worker.
  void Shutdown();

  /// Abrupt stop: closes every connection now, abandoning buffered output
  /// and in-flight work (whose co-owned state outlives the loop safely).
  void Stop();

  /// Runs `task` on a worker thread.
  void Submit(std::function<void()> task);

  /// Closes `conn` (OnClose first). Event-loop thread only; pass an owned
  /// pointer, never a reference into the connection table.
  void Close(const std::shared_ptr<Connection>& conn);

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  size_t open_connections() const {
    return open_conns_.load(std::memory_order_acquire);
  }

 private:
  void Run();
  void WorkerLoop();
  void AcceptAll();
  void HandleIo(const std::shared_ptr<Connection>& conn, uint32_t events);
  /// Writes as much pending output as the socket accepts, closes the
  /// connection if the protocol says it is done, and re-arms epoll for
  /// exactly what it still needs.
  void Flush(const std::shared_ptr<Connection>& conn);
  void SweepIdle();
  void CloseListener();
  /// Stops the loop and the workers, then releases the fds.
  void Join();
  std::vector<std::shared_ptr<Connection>> Snapshot() const;

  ConnectionProtocol& protocol_;
  const std::shared_ptr<LoopCore> core_;
  const EventLoopOptions options_;
  Counter& connections_total_;
  Gauge& connections_open_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  uint16_t port_ = 0;

  std::mutex tasks_mu_;
  std::condition_variable tasks_cv_;
  std::deque<std::function<void()>> tasks_;  // guarded by tasks_mu_
  bool workers_stop_ = false;                // guarded by tasks_mu_

  /// Event-loop-thread-only connection table.
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> conns_;
  uint64_t next_conn_id_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> abort_{false};
  std::atomic<size_t> open_conns_{0};

  std::thread loop_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace smartdd::net

#endif  // SMARTDD_NET_EVENT_LOOP_H_
