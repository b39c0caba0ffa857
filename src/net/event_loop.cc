#include "net/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace smartdd::net {

namespace {

/// epoll user-data keys for the two non-connection fds; connection ids
/// start above them.
constexpr uint64_t kListenKey = 0;
constexpr uint64_t kEventKey = 1;
constexpr uint64_t kFirstConnId = 2;

constexpr int kEpollWaitMs = 50;
/// How long graceful shutdown keeps pumping finished output after the
/// drain, so the last answer of every connection is delivered, not cut.
constexpr uint64_t kFinalFlushMs = 2000;

}  // namespace

// --- LoopCore --------------------------------------------------------------

void LoopCore::MarkDirty(uint64_t id) {
  std::lock_guard<std::mutex> lock(dirty_mu);
  if (id >= kFirstConnId) dirty.push_back(id);
  if (event_fd >= 0) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof(one));
  }
}

void LoopCore::DecrementInflight() {
  if (inflight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mu);
    drain_cv.notify_all();
  }
}

// --- EventLoop -------------------------------------------------------------

EventLoop::EventLoop(ConnectionProtocol& protocol,
                     std::shared_ptr<LoopCore> core, EventLoopOptions options,
                     Counter& connections_total, Gauge& connections_open)
    : protocol_(protocol),
      core_(std::move(core)),
      options_(std::move(options)),
      connections_total_(connections_total),
      connections_open_(connections_open),
      next_conn_id_(kFirstConnId) {}

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start() {
  SMARTDD_CHECK(!running()) << "server started twice";

  // Belt and braces with the MSG_NOSIGNAL on every ::send: a peer that
  // slams its socket shut mid-write must surface as EPIPE (handled),
  // never as a process-killing SIGPIPE — some libc paths (and any future
  // write site missing the flag) would otherwise raise it.
  ::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    CloseListener();
    return Status::InvalidArgument(
        StrFormat("bad bind address '%s'", options_.bind_address.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    Status status = Status::IOError(
        StrFormat("bind/listen %s:%u: %s", options_.bind_address.c_str(),
                  unsigned{options_.port}, std::strerror(errno)));
    CloseListener();
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  int event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || event_fd < 0) {
    CloseListener();
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    epoll_fd_ = -1;
    if (event_fd >= 0) ::close(event_fd);
    return Status::IOError("epoll_create1/eventfd failed");
  }
  {
    std::lock_guard<std::mutex> lock(core_->dirty_mu);
    core_->event_fd = event_fd;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kEventKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd, &ev);

  stop_.store(false);
  draining_.store(false);
  abort_.store(false);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this]() { Run(); });
  const size_t workers = std::max<size_t>(1, options_.worker_threads);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
  return Status::OK();
}

void EventLoop::Shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  draining_.store(true, std::memory_order_release);
  core_->MarkDirty(kEventKey);  // just a poke; the loop starts the drain

  {
    std::unique_lock<std::mutex> lock(core_->drain_mu);
    core_->drain_cv.wait_for(
        lock, std::chrono::milliseconds(options_.drain_timeout_ms),
        [this]() {
          return core_->inflight.load(std::memory_order_acquire) == 0;
        });
  }
  Join();
}

void EventLoop::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // abort_ before draining_: the loop must never mistake a stop for a
  // graceful drain and run OnDrain.
  abort_.store(true, std::memory_order_release);
  draining_.store(true, std::memory_order_release);
  Join();
}

void EventLoop::Join() {
  stop_.store(true, std::memory_order_release);
  core_->MarkDirty(kEventKey);
  loop_thread_.join();

  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    workers_stop_ = true;
  }
  tasks_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();

  // Close the wakeup fd only after every thread that could poke it is
  // gone; a straggler completion co-owns the core, takes dirty_mu, sees
  // -1, and skips the write.
  {
    std::lock_guard<std::mutex> lock(core_->dirty_mu);
    if (core_->event_fd >= 0) ::close(core_->event_fd);
    core_->event_fd = -1;
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
  CloseListener();
}

void EventLoop::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    tasks_.push_back(std::move(task));
  }
  tasks_cv_.notify_one();
}

void EventLoop::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(tasks_mu_);
      tasks_cv_.wait(lock,
                     [this]() { return workers_stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // workers_stop_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

std::vector<std::shared_ptr<Connection>> EventLoop::Snapshot() const {
  std::vector<std::shared_ptr<Connection>> conns;
  conns.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) conns.push_back(conn);
  return conns;
}

void EventLoop::CloseListener() {
  if (listen_fd_ < 0) return;
  if (epoll_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void EventLoop::Run() {
  std::vector<epoll_event> events(64);
  bool drain_started = false;
  uint64_t flush_deadline = 0;
  while (true) {
    if (stop_.load(std::memory_order_acquire)) {
      if (abort_.load(std::memory_order_acquire)) break;
      // Final-flush phase: in-flight work has drained (or timed out), but
      // finished answers may still sit in connection buffers.
      if (flush_deadline == 0) flush_deadline = NowMsSteady() + kFinalFlushMs;
      bool pending = false;
      for (auto it = conns_.begin(); !pending && it != conns_.end(); ++it) {
        std::lock_guard<std::mutex> lock(it->second->mu);
        pending = !it->second->out.empty();
      }
      if (!pending || NowMsSteady() >= flush_deadline) break;
    }
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), kEpollWaitMs);
    if (draining_.load(std::memory_order_acquire) && !drain_started) {
      // Graceful shutdown step 1: stop accepting. Live connections keep
      // flushing and in-flight work keeps running until drained.
      drain_started = true;
      CloseListener();
      if (!abort_.load(std::memory_order_acquire)) {
        for (const auto& conn : Snapshot()) {
          protocol_.OnDrain(*conn);
          Flush(conn);
        }
      }
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t key = events[i].data.u64;
      if (key == kListenKey) {
        if (listen_fd_ >= 0) AcceptAll();
      } else if (key == kEventKey) {
        uint64_t drainer;
        while (::read(core_->event_fd, &drainer, sizeof(drainer)) > 0) {
        }
      } else if (auto it = conns_.find(key); it != conns_.end()) {
        // Copy the owner: HandleIo may Close, which erases the entry.
        std::shared_ptr<Connection> conn = it->second;
        HandleIo(conn, events[i].events);
      }
    }
    // Serve wakeups from workers (output queued, work finished).
    std::vector<uint64_t> dirty;
    {
      std::lock_guard<std::mutex> lock(core_->dirty_mu);
      dirty.swap(core_->dirty);
    }
    for (uint64_t id : dirty) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      bool aborted;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        aborted = conn->abort_conn;
      }
      if (aborted) {
        Close(conn);
        continue;
      }
      protocol_.OnWake(conn);
      Flush(conn);
    }
    SweepIdle();
  }
  // Loop exit: tear down whatever is left (drain timeout stragglers).
  for (const auto& conn : Snapshot()) Close(conn);
}

void EventLoop::AcceptAll() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error; epoll will re-arm
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_total_.Inc();
    if (conns_.size() >= options_.max_connections ||
        draining_.load(std::memory_order_acquire)) {
      protocol_.Refuse(fd);
      ::close(fd);
      continue;
    }
    const uint64_t id = next_conn_id_++;
    std::shared_ptr<Connection> conn = protocol_.Admit(fd, id);
    conn->last_activity_ms = NowMsSteady();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conn->armed_mask = EPOLLIN;
    conns_.emplace(id, conn);
    open_conns_.fetch_add(1, std::memory_order_acq_rel);
    connections_open_.Add(1);
    Flush(conn);
  }
}

void EventLoop::HandleIo(const std::shared_ptr<Connection>& conn,
                         uint32_t events) {
  if (events & (EPOLLHUP | EPOLLERR)) {
    Close(conn);
    return;
  }
  if (events & EPOLLIN) {
    // Bounded input buffering: past the budget the loop stops reading (the
    // EPOLLIN re-arm in Flush drops) and TCP backpressure holds the peer.
    const size_t budget = protocol_.InputBudget(*conn);
    char buf[16384];
    while (!conn->read_eof && conn->in.size() < budget) {
      ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (r > 0) {
        conn->in.append(buf, static_cast<size_t>(r));
        conn->last_activity_ms = NowMsSteady();
      } else if (r == 0) {
        conn->read_eof = true;
      } else if (errno == EINTR) {
        continue;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      } else {
        Close(conn);
        return;
      }
    }
    protocol_.OnInput(conn);
  }
  Flush(conn);
}

void EventLoop::Flush(const std::shared_ptr<Connection>& conn) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  bool io_error = false;
  bool out_empty;
  bool done;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    while (!conn->out.empty()) {
      ssize_t w = ::send(conn->fd, conn->out.data(),
                         std::min<size_t>(conn->out.size(), 1 << 16),
                         MSG_NOSIGNAL);
      if (w > 0) {
        // erase-from-front is O(pending); pending is capped by the
        // protocol's stream buffer limit, so this stays cheap.
        conn->out.erase(0, static_cast<size_t>(w));
        conn->last_activity_ms = NowMsSteady();
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        io_error = true;
        break;
      }
    }
    out_empty = conn->out.empty();
    // Decided under the same lock as the emptiness check: a worker that
    // appends a last answer in between would otherwise be closed on.
    done = !io_error && out_empty && protocol_.MayClose(*conn);
  }
  if (io_error || done) {
    Close(conn);
    return;
  }

  uint32_t mask = 0;
  if (!conn->read_eof && conn->in.size() < protocol_.InputBudget(*conn)) {
    mask |= EPOLLIN;
  }
  if (!out_empty) mask |= EPOLLOUT;
  if (mask != conn->armed_mask) {
    epoll_event ev{};
    ev.events = mask;
    ev.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->armed_mask = mask;
  }
}

void EventLoop::Close(const std::shared_ptr<Connection>& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  protocol_.OnClose(*conn);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->id);
  open_conns_.fetch_sub(1, std::memory_order_acq_rel);
  connections_open_.Sub(1);
}

void EventLoop::SweepIdle() {
  if (options_.idle_timeout_ms == 0) return;
  const uint64_t now = NowMsSteady();
  std::vector<std::shared_ptr<Connection>> victims;
  for (const auto& [id, conn] : conns_) {
    if (now - conn->last_activity_ms >= options_.idle_timeout_ms &&
        protocol_.ExpireIdle(*conn)) {
      victims.push_back(conn);
    }
  }
  for (const auto& conn : victims) Close(conn);
}

}  // namespace smartdd::net
