#include "rpc/rpc_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <system_error>
#include <thread>

#include "common/secret.hpp"
#include "common/sha256.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "rpc/fault_injector.hpp"

namespace bnr::rpc {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void set_nonblock(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno("fcntl(O_NONBLOCK)");
}

/// SIGPIPE hardening, once per process: every socket send in this subsystem
/// already passes MSG_NOSIGNAL, but a peer reset racing a write on a future
/// code path (or a third-party fd inherited into the daemon) must never be
/// able to kill the process — writes see EPIPE and the owning loop closes
/// the connection like any other hard error.
void ignore_sigpipe_once() {
  static const int once = [] {
    struct sigaction sa {};
    sa.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &sa, nullptr);
    return 0;
  }();
  (void)once;
}

std::string hex_digest(std::span<const uint8_t> data) {
  Sha256 hs;
  hs.update(data);
  return to_hex(hs.finalize());
}

/// Constant-time shared-secret comparison: both sides are hashed (so even
/// the length comparison inside ct_equal leaks nothing — digests are fixed
/// width) and the digests compared without early exit.
bool constant_time_token_equal(std::string_view a, std::string_view b) {
  Sha256 ha, hb;
  ha.update(a);
  hb.update(b);
  auto da = ha.finalize();
  auto db = hb.finalize();
  return ct_equal(std::span<const uint8_t>(da), std::span<const uint8_t>(db));
}

/// Response frames gathered per writev call. IOV_MAX is 1024 on Linux; 64
/// already amortizes the syscall while keeping the stack array small.
constexpr size_t kMaxWriteIov = 64;

}  // namespace

/// Per-connection state. Owned by exactly one loop through IoLoop::conns;
/// completion-queue entries hold weak_ptrs only, so a disconnect drops its
/// pending responses without any cross-thread coordination.
struct RpcServer::Conn {
  Conn(int fd_, uint32_t max_frame, IoLoop* loop_)
      : fd(fd_), loop(loop_), frames(max_frame) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  /// One encoded response awaiting write. The trace (null unless obs was on
  /// when the request arrived) is stamped kFlushed when the LAST byte of
  /// this frame drains, which is the only latency a client can observe.
  struct OutFrame {
    Bytes bytes;
    std::shared_ptr<obs::RequestTrace> trace;
  };

  int fd;
  IoLoop* loop;  // fixed at accept: a conn never migrates between loops
  FrameBuffer frames;
  std::deque<OutFrame> wq;  // encoded frames awaiting write
  size_t wq_bytes = 0;
  size_t woff = 0;        // progress into wq.front()
  uint32_t events = 0;    // currently registered epoll interest mask
  bool read_shut = false; // shutdown drain: no further reads
  bool paused = false;    // backpressured: wq over high-water mark

  // Token bucket (owning loop thread only): starts full so a burst up to
  // conn_rate_burst is admitted before the rate bites.
  double tokens = 0;
  std::chrono::steady_clock::time_point last_refill{};
};

/// One IO loop: its own SO_REUSEPORT listener, epoll set, eventfd wake,
/// connection table, completion queue, and counter slice. Everything except
/// the completion queue and the counters is touched only by the loop's own
/// thread; the counters are relaxed atomics summed at snapshot time.
struct RpcServer::IoLoop {
  size_t index = 0;
  int listen_fd = -1;
  int epoll_fd = -1;
  int event_fd = -1;
  int reserve_fd = -1;  // burned to accept-and-close when out of fds

  std::unordered_map<int, std::shared_ptr<Conn>> conns;  // loop thread only

  struct Completion {
    std::weak_ptr<Conn> conn;
    Bytes payload;
    std::shared_ptr<obs::RequestTrace> trace;
  };
  std::mutex comp_m;
  std::vector<Completion> completions;

  // Per-loop counter slice: the loop thread (and, for nothing in this
  // struct, pool workers) writes relaxed; STATS/HEALTH sums across loops.
  std::atomic<uint64_t> accepts{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> frames_in{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> busy_inflight{0};   // BUSY: global in-flight cap
  std::atomic<uint64_t> busy_ratelimit{0};  // BUSY: token bucket empty
  std::atomic<uint64_t> shed_arrival{0};    // SHED: budget 0 at decode time

  ~IoLoop() {
    conns.clear();
    if (listen_fd >= 0) ::close(listen_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (event_fd >= 0) ::close(event_fd);
    if (reserve_fd >= 0) ::close(reserve_fd);
  }
};

RpcServer::RpcServer(ServerConfig cfg, service::ThreadPool& pool)
    : cfg_(std::move(cfg)),
      pool_(pool),
      params_(threshold::SystemParams::derive(cfg_.params_label)),
      registry_(params_),
      verifier_cache_(service::KeyCachePolicy{.byte_budget = cfg_.cache_bytes,
                                              .shards = cfg_.cache_shards}),
      combiner_cache_(service::KeyCachePolicy{.byte_budget = cfg_.cache_bytes,
                                              .shards = cfg_.cache_shards}) {
  ignore_sigpipe_once();
  // Providers run on pool workers (outside any shard lock). They receive
  // the CANONICAL cache key — the "<scheme>:<pk digest>" the tenant was
  // aliased onto — and read the digest-keyed registry maps, which are
  // immutable per digest. Keying the prepare by the digest (not the mutable
  // tenant record) is what makes a re-registration racing an in-flight
  // batch harmless: the worst case is preparing a verifier nobody looks up
  // again, never caching one under a digest it does not match. An
  // unregistered tenant's key resolves to itself, misses these maps, and
  // rejects the group.
  verify_ = std::make_unique<service::MultiTenantVerificationService>(
      verifier_cache_,
      [this](const std::string& canonical) {
        PkEntry entry;
        {
          std::lock_guard<std::mutex> l(reg_m_);
          auto it = pk_by_digest_.find(canonical);
          if (it == pk_by_digest_.end())
            throw RpcError("unknown tenant key: " + canonical);
          entry = it->second;
        }
        return std::shared_ptr<const threshold::PreparedVerifier>(
            registry_.at(entry.scheme).make_verifier(entry.pk));
      },
      cfg_.batch, pool_, "rpc-verify");
  combine_ = std::make_unique<service::MultiTenantCombineService>(
      combiner_cache_,
      [this](const std::string& canonical) {
        CommitteeEntry entry;
        {
          std::lock_guard<std::mutex> l(reg_m_);
          auto it = committee_by_digest_.find(canonical);
          if (it == committee_by_digest_.end())
            throw RpcError("not a combine-capable committee: " + canonical);
          entry = it->second;
        }
        return std::shared_ptr<const threshold::PreparedCombiner>(
            registry_.at(entry.scheme).make_combiner(*entry.committee));
      },
      pool_, "rpc-combine");

  // One listener per loop, every one bound to the SAME port with
  // SO_REUSEPORT: the kernel hashes incoming connections across them, so
  // accept parallelism needs no shared listener and no lock. Loop 0 binds
  // first (possibly ephemeral) and fixes the port for the rest.
  size_t n_loops = cfg_.io_threads;
  if (n_loops == 0) {
    size_t hw = std::thread::hardware_concurrency();
    n_loops = std::min<size_t>(4, std::max<size_t>(1, hw / 2));
  }
  request_hist_ = std::make_unique<obs::ShardedHistogram>(n_loops);
  loops_.reserve(n_loops);
  for (size_t i = 0; i < n_loops; ++i) {
    auto L = std::make_unique<IoLoop>();
    L->index = i;
    L->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (L->listen_fd < 0) throw_errno("socket");
    int one = 1;
    ::setsockopt(L->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::setsockopt(L->listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) < 0)
      throw_errno("setsockopt(SO_REUSEPORT)");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(i == 0 ? cfg_.port : port_);
    if (::inet_pton(AF_INET, cfg_.bind_addr.c_str(), &addr.sin_addr) != 1)
      throw std::invalid_argument("RpcServer: bad bind address " +
                                  cfg_.bind_addr);
    if (::bind(L->listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0)
      throw_errno("bind");
    if (::listen(L->listen_fd, 128) < 0) throw_errno("listen");
    if (i == 0) {
      socklen_t alen = sizeof(addr);
      if (::getsockname(L->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                        &alen) < 0)
        throw_errno("getsockname");
      port_ = ntohs(addr.sin_port);
    }
    set_nonblock(L->listen_fd);

    L->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (L->epoll_fd < 0) throw_errno("epoll_create1");
    L->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (L->event_fd < 0) throw_errno("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = L->event_fd;
    if (::epoll_ctl(L->epoll_fd, EPOLL_CTL_ADD, L->event_fd, &ev) < 0)
      throw_errno("epoll_ctl(eventfd)");
    ev.data.fd = L->listen_fd;
    if (::epoll_ctl(L->epoll_fd, EPOLL_CTL_ADD, L->listen_fd, &ev) < 0)
      throw_errno("epoll_ctl(listener)");
    L->reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    loops_.push_back(std::move(L));
  }
}

RpcServer::~RpcServer() {
  stop_.store(true, std::memory_order_release);
  // Offloaded decode tasks hold raw references to the services; wait for
  // them to land first (the pool keeps running — it outlives the server).
  {
    std::unique_lock<std::mutex> l(decode_m_);
    decode_cv_.wait(l, [&] { return decode_inflight_ == 0; });
  }
  // Services next (they drain every pool task, whose completions land
  // harmlessly in the per-loop queues against dead weak pointers), then the
  // loops close their sockets (member order: loops_ declared first).
  verify_.reset();
  combine_.reset();
  loops_.clear();
}

void RpcServer::stop() {
  stop_.store(true, std::memory_order_release);
  // loops_ is sized once in the constructor and never resized: traversing
  // it here is a read-only walk over pre-built state, and an eventfd write
  // is async-signal-safe.
  for (auto& L : loops_) wake(*L);
}

void RpcServer::wake(IoLoop& L) {
  uint64_t one = 1;
  // A saturated eventfd counter already guarantees a pending wake-up;
  // EAGAIN is success.
  [[maybe_unused]] ssize_t n = ::write(L.event_fd, &one, sizeof(one));
}

void RpcServer::run() {
  std::mutex err_m;
  std::exception_ptr err;
  auto drive = [&](IoLoop& L) {
    try {
      event_loop(L);
    } catch (...) {
      {
        std::lock_guard<std::mutex> l(err_m);
        if (!err) err = std::current_exception();
      }
      stop();  // one loop dying takes the rest down through the drain path
    }
  };
  std::vector<std::thread> extra;
  extra.reserve(loops_.size() - 1);
  for (size_t i = 1; i < loops_.size(); ++i)
    extra.emplace_back([&, i] { drive(*loops_[i]); });
  drive(*loops_[0]);
  for (auto& t : extra) t.join();
  if (err) std::rethrow_exception(err);
}

void RpcServer::event_loop(IoLoop& L) {
  using clock = std::chrono::steady_clock;
  bool draining = false;
  clock::time_point drain_deadline{};
  std::array<epoll_event, 128> evs;

  for (;;) {
    if (stop_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      drain_deadline = clock::now() + cfg_.drain_timeout;
      if (L.listen_fd >= 0) {
        ::close(L.listen_fd);  // close also removes it from the epoll set
        L.listen_fd = -1;
      }
      // Push pending service batches out now instead of waiting for their
      // deadline flush (once, whichever loop gets here first), and stop
      // reading: frames already buffered were parsed as they arrived, so
      // every accepted request is in flight.
      if (!drain_flushed_.exchange(true)) verify_->flush();
      for (auto& [fd, c] : L.conns) {
        c->read_shut = true;
        update_interest(L, *c);
      }
    }
    if (draining) {
      bool wq_empty = true;
      for (auto& [fd, c] : L.conns) wq_empty = wq_empty && c->wq.empty();
      // A loop with live connections must wait for the GLOBAL in-flight
      // count: any of those requests will complete into ITS queue. A loop
      // whose connections are all gone has nothing left to deliver.
      bool idle = L.conns.empty() ||
                  in_flight_.load(std::memory_order_acquire) == 0;
      if (idle) {
        std::lock_guard<std::mutex> l(L.comp_m);
        idle = L.completions.empty();
      }
      if ((idle && wq_empty) || clock::now() > drain_deadline) break;
    }

    int timeout_ms = draining ? 50 : -1;
    int n = ::epoll_wait(L.epoll_fd, evs.data(), int(evs.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }

    // Connection I/O first, the listener LAST: a connection closed in this
    // batch may free an fd number the accept path immediately reuses, and
    // processing accepts after every stale event is dispatched means a
    // recycled fd can never route an old connection's readiness to a new
    // one.
    bool accept_pending = false;
    for (int i = 0; i < n; ++i) {
      int fd = evs[i].data.fd;
      if (fd == L.event_fd) {
        uint64_t v;
        while (::read(L.event_fd, &v, sizeof(v)) < 0 && errno == EINTR) {
        }
        continue;
      }
      if (fd == L.listen_fd) {
        accept_pending = true;
        continue;
      }
      auto it = L.conns.find(fd);
      if (it == L.conns.end()) continue;  // closed earlier this batch
      auto c = it->second;                // keep alive across handlers
      if (evs[i].events & EPOLLOUT) write_ready(L, c);
      if (c->fd >= 0 && (evs[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)))
        read_ready(L, c);
      if (c->fd >= 0) update_interest(L, *c);
    }
    if (accept_pending && L.listen_fd >= 0) accept_ready(L);
    drain_completions(L);
  }

  total_conns_.fetch_sub(L.conns.size(), std::memory_order_relaxed);
  L.conns.clear();
}

void RpcServer::accept_ready(IoLoop& L) {
  for (;;) {
    int fd = ::accept(L.listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EMFILE || errno == ENFILE) {
        // Out of fds with a connection still queued: under level-triggered
        // epoll the listener would signal forever and busy-spin the loop.
        // Burn the loop's reserve fd to accept-and-close the connection
        // (the peer sees a clean refusal), then re-arm the reserve.
        if (L.reserve_fd >= 0) {
          ::close(L.reserve_fd);
          L.reserve_fd = -1;
          int victim = ::accept(L.listen_fd, nullptr, nullptr);
          if (victim >= 0) ::close(victim);
          L.reserve_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
          continue;
        }
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // other transient accept failures (ECONNABORTED) are skipped
    }
    // Connection cap (GLOBAL across loops): overflow is accepted-and-closed
    // so the pending queue cannot re-signal the level-triggered listener
    // forever, and the peer sees a clean close instead of a SYN backlog
    // timeout. The slot is RESERVED with one compare-exchange — a plain
    // check-then-fetch_add would let two loops racing on the last slot both
    // pass the check and transiently over-admit past the cap.
    if (!reserve_conn_slot()) {
      // Count before closing: a peer that sees the close and then reads
      // STATS must find the rejection already counted.
      L.rejected.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      BNR_LOG(obs::LogLevel::kWarn, "rpc", "conn_cap_reject",
              obs::kv("cap", uint64_t(cfg_.max_connections)));
      continue;
    }
    // Injected accept failure: the peer sees an immediate close, exactly the
    // shape of an accept() racing a dying listener.
    if (auto* f = FaultInjector::active(); f && f->on_accept()) {
      ::close(fd);
      total_conns_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    set_nonblock(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto c = std::make_shared<Conn>(fd, cfg_.max_frame, &L);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(L.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      c->fd = -1;
      total_conns_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    c->events = EPOLLIN;
    L.conns.emplace(fd, std::move(c));
    L.accepts.fetch_add(1, std::memory_order_relaxed);
  }
}

bool RpcServer::reserve_conn_slot() {
  size_t cur = total_conns_.load(std::memory_order_relaxed);
  for (;;) {
    if (cfg_.max_connections > 0 && cur >= cfg_.max_connections) return false;
    if (total_conns_.compare_exchange_weak(cur, cur + 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed))
      return true;
    // cur was reloaded by the failed CAS; re-check against the cap.
  }
}

void RpcServer::close_conn(IoLoop& L, const std::shared_ptr<Conn>& c) {
  if (c->fd < 0) return;
  int fd = c->fd;
  ::close(fd);  // also removes the fd from the epoll set
  c->fd = -1;
  L.conns.erase(fd);
  total_conns_.fetch_sub(1, std::memory_order_relaxed);
}

void RpcServer::update_interest(IoLoop& L, Conn& c) {
  if (c.fd < 0) return;
  // Backpressure with hysteresis: a connection that is not draining its
  // responses loses its read interest at the high-water mark and only
  // regains it below half, so a queue hovering at the threshold cannot
  // flap read interest on every event.
  if (c.paused && c.wq_bytes < cfg_.write_backpressure / 2)
    c.paused = false;
  else if (!c.paused && c.wq_bytes >= cfg_.write_backpressure)
    c.paused = true;
  uint32_t want = 0;
  if (!c.read_shut && !c.paused) want |= EPOLLIN;
  if (!c.wq.empty()) want |= EPOLLOUT;
  if (want == c.events) return;
  epoll_event ev{};
  ev.events = want;  // 0 still reports EPOLLHUP/EPOLLERR: errors stay visible
  ev.data.fd = c.fd;
  ::epoll_ctl(L.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  c.events = want;
}

void RpcServer::read_ready(IoLoop& L, const std::shared_ptr<Conn>& c) {
  uint8_t buf[65536];
  for (;;) {
    size_t want = sizeof(buf);
    if (auto* f = FaultInjector::active()) {
      // A clamped `want` models a short read (1 byte arrives); the other
      // fault shapes map onto the exact paths a real kernel would take.
      auto fault = f->on_io(FaultInjector::kServerRead, want);
      if (fault == FaultInjector::IoFault::kEagain) break;
      if (fault == FaultInjector::IoFault::kReset) {
        close_conn(L, c);
        return;
      }
    }
    ssize_t n = ::recv(c->fd, buf, want, 0);
    if (n > 0) {
      c->frames.feed({buf, size_t(n)});
      // A peer streaming faster than we parse must not stage unbounded
      // memory: cap the unparsed buffer at one max frame plus one read and
      // go parse; epoll is level-triggered, the rest re-signals.
      if (c->frames.buffered() > size_t(cfg_.max_frame) + sizeof(buf)) break;
      if (size_t(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error: a mid-request disconnect. In-flight completions
    // hold weak_ptrs and get dropped; the batches they folded into are
    // unaffected.
    close_conn(L, c);
    return;
  }

  Bytes frame;
  for (;;) {
    auto r = c->frames.next(frame);
    if (r == FrameBuffer::Result::kNeedMore) return;
    if (r == FrameBuffer::Result::kTooBig || !handle_frame(L, c, frame)) {
      L.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      // This close used to be silent: the peer sees the disconnect but the
      // operator had only a bare counter. One rate-limited line attributes
      // the teardown.
      BNR_LOG(obs::LogLevel::kWarn, "rpc", "protocol_error_close",
              obs::kv("fd", int64_t(c->fd)) +
                  obs::kv("oversized", r == FrameBuffer::Result::kTooBig));
      close_conn(L, c);
      return;
    }
  }
}

void RpcServer::write_ready(IoLoop& L, const std::shared_ptr<Conn>& c) {
  while (!c->wq.empty()) {
    // Gather every queued frame (up to kMaxWriteIov) into ONE writev: the
    // old per-frame send loop paid a syscall per response, which at batch
    // depth is exactly the overhead a batching daemon exists to avoid.
    iovec iov[kMaxWriteIov];
    size_t niov = 0, total = 0;
    size_t off = c->woff;
    for (auto it = c->wq.begin(); it != c->wq.end() && niov < kMaxWriteIov;
         ++it) {
      iov[niov].iov_base = const_cast<uint8_t*>(it->bytes.data() + off);
      iov[niov].iov_len = it->bytes.size() - off;
      total += iov[niov].iov_len;
      ++niov;
      off = 0;
    }
    size_t len = total;
    if (auto* f = FaultInjector::active()) {
      auto fault = f->on_io(FaultInjector::kServerWrite, len);
      if (fault == FaultInjector::IoFault::kEagain) return;
      if (fault == FaultInjector::IoFault::kReset) {
        close_conn(L, c);
        return;
      }
      if (len < total) {
        // Injected short write: clamp the gather list to `len` bytes so the
        // kernel cannot move more than the schedule allows.
        size_t budget = len;
        size_t k = 0;
        for (; k < niov && budget > 0; ++k) {
          if (iov[k].iov_len > budget) iov[k].iov_len = budget;
          budget -= iov[k].iov_len;
        }
        niov = std::max<size_t>(k, 1);
        total = len;
      }
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    ssize_t n = ::sendmsg(c->fd, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      close_conn(L, c);
      return;
    }
    // Consume n bytes across the queued frames. A fully drained frame is
    // the response's observable completion: stamp its trace and fold it
    // into the slow-trace ring before the frame is dropped.
    size_t left = size_t(n);
    while (left > 0) {
      Conn::OutFrame& front = c->wq.front();
      size_t avail = front.bytes.size() - c->woff;
      if (left >= avail) {
        left -= avail;
        c->wq_bytes -= front.bytes.size();
        if (front.trace) on_frame_flushed(L, *front.trace);
        c->wq.pop_front();
        c->woff = 0;
      } else {
        c->woff += left;
        left = 0;
      }
    }
    if (size_t(n) < total) return;  // kernel buffer full: wait for EPOLLOUT
  }
}

void RpcServer::send_now(const std::shared_ptr<Conn>& c, Bytes payload,
                         std::shared_ptr<obs::RequestTrace> trace) {
  if (c->fd < 0) return;
  IoLoop& L = *c->loop;
  Bytes framed;
  framed.reserve(4 + payload.size());
  append_frame(framed, payload, cfg_.max_frame);
  c->wq_bytes += framed.size();
  c->wq.push_back(Conn::OutFrame{std::move(framed), std::move(trace)});
  write_ready(L, c);  // opportunistic flush; the rest goes out via EPOLLOUT
  if (c->fd >= 0) update_interest(L, *c);
}

void RpcServer::on_frame_flushed(IoLoop& L, obs::RequestTrace& trace) {
  trace.stamp(obs::Stage::kFlushed);
  obs::TraceRecord rec = obs::TraceRecord::from(trace);
  request_hist_->record(L.index, rec.total_ns);
  trace_ring_.offer(rec);
}

void RpcServer::complete(const std::weak_ptr<Conn>& wc, Bytes payload,
                         std::shared_ptr<obs::RequestTrace> trace) {
  if (auto c = wc.lock()) {
    IoLoop& L = *c->loop;
    {
      std::lock_guard<std::mutex> l(L.comp_m);
      L.completions.push_back(
          IoLoop::Completion{wc, std::move(payload), std::move(trace)});
    }
    in_flight_.fetch_sub(1, std::memory_order_release);
    wake(L);
  } else {
    // The connection died: its response is dropped on the floor, but the
    // request still leaves the in-flight window.
    in_flight_.fetch_sub(1, std::memory_order_release);
  }
}

void RpcServer::drain_completions(IoLoop& L) {
  std::vector<IoLoop::Completion> batch;
  {
    std::lock_guard<std::mutex> l(L.comp_m);
    batch.swap(L.completions);
  }
  for (auto& comp : batch)
    if (auto c = comp.conn.lock())
      send_now(c, std::move(comp.payload), std::move(comp.trace));
}

void RpcServer::offload(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> l(decode_m_);
    ++decode_inflight_;
  }
  pool_.submit([this, fn = std::move(fn)] {
    fn();
    std::lock_guard<std::mutex> l(decode_m_);
    if (--decode_inflight_ == 0) decode_cv_.notify_all();
  });
}

// Token-bucket + in-flight-cap admission for one data-plane request.
// Rejections are BUSY — attributable and retryable, never a teardown: under
// overload the one thing the daemon must NOT do is make clients guess
// whether their request died, was dropped, or is still queued. A request
// costing more than the burst could never find that many tokens in the
// capped bucket, so it is admitted once the bucket is full and charged in
// full: the bucket goes into debt, and the long-run rate still holds.
bool RpcServer::admit(IoLoop& L, const std::shared_ptr<Conn>& c, uint64_t id,
                      double cost) {
  if (cfg_.conn_rate_limit > 0) {
    auto now = std::chrono::steady_clock::now();
    double burst = cfg_.conn_rate_burst > 0 ? cfg_.conn_rate_burst
                                            : cfg_.conn_rate_limit;
    if (c->last_refill.time_since_epoch().count() == 0) {
      c->tokens = burst;  // first request: bucket starts full
    } else {
      double dt = std::chrono::duration<double>(now - c->last_refill).count();
      c->tokens = std::min(burst, c->tokens + dt * cfg_.conn_rate_limit);
    }
    c->last_refill = now;
    if (c->tokens < std::min(cost, burst)) {
      L.busy_ratelimit.fetch_add(1, std::memory_order_relaxed);
      BNR_LOG(obs::LogLevel::kInfo, "rpc", "busy_ratelimit",
              obs::kv("request_id", id) + obs::kv("cost", cost));
      send_now(c, encode_rejection(id, Status::kBusy,
                                   "rate limited: connection over its "
                                   "request budget"));
      return false;
    }
    c->tokens -= cost;
  }
  if (cfg_.max_in_flight > 0 &&
      in_flight_.load(std::memory_order_acquire) >= cfg_.max_in_flight) {
    L.busy_inflight.fetch_add(1, std::memory_order_relaxed);
    BNR_LOG(obs::LogLevel::kInfo, "rpc", "busy_inflight",
            obs::kv("request_id", id) +
                obs::kv("cap", uint64_t(cfg_.max_in_flight)));
    send_now(c, encode_rejection(id, Status::kBusy,
                                 "server at in-flight capacity"));
    return false;
  }
  return true;
}

bool RpcServer::handle_frame(IoLoop& L, const std::shared_ptr<Conn>& c,
                             std::span<const uint8_t> payload) {
  if (auto* f = FaultInjector::active()) f->on_frame();
  try {
    ByteReader rd(payload);
    RequestHeader h = decode_request_header(rd);
    // A request that arrives with its deadline budget already spent is shed
    // HERE — before admission control, before any decode of the body's
    // crypto blobs: no cycle of work for a response nobody is waiting for.
    auto deadline = std::chrono::steady_clock::time_point::max();
    if (h.budget_ms) {
      if (*h.budget_ms == 0 && h.method != Method::kPing &&
          h.method != Method::kStats && h.method != Method::kHealth &&
          h.method != Method::kMetrics) {
        L.shed_arrival.fetch_add(1, std::memory_order_relaxed);
        L.frames_in.fetch_add(1, std::memory_order_relaxed);
        BNR_LOG(obs::LogLevel::kInfo, "rpc", "shed_arrival",
                obs::kv("request_id", h.request_id) +
                    obs::kv("method", uint64_t(h.method)));
        send_now(c, encode_rejection(h.request_id, Status::kShed,
                                     "deadline budget spent on arrival"));
        return true;
      }
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(*h.budget_ms);
    }
    // Data-plane requests get a stage trace while obs is on: kReceived
    // stamps at construction (here, on the IO loop), the rest as the
    // request moves through admission, pool decode, the service, and the
    // response flush. Control-plane methods are never traced.
    std::shared_ptr<obs::RequestTrace> trace;
    bool data_plane = h.method == Method::kVerify ||
                      h.method == Method::kBatchVerify ||
                      h.method == Method::kCombine;
    if (data_plane && obs::enabled())
      trace = std::make_shared<obs::RequestTrace>(h.request_id,
                                                  uint8_t(h.method));
    // A frame counts once its body has decoded, BEFORE anything answers
    // it: a client holding a response finds its frame in any later STATS.
    auto count_frame = [&L] {
      L.frames_in.fetch_add(1, std::memory_order_relaxed);
    };
    switch (h.method) {
      case Method::kPing:
        expect_frame_done(rd, "PING");
        count_frame();
        send_now(c, encode_ok(h.request_id));
        break;
      case Method::kStats: {
        expect_frame_done(rd, "STATS");
        count_frame();
        send_now(c, encode_ok(h.request_id, encode_stats(snapshot_stats())));
        break;
      }
      case Method::kHealth: {
        expect_frame_done(rd, "HEALTH");
        count_frame();
        send_now(c, encode_ok(h.request_id, encode_health(snapshot_health())));
        break;
      }
      case Method::kMetrics: {
        uint8_t flags = rd.u8();
        expect_frame_done(rd, "METRICS");
        if (flags & ~(kMetricsText | kMetricsTraces))
          throw ProtocolError("METRICS: undefined flag bits");
        count_frame();
        obs::MetricsSnapshot m = metrics_snapshot(flags & kMetricsTraces);
        Bytes body;
        if (flags & kMetricsText) {
          ByteWriter w;
          w.str(render_prometheus(m));
          body = w.take();
        } else {
          body = encode_metrics_snapshot(m);
        }
        send_now(c, encode_ok(h.request_id, body));
        break;
      }
      case Method::kRegisterTenant: {
        RegisterTenantRequest req = decode_register(rd);
        count_frame();
        handle_register(c, h.request_id, std::move(req));
        break;
      }
      case Method::kVerify: {
        VerifyRequest req = decode_verify(rd);
        count_frame();
        if (admit(L, c, h.request_id, 1)) {
          if (trace) trace->stamp(obs::Stage::kAdmitted);
          dispatch_verify(c, h.request_id, std::move(req), deadline,
                          std::move(trace));
        }
        break;
      }
      case Method::kBatchVerify: {
        BatchVerifyRequest req = decode_batch_verify(rd);
        count_frame();
        if (admit(L, c, h.request_id,
                  std::max(1.0, double(req.items.size())))) {
          if (trace) trace->stamp(obs::Stage::kAdmitted);
          dispatch_batch_verify(c, h.request_id, std::move(req), deadline,
                                std::move(trace));
        }
        break;
      }
      case Method::kCombine: {
        CombineRequest req = decode_combine(rd);
        count_frame();
        if (admit(L, c, h.request_id, 1)) {
          if (trace) trace->stamp(obs::Stage::kAdmitted);
          dispatch_combine(c, h.request_id, std::move(req), std::move(trace));
        }
        break;
      }
    }
    return true;
  } catch (const std::exception&) {
    // Structural violation (truncated body, bad counts, unknown ids,
    // trailing bytes): the frame itself is malformed -> close, no response.
    return false;
  }
}

void RpcServer::handle_register(const std::shared_ptr<Conn>& c, uint64_t id,
                                RegisterTenantRequest req) {
  // The caller decoded a well-formed frame. ADMIN auth first: a wrong token
  // is attributable (ERROR response, counted), never a protocol violation —
  // closing would tell a prober nothing it cannot already see.
  if (!cfg_.admin_token.empty() &&
      !constant_time_token_equal(req.token, cfg_.admin_token)) {
    auth_failures_.fetch_add(1, std::memory_order_relaxed);
    BNR_LOG(obs::LogLevel::kWarn, "rpc", "auth_failure",
            obs::kv("request_id", id) + obs::kv("tenant", req.key));
    send_now(c, encode_error(id, "unauthorized: bad admin token"));
    return;
  }
  // Key-material problems are the REQUEST's fault and get an attributable
  // ERROR response instead of a disconnect.
  try {
    const threshold::Scheme* scheme =
        registry_.find(static_cast<threshold::SchemeId>(req.scheme));
    if (!scheme)
      throw RpcError("unknown scheme id " + std::to_string(req.scheme));

    // Parse + canonicalize the public key; the digest of the CANONICAL
    // bytes is the shared cache key, so every tenant of the same pk (and
    // scheme) lands on one prepared entry regardless of who registered
    // first.
    Bytes pk = scheme->canonical_public_key(req.pk);
    std::string digest =
        std::string(scheme->name()) + ":" + hex_digest(pk);

    TenantInfo info{scheme->id(), req.committee};
    std::string committee_digest;
    std::shared_ptr<const threshold::Committee> committee;
    if (req.committee) {
      if (!scheme->supports_combine())
        throw RpcError(std::string(scheme->name()) +
                       ": scheme does not support serving-side combine");
      auto cm = std::make_shared<threshold::Committee>();
      cm->pk = pk;
      cm->n = req.n;
      cm->t = req.t;
      cm->vks = std::move(req.vks);
      // Committee-level dedup: identical full material shares one prepared
      // combiner. Verification keys are parsed lazily by make_combiner on
      // the first COMBINE miss (a malformed vk then fails that request
      // attributably, never the daemon).
      Sha256 hs;
      hs.update(pk);
      ByteWriter nt;
      nt.u32(cm->n);
      nt.u32(cm->t);
      hs.update(nt.bytes());
      for (const auto& vk : cm->vks) hs.update(vk);
      committee_digest = std::string(scheme->name()) + ":committee:" +
                         to_hex(hs.finalize());
      committee = std::move(cm);
    }

    // Ordering matters: the digest-keyed material is published under reg_m_
    // BEFORE the cache alias becomes visible, so a pool worker that
    // resolves the new alias always finds the digest's (immutable) material.
    {
      std::lock_guard<std::mutex> l(reg_m_);
      pk_by_digest_.emplace(digest, PkEntry{scheme->id(), pk});
      if (committee)
        committee_by_digest_.emplace(committee_digest,
                                     CommitteeEntry{scheme->id(), committee});
    }
    const auto alias = verifier_cache_.add_alias(req.key, digest);
    if (committee) combiner_cache_.add_alias(req.key, committee_digest);
    // The row is the one dedup count (STATS' global field sums the rows):
    // a re-REGISTER under an unchanged pk moves neither.
    if (alias.counted)
      deduped_by_scheme_[threshold::scheme_stats_slot(scheme->id())].fetch_add(
          1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> l(reg_m_);
      tenants_[req.key] = info;
    }
    ByteWriter w;
    encode_response_header(w, Status::kOk, id);
    w.u8(alias.deduped ? 1 : 0);
    send_now(c, w.take());
  } catch (const std::exception& e) {
    send_now(c, encode_error(id, e.what()));
  }
}

void RpcServer::dispatch_verify(
    const std::shared_ptr<Conn>& c, uint64_t id, VerifyRequest req,
    std::chrono::steady_clock::time_point deadline,
    std::shared_ptr<obs::RequestTrace> trace) {
  threshold::SchemeId scheme_id;
  {
    std::lock_guard<std::mutex> l(reg_m_);
    auto it = tenants_.find(req.key);
    if (it == tenants_.end()) {
      send_now(c, encode_error(id, "unknown tenant: " + req.key));
      return;
    }
    scheme_id = it->second.scheme;
  }
  std::weak_ptr<Conn> wc = c;
  auto done = [this, wc, id, trace](bool ok, std::exception_ptr err) {
    Bytes resp;
    if (err) {
      try {
        std::rethrow_exception(err);
      } catch (const service::DeadlineShed& e) {
        // The service dropped it before paying a pairing: SHED on the wire,
        // so the client knows a retry of the same budget is pointless.
        resp = encode_rejection(id, Status::kShed, e.what());
      } catch (const std::exception& e) {
        resp = encode_error(id, e.what());
      } catch (...) {
        resp = encode_error(id, "verify failed");
      }
    } else {
      ByteWriter w;
      encode_response_header(w, Status::kOk, id);
      w.u8(ok ? 1 : 0);
      resp = w.take();
    }
    complete(wc, std::move(resp), std::move(trace));
  };
  // The tenant's registered scheme parses the opaque signature blob; the
  // erased handle and its prepared verifier are therefore always the same
  // scheme by construction. parse_signature is a G1 sqrt decompression —
  // the IO loop's old hot spot — so it runs as a pool task: the loop goes
  // straight back to its sockets.
  const threshold::Scheme* scheme = &registry_.at(scheme_id);
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  offload([this, wc, id, scheme, req = std::move(req), deadline,
           trace = std::move(trace), done = std::move(done)]() mutable {
    try {
      threshold::SigHandle sig = scheme->parse_signature(req.sig);
      if (trace) trace->stamp(obs::Stage::kDecoded);
      verify_->submit(req.key, std::move(req.msg), std::move(sig),
                      std::move(done), deadline, std::move(trace));
    } catch (const std::exception& e) {
      // Bad signature encoding inside a well-formed frame: attributable.
      complete(wc, encode_error(id, e.what()));
    } catch (...) {
      complete(wc, encode_error(id, "verify dispatch failed"));
    }
  });
}

void RpcServer::dispatch_batch_verify(
    const std::shared_ptr<Conn>& c, uint64_t id, BatchVerifyRequest req,
    std::chrono::steady_clock::time_point deadline,
    std::shared_ptr<obs::RequestTrace> trace) {
  threshold::SchemeId scheme_id;
  {
    std::lock_guard<std::mutex> l(reg_m_);
    auto it = tenants_.find(req.key);
    if (it == tenants_.end()) {
      send_now(c, encode_error(id, "unknown tenant: " + req.key));
      return;
    }
    scheme_id = it->second.scheme;
  }

  if (req.items.empty()) {
    ByteWriter w;
    encode_response_header(w, Status::kOk, id);
    w.u32(0);
    send_now(c, w.take());
    return;
  }

  // Shared aggregation state: each item completes independently (they fold
  // into the tenant's per-flush batches like any other submissions); the
  // LAST accounted item encodes and queues the response. `outstanding`
  // starts at the FULL item count so no early completion can observe zero
  // while later items are still being staged; a malformed signature blob is
  // simply not a valid signature -> rejected without a service round trip,
  // accounted on the staging task.
  struct BatchState {
    std::mutex m;
    std::vector<uint8_t> results;
    size_t outstanding = 0;
    std::string error;  // first exceptional failure, if any
    bool shed = false;  // that failure was a deadline shed -> SHED response
  };
  auto st = std::make_shared<BatchState>();
  st->results.assign(req.items.size(), 0);
  st->outstanding = req.items.size();
  std::weak_ptr<Conn> wc = c;

  auto finish = [this, st, wc, id, trace] {
    Bytes resp;
    if (!st->error.empty()) {
      resp = st->shed ? encode_rejection(id, Status::kShed, st->error)
                      : encode_error(id, st->error);
    } else {
      ByteWriter w;
      encode_response_header(w, Status::kOk, id);
      w.u32(static_cast<uint32_t>(st->results.size()));
      for (uint8_t r : st->results) w.u8(r);
      resp = w.take();
    }
    complete(wc, std::move(resp), trace);
  };

  // The per-item signature parses (the batch's whole decompression bill)
  // run as ONE staging task on the pool, not on the IO loop. The batch
  // shares ONE trace; kDecoded marks the staging task starting its parses
  // and the service stamps (queued/frozen/crypto) follow the LAST item to
  // touch each stage, which is what end-to-end latency is made of.
  const threshold::Scheme* scheme = &registry_.at(scheme_id);
  auto reqp = std::make_shared<BatchVerifyRequest>(std::move(req));
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  offload([this, st, scheme, reqp, deadline, trace = std::move(trace),
           finish] {
    if (trace) trace->stamp(obs::Stage::kDecoded);
    for (size_t j = 0; j < reqp->items.size(); ++j) {
      auto item_done = [st, j, finish](bool ok, std::exception_ptr err) {
        bool last;
        {
          std::lock_guard<std::mutex> l(st->m);
          if (err && st->error.empty()) {
            try {
              std::rethrow_exception(err);
            } catch (const service::DeadlineShed& e) {
              st->error = e.what();
              st->shed = true;
            } catch (const std::exception& e) {
              st->error = e.what();
            } catch (...) {
              st->error = "batch item failed";
            }
          }
          st->results[j] = (!err && ok) ? 1 : 0;
          last = --st->outstanding == 0;
        }
        if (last) finish();
      };
      try {
        threshold::SigHandle sig =
            scheme->parse_signature(reqp->items[j].second);
        verify_->submit(reqp->key, std::move(reqp->items[j].first),
                        std::move(sig), item_done, deadline, trace);
      } catch (const std::exception&) {
        bool last;
        {
          std::lock_guard<std::mutex> l(st->m);
          st->results[j] = 0;  // malformed encoding: rejected, not submitted
          last = --st->outstanding == 0;
        }
        if (last) finish();
      }
    }
  });
}

void RpcServer::dispatch_combine(const std::shared_ptr<Conn>& c, uint64_t id,
                                 CombineRequest req,
                                 std::shared_ptr<obs::RequestTrace> trace) {
  threshold::SchemeId scheme_id;
  {
    std::lock_guard<std::mutex> l(reg_m_);
    auto it = tenants_.find(req.key);
    if (it == tenants_.end() || !it->second.combine_capable) {
      send_now(c,
               encode_error(id, "not a combine-capable tenant: " + req.key));
      return;
    }
    scheme_id = it->second.scheme;
  }

  std::weak_ptr<Conn> wc = c;
  // parse_partial per share is the same decompression bill as verify's
  // parse_signature: staged on the pool, off the IO loop.
  const threshold::Scheme* scheme = &registry_.at(scheme_id);
  auto reqp = std::make_shared<CombineRequest>(std::move(req));
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  offload([this, wc, id, scheme, scheme_id, reqp, trace = std::move(trace)] {
    std::vector<threshold::PartialHandle> parts;
    try {
      parts.reserve(reqp->partials.size());
      for (const auto& p : reqp->partials)
        parts.push_back(scheme->parse_partial(p));
    } catch (const std::exception& e) {
      complete(wc, encode_error(id, e.what()));
      return;
    } catch (...) {
      complete(wc, encode_error(id, "combine dispatch failed"));
      return;
    }
    if (trace) trace->stamp(obs::Stage::kDecoded);
    combine_->submit(
        reqp->key, scheme_id, std::move(reqp->msg), std::move(parts),
        [this, wc, id,
         trace](service::CombineOutcome* out, std::exception_ptr err) {
          Bytes resp;
          if (err) {
            try {
              std::rethrow_exception(err);
            } catch (const std::exception& e) {
              resp = encode_error(id, e.what());
            } catch (...) {
              resp = encode_error(id, "combine failed");
            }
          } else {
            resp = encode_ok(id,
                             encode_combine_result({out->sig, out->cheaters}));
          }
          complete(wc, std::move(resp), trace);
        },
        trace);
  });
}

HealthStats RpcServer::snapshot_health() const {
  return health_from(verify_->stats_all());
}

DaemonStats RpcServer::snapshot_stats() const {
  // ONE lock acquisition per service for the totals AND every per-scheme
  // slice: separate stats() calls could interleave with a flush committing
  // verdicts, making the global row disagree with the sum of the per-scheme
  // rows and transiently breaking the accounting identity
  //   submitted == accepted + rejected + sheds + errors + in_progress
  // that the chaos tests (and any alerting built on STATS) assert on. The
  // combine counters come the same way, so `combines` always equals the
  // sum of the rows' `combines`.
  return stats_from(verify_->stats_all(), combine_->stats_all());
}

HealthStats RpcServer::health_from(const VerifyBundle& vb) const {
  HealthStats h;
  h.in_flight = in_flight_.load(std::memory_order_acquire);
  h.inflight_cap = cfg_.max_in_flight;
  h.queue_depth = vb.pending;
  // Exact per-loop aggregation: each loop owns its slice, HEALTH sums them.
  for (const auto& L : loops_) {
    h.busy_inflight += L->busy_inflight.load(std::memory_order_relaxed);
    h.busy_ratelimit += L->busy_ratelimit.load(std::memory_order_relaxed);
    h.shed_arrival += L->shed_arrival.load(std::memory_order_relaxed);
  }
  h.shed_in_service = vb.total.deadline_sheds;
  return h;
}

namespace {

/// The verify-service fields, which DaemonStats and SchemeStatsRow name
/// alike.
template <class Row>
void fill_verify(Row& row, const service::ServiceStats& v) {
  row.verify_submitted = v.submitted;
  row.verify_batches = v.batches;
  row.verify_fallbacks = v.fallbacks;
  row.verify_accepted = v.accepted;
  row.verify_rejected = v.rejected;
  row.verify_sheds = v.deadline_sheds;
  row.verify_errors = v.errors;
  row.verify_in_progress = v.in_progress;
}

}  // namespace

DaemonStats RpcServer::stats_from(const VerifyBundle& vb,
                                  const CombineBundle& cb) const {
  DaemonStats s;
  // Per-tenant routing table: total + per-scheme tenant counts.
  std::array<uint64_t, threshold::kSchemeIdCount + 1> tenants_by_scheme{};
  {
    std::lock_guard<std::mutex> l(reg_m_);
    s.tenants = tenants_.size();
    for (const auto& [key, info] : tenants_)
      ++tenants_by_scheme[threshold::scheme_stats_slot(info.scheme)];
  }
  // Exact per-loop aggregation (the connection/frame/error counters each
  // live on the loop that observed them). `connections` is the LIFETIME
  // accept count; the live gauge is total_conns_, which accept reservation
  // increments and close_conn decrements.
  for (const auto& L : loops_) {
    s.connections += L->accepts.load(std::memory_order_relaxed);
    s.conns_rejected += L->rejected.load(std::memory_order_relaxed);
    s.frames_in += L->frames_in.load(std::memory_order_relaxed);
    s.protocol_errors += L->protocol_errors.load(std::memory_order_relaxed);
  }
  s.open_connections = total_conns_.load(std::memory_order_acquire);
  s.auth_failures = auth_failures_.load(std::memory_order_relaxed);

  for (const auto& cs : {verifier_cache_.stats(), combiner_cache_.stats()}) {
    s.cache_hits += cs.hits;
    s.cache_misses += cs.misses;
    s.cache_evictions += cs.evictions;
    s.cache_resident_entries += cs.resident_entries;
    s.cache_resident_bytes += cs.resident_bytes;
  }
  fill_verify(s, vb.total);
  s.combines = cb.total.submitted;

  // One row per scheme the registry serves — the registry knows every
  // scheme uniformly, so nothing here is per-family code.
  for (const threshold::Scheme* scheme : registry_.schemes()) {
    const size_t slot = threshold::scheme_stats_slot(scheme->id());
    SchemeStatsRow row;
    row.scheme = static_cast<uint8_t>(scheme->id());
    row.tenants = tenants_by_scheme[slot];
    row.deduped = deduped_by_scheme_[slot].load(std::memory_order_relaxed);
    fill_verify(row, vb.by_scheme[slot]);
    const service::MultiTenantCombineService::Stats& cs = cb.by_scheme[slot];
    row.cache_lookups = vb.by_scheme[slot].cache_lookups + cs.cache_lookups;
    row.cache_misses = vb.by_scheme[slot].cache_misses + cs.cache_misses;
    row.combines = cs.submitted;
    // pk-level dedup: tenants that mapped onto an already-registered pk
    // digest (the combiner's committee-level aliases would double-count
    // the same tenants).
    s.deduped_keys += row.deduped;
    s.schemes.push_back(row);
  }
  return s;
}

obs::MetricsSnapshot RpcServer::metrics_snapshot(bool include_traces) const {
  obs::MetricsSnapshot m;
  // One service snapshot behind both STATS and HEALTH, so series that read
  // the same counter (bnr_verify_sheds_total, bnr_shed_in_service_total)
  // agree within every scrape.
  const VerifyBundle vb = verify_->stats_all();
  const DaemonStats s = stats_from(vb, combine_->stats_all());
  const HealthStats h = health_from(vb);

  auto points = [&m](const auto& table, const auto& values,
                     const std::string& labels) {
    for (const auto& f : table)
      m.points.push_back(
          obs::MetricPoint{f.series, labels, f.kind, values.*f.member});
  };
  points(kDaemonStatsFields, s, "");
  points(kHealthFields, h, "");

  for (const threshold::Scheme* scheme : registry_.schemes()) {
    const std::string lbl = "scheme=\"" + std::string(scheme->name()) + "\"";
    points(kSchemeRowFields, s.scheme_row(scheme->id()), lbl);
    obs::HistogramSnapshot vlat = verify_->latency(scheme->id());
    if (vlat.count)
      m.histograms.push_back(obs::MetricHistogram{
          "bnr_verify_latency_seconds", lbl, std::move(vlat)});
    obs::HistogramSnapshot clat = combine_->latency(scheme->id());
    if (clat.count)
      m.histograms.push_back(obs::MetricHistogram{
          "bnr_combine_latency_seconds", lbl, std::move(clat)});
  }

  m.histograms.push_back(obs::MetricHistogram{
      "bnr_request_latency_seconds", "", request_hist_->snapshot()});
  m.histograms.push_back(obs::MetricHistogram{
      "bnr_pool_task_wait_seconds", "", pool_.task_wait_latency()});
  m.histograms.push_back(obs::MetricHistogram{
      "bnr_pool_task_exec_seconds", "", pool_.task_exec_latency()});
  m.histograms.push_back(obs::MetricHistogram{
      "bnr_pool_queue_depth", "", pool_.queue_depth_samples()});

  if (include_traces) {
    m.slow_traces = trace_ring_.snapshot();
    m.slow_trace_cap = trace_ring_.capacity();
  }
  return m;
}

}  // namespace bnr::rpc
