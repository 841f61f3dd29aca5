// The long-running TCP serving daemon: an epoll-driven MULTI-LOOP front end
// over non-blocking sockets in front of the multi-tenant in-process stack —
// ONE scheme-agnostic path since PR 5: a SchemeRegistry resolves every
// tenant's SchemeId to its plugin, ONE KeyCacheManager<PreparedVerifier>
// holds the prepared state of every scheme's tenants (keys namespaced by
// scheme name + pk digest), and ONE MultiTenantVerificationService / ONE
// MultiTenantCombineService serve RO, DLIN, Agg, and BLS tenants through
// the same queue and the same shared folds (one product per worker-sized
// chunk of a flush, across keys and schemes).
//
// Threading model since PR 7 — N IO loops, M crypto workers:
//
//   * run() drives `io_threads` INDEPENDENT event loops (epoll, level-
//     triggered). Each loop owns its own SO_REUSEPORT listener bound to the
//     same address, so the kernel spreads incoming connections across loops
//     with no accept lock and no fd handoff; a connection lives its whole
//     life on the loop that accepted it. Loops never compute a pairing.
//   * Each loop has its own completion queue woken by its own eventfd (the
//     old shared self-pipe is gone); a completion is routed to the loop
//     that owns its connection, so response queuing never crosses loops.
//   * Request DECODE is off the IO loops: the wire-level body split still
//     happens on the loop (cheap memcpy, and a malformed frame must close
//     the connection synchronously), but `Scheme::parse_signature` /
//     `parse_partial` — the G1 sqrt decompression hot spot — runs as a
//     thread-pool task, which then submits to the services with a
//     COMPLETION CALLBACK exactly as before.
//   * Responses flush with writev (one syscall per readiness, not one per
//     frame) and complete OUT OF ORDER; the request id written by the
//     client is echoed back so a pipelined connection can match them.
//   * Batch flush is ADAPTIVE (BatchPolicy::adaptive, default on for the
//     daemon): pending folds dispatch when the pool goes idle or the batch
//     fills — max_delay is only the upper bound, so p50 tracks load
//     instead of a fixed timer floor.
//
// Robustness properties the tests pin down:
//
//   * A malformed, truncated, or oversized frame closes the connection
//     immediately (no response); the daemon keeps serving everyone else.
//   * REGISTER_TENANT is an ADMIN frame: with `admin_token` configured, a
//     request whose token fails the constant-time comparison gets an
//     attributable ERROR (counted in auth_failures) and registers nothing.
//   * Connections over `max_connections` (a GLOBAL cap shared by every
//     loop) are accepted and immediately closed (the peer sees a clean
//     refusal, the daemon stays level).
//   * A connection that stops draining its responses is backpressured: once
//     its write queue exceeds `write_backpressure` bytes its loop drops its
//     read interest until the queue drains below half.
//   * A mid-request disconnect drops the pending completions on the floor
//     (they hold weak_ptrs to the connection) without disturbing the batch
//     they were folded into.
//   * ADMISSION CONTROL keeps overload attributable instead of fatal: a
//     request over the global in-flight cap or its connection's token
//     bucket gets a BUSY response (retryable, the connection stays open); a
//     request whose wire deadline budget is already zero on arrival — or
//     spent by the time its fold would run (see verification_service) —
//     gets SHED. The HEALTH method reports every one of these counters,
//     each summed EXACTLY over the per-loop slices.
//   * stop() is async-signal-safe (atomic store + one eventfd write per
//     loop). Shutdown drains: every loop closes its listener, buffered
//     complete frames are still dispatched, in-flight batches finish,
//     responses flush, then sockets close — bounded by `drain_timeout`.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpc/wire.hpp"
#include "service/key_cache.hpp"
#include "service/thread_pool.hpp"
#include "service/verification_service.hpp"
#include "threshold/scheme_registry.hpp"

namespace bnr::rpc {

struct ServerConfig {
  uint16_t port = 0;  // 0 = ephemeral; port() reports the bound port
  std::string bind_addr = "127.0.0.1";  // dotted-quad listen address
  /// Both peers derive SystemParams from this label; group elements on the
  /// wire are only meaningful against the same parameters.
  std::string params_label = "bnr-rpc/v1";
  /// Shared secret gating REGISTER_TENANT (and future ADMIN frames).
  /// Empty = open daemon (loopback demos, tests); non-empty = required,
  /// compared in constant time.
  std::string admin_token;
  /// Number of IO event loops, each with its own SO_REUSEPORT listener,
  /// epoll set, eventfd, and completion queue. 0 = auto:
  /// min(4, max(1, hardware_concurrency / 2)).
  size_t io_threads = 0;
  /// Simultaneous-connection cap ACROSS ALL LOOPS; further connections are
  /// accepted and immediately closed. 0 = unlimited.
  size_t max_connections = 1024;
  size_t cache_bytes = size_t(256) << 20;  // verifier cache byte budget
  size_t cache_shards = 16;
  /// The daemon defaults the service to ADAPTIVE flush: batches grow while
  /// the pool is folding and dispatch the moment it goes idle, so response
  /// p50 tracks load instead of the max_delay timer (see BatchPolicy).
  service::BatchPolicy batch{.adaptive = true};
  uint32_t max_frame = kMaxFrameBytes;
  size_t write_backpressure = size_t(4) << 20;
  std::chrono::milliseconds drain_timeout{5000};

  // -- Admission control ----------------------------------------------------
  /// Global cap on dispatched-but-unanswered requests: one more VERIFY /
  /// BATCH_VERIFY / COMBINE above it gets BUSY instead of queuing
  /// unboundedly behind pairings it would miss its deadline waiting for.
  /// 0 = uncapped.
  uint64_t max_in_flight = 4096;
  /// Per-connection token bucket over the data-plane methods (VERIFY /
  /// BATCH_VERIFY / COMBINE; BATCH charges one token per item). Tokens
  /// refill at `conn_rate_limit` per second up to `conn_rate_burst` (0 =
  /// defaults to the rate). conn_rate_limit 0 = no rate limiting.
  double conn_rate_limit = 0;
  double conn_rate_burst = 0;
};

class RpcServer {
 public:
  /// Binds every loop's listener (throws std::system_error on failure) but
  /// does not serve until run(). `pool` must outlive the server.
  RpcServer(ServerConfig cfg, service::ThreadPool& pool);

  /// The caller must stop() and join whichever thread is inside run()
  /// before destruction; the destructor then drains the services.
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  uint16_t port() const { return port_; }
  /// The resolved loop count (cfg.io_threads after the 0 = auto default).
  size_t io_loops() const { return loops_.size(); }

  /// Serves until stop(): spawns loops 1..N-1 as internal threads, runs
  /// loop 0 on the calling thread, joins everything before returning. The
  /// first exception any loop died with is rethrown here.
  void run();

  /// Requests shutdown; safe from any thread and from a signal handler.
  void stop();

  DaemonStats snapshot_stats() const;
  /// The HEALTH method's body: current in-flight / queue depth plus the
  /// admission-control rejection counters (summed across loops).
  HealthStats snapshot_health() const;
  /// The METRICS method's body: every STATS/HEALTH scalar as a named point,
  /// the per-scheme verify/combine latency histograms, the end-to-end
  /// request-latency histogram, the pool's wait/exec/depth histograms, and
  /// (when asked) the slowest-request trace ring. The verify counters and
  /// per-scheme rows come from ONE service lock acquisition, so the
  /// accounting identity holds inside the snapshot.
  obs::MetricsSnapshot metrics_snapshot(bool include_traces) const;
  /// The ONE cache behind every scheme's prepared verifiers.
  const service::KeyCacheManager<threshold::PreparedVerifier>&
  verifier_cache() const {
    return verifier_cache_;
  }
  const threshold::SchemeRegistry& registry() const { return registry_; }
  /// Aggregate verify-path stats across every scheme.
  service::ServiceStats verify_stats() const;

 private:
  struct Conn;
  struct IoLoop;

  /// What a loop needs to route a tenant's requests: which plugin parses
  /// its blobs, and whether COMBINE is provisioned.
  struct TenantInfo {
    threshold::SchemeId scheme{};
    bool combine_capable = false;
  };
  /// Immutable key material published under its digest: same digest -> same
  /// bytes, always, so a re-registration racing an in-flight prepare can
  /// never cache a verifier under a digest it does not match.
  struct PkEntry {
    threshold::SchemeId scheme{};
    Bytes pk;  // canonical serialized public key
  };
  struct CommitteeEntry {
    threshold::SchemeId scheme{};
    std::shared_ptr<const threshold::Committee> committee;
  };

  void event_loop(IoLoop& L);
  void accept_ready(IoLoop& L);
  void read_ready(IoLoop& L, const std::shared_ptr<Conn>& c);
  void write_ready(IoLoop& L, const std::shared_ptr<Conn>& c);
  /// Recomputes the connection's epoll interest mask (read unless paused or
  /// shut, write while the queue is non-empty) and MODs it when it changed.
  void update_interest(IoLoop& L, Conn& c);
  /// Decodes and dispatches one request frame. Returns false on a protocol
  /// violation (caller closes the connection).
  bool handle_frame(IoLoop& L, const std::shared_ptr<Conn>& c,
                    std::span<const uint8_t> payload);
  void handle_register(const std::shared_ptr<Conn>& c, uint64_t id,
                       ByteReader& rd);
  void dispatch_verify(const std::shared_ptr<Conn>& c, uint64_t id,
                       VerifyRequest req,
                       std::chrono::steady_clock::time_point deadline,
                       std::shared_ptr<obs::RequestTrace> trace);
  void dispatch_batch_verify(const std::shared_ptr<Conn>& c, uint64_t id,
                             BatchVerifyRequest req,
                             std::chrono::steady_clock::time_point deadline,
                             std::shared_ptr<obs::RequestTrace> trace);
  void dispatch_combine(const std::shared_ptr<Conn>& c, uint64_t id,
                        CombineRequest req,
                        std::shared_ptr<obs::RequestTrace> trace);
  /// Admission control shared by the dispatch_* fronts: charges the token
  /// bucket and checks the in-flight cap; a false return already sent the
  /// BUSY rejection.
  bool admit(IoLoop& L, const std::shared_ptr<Conn>& c, uint64_t id,
             double cost);

  /// Runs `fn` on the thread pool, tracked so the destructor can wait for
  /// every offloaded decode to land before tearing the services down. `fn`
  /// must not throw.
  void offload(std::function<void()> fn);

  /// Queues an already-encoded response payload from any thread onto the
  /// owning loop's completion queue and wakes that loop's eventfd.
  /// Counterpart of a dispatch_* in_flight_ increment. The trace (null when
  /// obs is off) rides along so the flush stamp lands when the response
  /// bytes actually drain to the socket.
  void complete(const std::weak_ptr<Conn>& c, Bytes payload,
                std::shared_ptr<obs::RequestTrace> trace = nullptr);
  /// Same, from the connection's own loop thread (no queue round-trip).
  void send_now(const std::shared_ptr<Conn>& c, Bytes payload,
                std::shared_ptr<obs::RequestTrace> trace = nullptr);
  /// Called by write_ready when a traced response frame fully drained:
  /// stamps kFlushed, records end-to-end latency, offers the record to the
  /// slow-trace ring.
  void on_frame_flushed(IoLoop& L, obs::RequestTrace& trace);
  void drain_completions(IoLoop& L);
  void close_conn(IoLoop& L, const std::shared_ptr<Conn>& c);
  void wake(IoLoop& L);
  /// Atomically reserves one slot under cfg_.max_connections (CAS loop on
  /// total_conns_, so check and increment are ONE reservation across the
  /// SO_REUSEPORT accept loops). False = at the cap, nothing reserved. Every
  /// true return must be paired with a fetch_sub when the connection closes
  /// or fails setup.
  bool reserve_conn_slot();

  ServerConfig cfg_;
  service::ThreadPool& pool_;
  threshold::SystemParams params_;
  threshold::SchemeRegistry registry_;

  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_flushed_{false};  // one service flush at drain start
  std::atomic<size_t> total_conns_{0};      // live conns across all loops

  // Per-loop state (listener, epoll, eventfd, conns, completion queue,
  // counter slices). Declared BEFORE the services so pool callbacks firing
  // during service teardown still find the completion queues alive; sized
  // in the constructor and never resized after, so stop() may traverse it
  // from a signal handler.
  std::vector<std::unique_ptr<IoLoop>> loops_;

  std::atomic<uint64_t> in_flight_{0};

  // Offloaded-decode tracking: the destructor must not tear the services
  // down while a pool task still holds a reference to them.
  std::mutex decode_m_;
  std::condition_variable decode_cv_;
  uint64_t decode_inflight_ = 0;  // guarded by decode_m_

  // Tenant registry: loop threads write on REGISTER, pool workers read from
  // the providers. The providers read the DIGEST-keyed maps (immutable per
  // digest); `tenants_` (mutable: a tenant may rotate keys or schemes) is
  // only read on the loop threads for routing.
  mutable std::mutex reg_m_;
  std::unordered_map<std::string, TenantInfo> tenants_;
  std::unordered_map<std::string, PkEntry> pk_by_digest_;
  std::unordered_map<std::string, CommitteeEntry> committee_by_digest_;

  // Observability (PR 9): end-to-end request latency (received -> response
  // bytes flushed), sharded one slot per IO loop and recorded only on the
  // owning loop thread; the ring keeps the slowest completed traces as
  // VALUE records (no connection pointers). Built in the constructor once
  // the loop count is known.
  std::unique_ptr<obs::ShardedHistogram> request_hist_;
  obs::SlowTraceRing trace_ring_{32};

  // Lifetime counters that stay GLOBAL (any loop may write; stats read).
  // The per-loop slices (accepts, rejects, frames, protocol errors, busy /
  // shed) live in IoLoop and are summed exactly at snapshot time. Per-scheme
  // slices are dense by SchemeId with an overflow slot for out-of-tree ids.
  std::atomic<uint64_t> auth_failures_{0};
  std::array<std::atomic<uint64_t>, threshold::kSchemeIdCount + 1>
      deduped_by_scheme_{};

  // Caches + services last: their destructors drain every outstanding pool
  // task while the members above are still alive.
  service::KeyCacheManager<threshold::PreparedVerifier> verifier_cache_;
  service::KeyCacheManager<threshold::PreparedCombiner> combiner_cache_;
  std::unique_ptr<service::MultiTenantVerificationService> verify_;
  std::unique_ptr<service::MultiTenantCombineService> combine_;
};

}  // namespace bnr::rpc
