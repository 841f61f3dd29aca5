// The request-driven serving front end (Thetacrypt-style), multi-tenant and
// SCHEME-AGNOSTIC: callers submit (key-id, message, erased signature
// handle) and get a future; the service accumulates requests and flushes
// when the batch reaches `max_batch` OR the oldest request has waited
// `max_delay`. A flush groups the pending requests PER KEY-ID and folds
// each group with ONE RLC pairing product — distinct keys can NEVER share a
// fold: each tenant's verification equation uses its own prepared G2
// inputs, and mixing tenants in one fold would let a forgery under key B
// invalidate (or, with adversarial coefficients, be masked inside) key A's
// batch. Only when a group's fold fails does the service re-verify that
// group's members individually to attribute the failure — so invalid
// submissions cost extra work but can never poison the answer for honest
// ones, and never for other tenants.
//
// Since PR 5 there is exactly ONE service implementation for every
// signature family: requests carry `threshold::SigHandle` (the signature
// parsed once at the boundary) and verifiers are the type-erased
// `threshold::PreparedVerifier` out of a single shared KeyCacheManager —
// RO, DLIN, Agg, and BLS tenants all flow through the same queue, the same
// per-key fold grouping, and the same cache, with per-SchemeId stats split
// out for observability. The pre-PR-5 per-scheme templated services (and
// their deprecated single-tenant shims) are gone; construct a provider over
// `Scheme::make_verifier` instead.
//
// Verifiers are not owned by the service: they are pinned out of the shared
// `KeyCacheManager` for the duration of each group's fold (prepared state
// for millions of tenant keys does not fit in RAM; see key_cache.hpp), and
// prepared on miss via a caller-supplied provider.
//
// Soundness under concurrency: each group draws its RLC coefficients from a
// private Rng forked per flush AFTER the batch contents are frozen (the
// pending vector is moved out under the lock before coefficients exist), so
// no submitter can adapt its signature to the coefficients that will fold
// it. The master Rng is seeded from OS entropy (the label is only mixed in
// as a fork domain) — a deterministic, label-only seed would let an
// adversary precompute every batch's coefficients and submit invalid
// signatures whose RLC error terms cancel, defeating the fold.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "service/key_cache.hpp"
#include "service/thread_pool.hpp"
#include "threshold/scheme_api.hpp"

namespace bnr::service {

struct BatchPolicy {
  size_t max_batch = 64;                      // flush when this many pending
  std::chrono::milliseconds max_delay{5};     // ... or the oldest is this old
  /// ADAPTIVE flush (PR 7): additionally dispatch the pending batch the
  /// moment the thread pool goes idle — batches grow exactly while the
  /// workers are busy folding (when batching buys amortization) and flush
  /// immediately once there is spare capacity (when batching buys nothing
  /// but latency), so p50 tracks load instead of the max_delay timer.
  /// max_delay stays as the upper bound and max_batch still flushes.
  /// Default OFF: timer-driven queue residency is load-bearing for callers
  /// that camp requests to exercise deadline shedding (and for benches
  /// whose pacing is calibrated against the timer); the RPC daemon turns
  /// it on by default (ServerConfig).
  bool adaptive = false;
};

/// Raised through a submission's callback when its deadline budget was
/// already spent before the group's fold ran: the request was SHED, not
/// verified. Distinct from RpcError/ProtocolError so the RPC layer can map
/// it onto the wire's SHED status (attributable, not retryable).
struct DeadlineShed : std::runtime_error {
  DeadlineShed()
      : std::runtime_error("deadline budget spent before verification") {}
};

struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t batches = 0;          // batch_verify folds executed (one per key
                                 // group per flush — never across keys)
  uint64_t size_flushes = 0;     // flushes triggered by max_batch
  uint64_t deadline_flushes = 0; // flushes triggered by max_delay
  uint64_t idle_flushes = 0;     // adaptive flushes (pool went idle)
  uint64_t fallbacks = 0;        // folds that failed -> individual re-verify
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t deadline_sheds = 0;   // expired members dropped before their fold
                                 // (neither accepted nor rejected)
  uint64_t errors = 0;           // completed exceptionally (provider or
                                 // verifier threw; not a verdict)
  uint64_t in_progress = 0;      // submitted, outcome not yet committed.
                                 // Under m_ the exact identity holds AT ALL
                                 // TIMES, not just at drain:
                                 //   submitted == accepted + rejected +
                                 //     deadline_sheds + errors + in_progress
  // Service-observed traffic into the shared key cache (one lookup per key
  // group; a miss ran the provider). Split per SchemeId by stats(SchemeId) —
  // the cache's own stats cannot attribute by scheme.
  uint64_t cache_lookups = 0;
  uint64_t cache_misses = 0;
};

/// ONE non-templated verification service for every signature family: the
/// erased `PreparedVerifier` carries the scheme-specific fold, the SigHandle
/// carries the parsed signature, and the cache key (namespaced by scheme
/// name + pk digest) keeps tenants of different schemes apart.
class MultiTenantVerificationService {
 public:
  using KeyId = std::string;
  /// Prepares the verifier on cache miss (runs on a pool worker, outside
  /// any shard lock). Receives the CANONICAL cache key — the alias-resolved
  /// key, e.g. "<scheme>:<pk digest>" when the registrar aliased tenants by
  /// public key — so what it derives the verifier from is keyed by what the
  /// cache stores it under, and a concurrent re-registration cannot poison
  /// the entry. Throwing rejects every request of that key's group.
  using VerifierProvider = std::function<
      std::shared_ptr<const threshold::PreparedVerifier>(const KeyId&)>;

  /// Completion callback: runs exactly once, on a pool worker, and must not
  /// throw. `error` is null for a normal verdict; non-null when the request
  /// failed exceptionally (provider threw, verifier threw), in which case
  /// `ok` is meaningless. This is the primitive the RPC daemon builds on — a
  /// response frame is encoded and queued straight from the callback, so
  /// the socket event loop never blocks on a future.
  using Callback = std::function<void(bool ok, std::exception_ptr error)>;

  MultiTenantVerificationService(
      KeyCacheManager<threshold::PreparedVerifier>& cache,
      VerifierProvider prepare, BatchPolicy policy, ThreadPool& pool,
      std::string_view rng_label = "multi-tenant-verification");

  /// Flushes whatever is pending, waits for in-flight groups, stops.
  ~MultiTenantVerificationService();

  MultiTenantVerificationService(const MultiTenantVerificationService&) =
      delete;
  MultiTenantVerificationService& operator=(
      const MultiTenantVerificationService&) = delete;

  /// `deadline` is the request's drop-dead time: a member whose deadline has
  /// passed when its group's fold task starts is SHED — completed with
  /// DeadlineShed BEFORE the group pays for a prepare or a pairing, so under
  /// overload the pool's capacity goes to requests that can still make their
  /// budget. time_point::max() (the default) never sheds.
  void submit(KeyId key, Bytes msg, threshold::SigHandle sig, Callback done,
              std::chrono::steady_clock::time_point deadline =
                  std::chrono::steady_clock::time_point::max(),
              std::shared_ptr<obs::RequestTrace> trace = nullptr);

  /// Future-based front over the callback core.
  std::future<bool> submit(KeyId key, Bytes msg, threshold::SigHandle sig);

  /// Forces whatever is pending out as one flush (one fold per key).
  void flush();

  /// Blocks until no request is pending or in flight.
  void drain();

  /// Requests accumulated but not yet dispatched into folds (the HEALTH
  /// queue-depth counter).
  size_t pending() const {
    std::lock_guard<std::mutex> l(m_);
    return pending_.size();
  }

  /// Aggregate across every scheme.
  ServiceStats stats() const;
  /// The per-scheme slice (requests, folds, fallbacks, verdicts, cache
  /// lookups/misses attributed to that scheme's groups).
  ServiceStats stats(threshold::SchemeId id) const;

  /// The aggregate AND every per-scheme slice captured under ONE lock
  /// acquisition, so an observer polling mid-flight sees a coherent
  /// snapshot: the total equals the sum of the slices, and the accounting
  /// identity (see ServiceStats::in_progress) holds in every row. STATS
  /// built from separate stats() calls cannot promise either.
  struct StatsBundle {
    ServiceStats total;
    std::array<ServiceStats, threshold::kSchemeIdCount + 1> by_scheme{};
  };
  StatsBundle stats_all() const;

  /// Verify latency (submit -> verdict commit, nanoseconds) for one
  /// scheme's requests / merged across schemes. Only completed verdicts
  /// record — sheds and exceptional completions never do, so
  /// snapshot().count == accepted + rejected exactly.
  obs::HistogramSnapshot latency(threshold::SchemeId id) const;
  obs::HistogramSnapshot latency() const;

 private:
  struct Pending {
    KeyId key;
    Bytes msg;
    threshold::SigHandle sig;
    Callback done;  // nulled out after its one invocation
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point submitted_at{};
    std::shared_ptr<obs::RequestTrace> trace;  // null unless obs::enabled()
  };

  /// One per-tenant fold unit: requests sharing a key-id, plus the private
  /// RNG its RLC coefficients are drawn from.
  struct Group {
    KeyId key;
    std::vector<Pending> members;
  };

  void dispatch_locked(std::unique_lock<std::mutex>&, bool deadline);
  void run_group(Group& group, Rng& rng);
  void flusher_loop();
  ServiceStats& slice_locked(threshold::SchemeId id);

  KeyCacheManager<threshold::PreparedVerifier>& cache_;
  VerifierProvider prepare_;
  BatchPolicy policy_;
  ThreadPool& pool_;
  Rng rng_;  // master; forked per group (guarded by m_)

  mutable std::mutex m_;
  std::condition_variable cv_;        // flusher wake-ups
  std::condition_variable drained_;   // in_flight_ == 0
  std::vector<Pending> pending_;
  std::chrono::steady_clock::time_point oldest_{};
  size_t in_flight_ = 0;
  bool stop_ = false;
  // Adaptive flush plumbing: the pool's idle-transition listener sets the
  // hint (under m_) and pokes cv_; the flusher consumes it against a live
  // batch. Registered only when policy_.adaptive.
  bool pool_idle_hint_ = false;
  bool idle_listener_registered_ = false;
  size_t idle_listener_token_ = 0;
  ServiceStats total_;
  // Dense per-scheme slices (id - 1); ids outside the built-in range fold
  // into the overflow slot so an out-of-tree plugin never indexes OOB.
  std::array<ServiceStats, threshold::kSchemeIdCount + 1> by_scheme_{};
  // Verify-latency histograms, one per scheme slot. Relaxed-atomic inside,
  // so recording happens OUTSIDE m_ on the worker.
  std::array<obs::Histogram, threshold::kSchemeIdCount + 1> latency_;
  std::thread flusher_;  // last member: started after everything else exists
};

/// What a combine request resolves to on success: the SERIALIZED combined
/// signature (scheme-native encoding — the daemon puts it straight on the
/// wire) plus the indices of bad partials identified along the way
/// (non-empty only when the interpolated signature failed its check and the
/// fallback scan attributed cheaters but still found t+1 valid shares —
/// robustness with attribution).
struct CombineOutcome {
  Bytes sig;
  std::vector<uint32_t> cheaters;
};

/// Combine requests interpolate DIFFERENT messages, so they do not fold into
/// one RLC batch the way verify requests do; instead each runs as its own
/// pool task over the per-committee PreparedCombiner (which interpolates and
/// checks the one combined signature against the committee key, scanning
/// partials only when that check fails), pinned out of a KeyCacheManager
/// per request — per-committee prepared-VK caches get the same byte-budget /
/// pin-on-use treatment as the tenant verifiers.
class MultiTenantCombineService {
 public:
  using KeyId = std::string;
  using CombinerProvider = std::function<
      std::shared_ptr<const threshold::PreparedCombiner>(const KeyId&)>;
  /// Runs exactly once on a pool worker and must not throw. `outcome` is
  /// null iff `error` is set (Combine threw: unknown committee, fewer than
  /// t+1 valid shares).
  using Callback =
      std::function<void(CombineOutcome* outcome, std::exception_ptr error)>;

  MultiTenantCombineService(
      KeyCacheManager<threshold::PreparedCombiner>& cache,
      CombinerProvider prepare, ThreadPool& pool,
      std::string_view rng_label = "combine-service");

  /// Waits for every submitted request to finish: pool tasks hold pins into
  /// the cache and a raw reference to this service, so they must all drain
  /// before either is torn down.
  ~MultiTenantCombineService();

  MultiTenantCombineService(const MultiTenantCombineService&) = delete;
  MultiTenantCombineService& operator=(const MultiTenantCombineService&) =
      delete;

  /// Callback core (what the RPC daemon drives). `scheme` attributes the
  /// request in the per-scheme stats slices — passed explicitly (the
  /// caller resolved the tenant's scheme already) so even a degenerate
  /// empty-partials request lands in the right row.
  void submit(KeyId key, threshold::SchemeId scheme, Bytes msg,
              std::vector<threshold::PartialHandle> parts, Callback done,
              std::shared_ptr<obs::RequestTrace> trace = nullptr);

  /// Future-based front over the callback core (cheater attribution
  /// dropped; use the callback form to observe it). Resolves to the
  /// serialized combined signature.
  std::future<Bytes> submit(KeyId key, threshold::SchemeId scheme, Bytes msg,
                            std::vector<threshold::PartialHandle> parts);

  struct Stats {
    uint64_t submitted = 0;
    uint64_t failed = 0;  // combine threw (unknown committee, < t+1 valid)
    uint64_t cache_lookups = 0;
    uint64_t cache_misses = 0;
  };
  Stats stats() const;
  Stats stats(threshold::SchemeId id) const;

  /// The aggregate AND every per-scheme slice under ONE lock acquisition
  /// (see MultiTenantVerificationService::stats_all): the total equals the
  /// sum of the slices in every snapshot.
  struct StatsBundle {
    Stats total;
    std::array<Stats, threshold::kSchemeIdCount + 1> by_scheme{};
  };
  StatsBundle stats_all() const;

  /// Combine latency (submit -> outcome, ns); failures record too (the
  /// pairing work was paid either way).
  obs::HistogramSnapshot latency(threshold::SchemeId id) const;
  obs::HistogramSnapshot latency() const;

 private:
  Stats& slice_locked(threshold::SchemeId id);

  KeyCacheManager<threshold::PreparedCombiner>& cache_;
  CombinerProvider prepare_;
  ThreadPool& pool_;
  mutable std::mutex m_;  // guards rng_, in_flight_, stats
  std::condition_variable drained_;
  size_t in_flight_ = 0;
  Rng rng_;  // master; forked per request for the combiner's `rng`
  Stats total_;
  std::array<Stats, threshold::kSchemeIdCount + 1> by_scheme_{};
  std::array<obs::Histogram, threshold::kSchemeIdCount + 1> latency_;
};

/// A pool-parallel pairing-product evaluator (see threshold::FoldEvaluator;
/// no built-in combiner calls it).
threshold::FoldEvaluator make_fold_evaluator(ThreadPool& pool);

}  // namespace bnr::service
