// The request-driven serving front end (Thetacrypt-style), multi-tenant and
// SCHEME-AGNOSTIC: callers submit (key-id, message, erased signature
// handle) and get a future; the service accumulates requests and flushes
// when the batch reaches `max_batch` OR the oldest request has waited
// `max_delay`.
//
// A flush groups the pending requests PER KEY-ID and packs the groups into
// min(pool size, keys in the flush) CHUNK tasks, balanced by member count;
// a key never spans two chunks. Each chunk evaluates ONE shared
// random-linear-combination pairing product over the members of every key
// in it (threshold/fold.hpp): the generator tables every key pairs against
// are shared through SystemParams, so a chunk pays one final
// exponentiation and one Miller term per distinct table, not one product
// per key. The small-exponents test is sound over any set of
// pairing-product equations, whatever keys they are under; what the service
// guarantees on top is:
//
//  * One pinned coefficient per product. The fold pins its first member's
//    first equation to 1 and draws every other coefficient fresh. (Pinning
//    one per key would let z_A + X under key A and z_B - X under key B
//    cancel on the shared g^_z table.)
//  * Exact verdicts. Only a failed product pays for attribution: it is
//    bisected down to exact single-member checks, and only such a check
//    rejects, so a forgery under key B never changes key A's verdicts.
//  * Cost isolation. With d invalid members among N in a chunk,
//    attribution evaluates at most 2d*ceil(log2 N) sub-products
//    (ServiceStats::subproducts), and every member is hashed once.
//  * Per-key failure. Deadline shedding, cache pinning and provider errors
//    stay per key: a provider that throws fails only its key's members.
//
// There is exactly ONE service implementation for every signature family:
// requests carry `threshold::SigHandle` (the signature parsed once at the
// boundary) and verifiers are the type-erased `threshold::PreparedVerifier`
// out of a single shared KeyCacheManager — RO, DLIN, Agg, and BLS tenants
// all flow through the same queue, the same chunks, and the same cache,
// with per-SchemeId stats split out for observability. Construct a
// provider over `Scheme::make_verifier`.
//
// Verifiers are not owned by the service: they are pinned out of the shared
// `KeyCacheManager` until their chunk's verdicts are in (prepared state for
// millions of tenant keys does not fit in RAM; see key_cache.hpp), and
// prepared on miss via a caller-supplied provider.
//
// Soundness under concurrency: each chunk draws its RLC coefficients from a
// private Rng forked AFTER the flush is frozen (the pending vector is moved
// out under the lock before coefficients exist), so no submitter can adapt
// its signature to the coefficients that will fold it. The master Rng is
// seeded from OS entropy (the label is only mixed in as a fork domain) — a
// deterministic, label-only seed would let an adversary precompute every
// product's coefficients and submit invalid signatures whose RLC error
// terms cancel, defeating the fold.
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
/// already spent before its chunk's product ran: the request was SHED, not
/// verified. Distinct from RpcError/ProtocolError so the RPC layer can map
/// it onto the wire's SHED status (attributable, not retryable).
struct DeadlineShed : std::runtime_error {
  DeadlineShed()
      : std::runtime_error("deadline budget spent before verification") {}
};

struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t batches = 0;          // chunk products evaluated (one per chunk
                                 // task: up to pool-size per flush, each
                                 // over one or more keys' members)
  uint64_t size_flushes = 0;     // flushes triggered by max_batch
  uint64_t deadline_flushes = 0; // flushes triggered by max_delay
  uint64_t idle_flushes = 0;     // adaptive flushes (pool went idle)
  uint64_t fallbacks = 0;        // chunk products that failed -> bisection
  uint64_t subproducts = 0;      // products attribution evaluated after a
                                 // failed chunk product (<= 2d*ceil(log2 N)
                                 // each, d invalid of N members)
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
/// erased `PreparedVerifier` adds the scheme-specific equations to the
/// shared fold, the SigHandle carries the parsed signature, and the cache
/// key (namespaced by scheme name + pk digest) keeps tenants of different
/// schemes apart.
class MultiTenantVerificationService {
 public:
  using KeyId = std::string;
  /// Prepares the verifier on cache miss (runs on a pool worker, outside
  /// any shard lock). Receives the CANONICAL cache key — the alias-resolved
  /// key, e.g. "<scheme>:<pk digest>" when the registrar aliased tenants by
  /// public key — so what it derives the verifier from is keyed by what the
  /// cache stores it under, and a concurrent re-registration cannot poison
  /// the entry. Throwing fails every request of that key in the flush, and
  /// only those: the other keys of its chunk still get verdicts.
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

  /// Flushes whatever is pending, waits for in-flight chunks, stops.
  ~MultiTenantVerificationService();

  MultiTenantVerificationService(const MultiTenantVerificationService&) =
      delete;
  MultiTenantVerificationService& operator=(
      const MultiTenantVerificationService&) = delete;

  /// `deadline` is the request's drop-dead time: a member whose deadline has
  /// passed when its chunk task starts is SHED — completed with
  /// DeadlineShed BEFORE its key pays for a prepare or a pairing, so under
  /// overload the pool's capacity goes to requests that can still make their
  /// budget. time_point::max() (the default) never sheds.
  void submit(KeyId key, Bytes msg, threshold::SigHandle sig, Callback done,
              std::chrono::steady_clock::time_point deadline =
                  std::chrono::steady_clock::time_point::max(),
              std::shared_ptr<obs::RequestTrace> trace = nullptr);

  /// Future-based front over the callback core.
  std::future<bool> submit(KeyId key, Bytes msg, threshold::SigHandle sig);

  /// Forces whatever is pending out as one flush (one product per chunk).
  void flush();

  /// Blocks until no request is pending or in flight.
  void drain();

  /// Requests accumulated but not yet dispatched into chunks (the HEALTH
  /// queue-depth counter).
  size_t pending() const {
    std::lock_guard<std::mutex> l(m_);
    return pending_.size();
  }

  /// Aggregate across every scheme.
  ServiceStats stats() const;
  /// The per-scheme slice (requests, verdicts, cache lookups/misses of that
  /// scheme's members and keys; the chunk products, fallbacks and
  /// sub-products that held one of its members).
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

  /// The requests of one key-id in a flush: the unit of pinning, shedding
  /// and provider errors. A chunk task folds several groups into one
  /// product.
  struct Group {
    KeyId key;
    std::vector<Pending> members;
  };

  void dispatch_locked(std::unique_lock<std::mutex>&, bool deadline);
  void run_chunk(std::vector<Group>& groups, Rng& rng);
  void fail_group(Group& group, std::exception_ptr err);
  void flusher_loop();
  ServiceStats& slice_locked(threshold::SchemeId id);

  KeyCacheManager<threshold::PreparedVerifier>& cache_;
  VerifierProvider prepare_;
  BatchPolicy policy_;
  ThreadPool& pool_;
  Rng rng_;  // master; forked per chunk (guarded by m_)

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
