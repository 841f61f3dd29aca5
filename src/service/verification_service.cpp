#include "service/verification_service.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "rpc/fault_injector.hpp"
#include "service/parallel.hpp"
#include "threshold/fold.hpp"

namespace bnr::service {

namespace {

using threshold::scheme_stats_slot;

}  // namespace

// ---------------------------------------------------------------------------
// MultiTenantVerificationService

MultiTenantVerificationService::MultiTenantVerificationService(
    KeyCacheManager<threshold::PreparedVerifier>& cache,
    VerifierProvider prepare, BatchPolicy policy, ThreadPool& pool,
    std::string_view rng_label)
    : cache_(cache),
      prepare_(std::move(prepare)),
      policy_(policy),
      pool_(pool),
      rng_(Rng::from_entropy().fork(rng_label)) {
  if (policy_.adaptive) {
    // The pool's busy -> idle edge is the adaptive flush trigger: set the
    // hint and poke the flusher. Runs on a worker under the pool's listener
    // lock — cheap and non-throwing, as the contract requires.
    idle_listener_token_ = pool_.add_idle_listener([this] {
      {
        std::lock_guard<std::mutex> l(m_);
        pool_idle_hint_ = true;
      }
      cv_.notify_one();
    });
    idle_listener_registered_ = true;
  }
  flusher_ = std::thread([this] { flusher_loop(); });
}

MultiTenantVerificationService::~MultiTenantVerificationService() {
  // Unregister FIRST: remove_idle_listener returning guarantees no listener
  // invocation is in flight, so nothing can touch this service's members
  // while (or after) they are torn down.
  if (idle_listener_registered_)
    pool_.remove_idle_listener(idle_listener_token_);
  {
    std::unique_lock<std::mutex> l(m_);
    stop_ = true;
  }
  cv_.notify_all();
  flusher_.join();
  std::unique_lock<std::mutex> l(m_);
  if (!pending_.empty()) dispatch_locked(l, /*deadline=*/false);
  drained_.wait(l, [&] { return in_flight_ == 0; });
}

ServiceStats& MultiTenantVerificationService::slice_locked(
    threshold::SchemeId id) {
  return by_scheme_[scheme_stats_slot(id)];
}

void MultiTenantVerificationService::submit(
    KeyId key, Bytes msg, threshold::SigHandle sig, Callback done,
    std::chrono::steady_clock::time_point deadline,
    std::shared_ptr<obs::RequestTrace> trace) {
  std::chrono::steady_clock::time_point submitted_at{};
  if (obs::enabled()) {
    submitted_at = std::chrono::steady_clock::now();
    if (trace) trace->stamp(obs::Stage::kQueued);
  }
  bool flush_now = false;
  {
    std::unique_lock<std::mutex> l(m_);
    if (pending_.empty()) oldest_ = std::chrono::steady_clock::now();
    ++total_.submitted;
    ++total_.in_progress;
    ServiceStats& slice = slice_locked(sig.scheme);
    ++slice.submitted;
    ++slice.in_progress;
    pending_.push_back({std::move(key), std::move(msg), std::move(sig),
                        std::move(done), deadline, submitted_at,
                        std::move(trace)});
    flush_now = pending_.size() >= policy_.max_batch;
    if (flush_now) {
      ++total_.size_flushes;
      dispatch_locked(l, /*deadline=*/false);
    } else if (policy_.adaptive && pool_.idle()) {
      // The pool has spare capacity RIGHT NOW: accumulating further buys no
      // amortization, only latency. (An idle() misread races a concurrent
      // submit at worst into one undersized batch.)
      ++total_.idle_flushes;
      dispatch_locked(l, /*deadline=*/false);
    }
  }
  cv_.notify_one();  // wake the flusher to re-arm its deadline
}

std::future<bool> MultiTenantVerificationService::submit(
    KeyId key, Bytes msg, threshold::SigHandle sig) {
  auto prom = std::make_shared<std::promise<bool>>();
  std::future<bool> fut = prom->get_future();
  submit(std::move(key), std::move(msg), std::move(sig),
         [prom](bool ok, std::exception_ptr err) {
           if (err)
             prom->set_exception(err);
           else
             prom->set_value(ok);
         });
  return fut;
}

void MultiTenantVerificationService::flush() {
  std::unique_lock<std::mutex> l(m_);
  if (!pending_.empty()) dispatch_locked(l, /*deadline=*/false);
}

void MultiTenantVerificationService::drain() {
  std::unique_lock<std::mutex> l(m_);
  if (!pending_.empty()) dispatch_locked(l, /*deadline=*/false);
  drained_.wait(l, [&] { return in_flight_ == 0; });
}

ServiceStats MultiTenantVerificationService::stats() const {
  std::lock_guard<std::mutex> l(m_);
  return total_;
}

ServiceStats MultiTenantVerificationService::stats(
    threshold::SchemeId id) const {
  std::lock_guard<std::mutex> l(m_);
  return by_scheme_[scheme_stats_slot(id)];
}

MultiTenantVerificationService::StatsBundle
MultiTenantVerificationService::stats_all() const {
  StatsBundle b;
  std::lock_guard<std::mutex> l(m_);
  b.total = total_;
  b.by_scheme = by_scheme_;
  return b;
}

obs::HistogramSnapshot MultiTenantVerificationService::latency(
    threshold::SchemeId id) const {
  return latency_[scheme_stats_slot(id)].snapshot();
}

obs::HistogramSnapshot MultiTenantVerificationService::latency() const {
  obs::HistogramSnapshot s;
  for (const auto& h : latency_) s.merge(h.snapshot());
  return s;
}

// Moves the pending batch out, splits it into per-key groups (arrival
// order preserved within each group) and packs the groups into
// min(pool size, keys) chunk tasks, largest group first onto the least
// loaded chunk, so a key never spans two chunks. Caller holds m_.
void MultiTenantVerificationService::dispatch_locked(
    std::unique_lock<std::mutex>&, bool deadline) {
  std::vector<Pending> batch;
  batch.swap(pending_);
  if (batch.empty()) return;
  if (deadline) ++total_.deadline_flushes;

  std::vector<Group> groups;
  {
    std::unordered_map<KeyId, size_t> pos;
    for (auto& p : batch) {
      auto [it, fresh] = pos.try_emplace(p.key, groups.size());
      if (fresh) groups.push_back(Group{p.key, {}});
      groups[it->second].members.push_back(std::move(p));
    }
  }
  std::vector<size_t> order(groups.size());
  std::iota(order.begin(), order.end(), size_t(0));
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return groups[a].members.size() > groups[b].members.size();
  });
  std::vector<std::vector<Group>> chunks(
      std::max<size_t>(1, std::min(pool_.size(), groups.size())));
  std::vector<size_t> load(chunks.size(), 0);
  for (size_t g : order) {
    const size_t c = static_cast<size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    load[c] += groups[g].members.size();
    chunks[c].push_back(std::move(groups[g]));
  }

  for (auto& chunk : chunks) {
    if (obs::enabled())
      for (auto& g : chunk)
        for (auto& p : g.members)
          if (p.trace) p.trace->stamp(obs::Stage::kFrozen);
    // The chunk is frozen; only NOW are its fold coefficients drawable.
    Rng chunk_rng = rng_.fork("batch");
    ++in_flight_;
    auto shared = std::make_shared<std::vector<Group>>(std::move(chunk));
    auto rng_shared = std::make_shared<Rng>(std::move(chunk_rng));
    pool_.submit([this, shared, rng_shared] {
      try {
        run_chunk(*shared, *rng_shared);
      } catch (...) {
        // A throwing fold (or bad_alloc) must not escape the worker
        // (std::terminate) or strand the submitters: every callback not yet
        // invoked carries the exception instead.
        for (auto& g : *shared) fail_group(g, std::current_exception());
      }
      std::lock_guard<std::mutex> l(m_);
      if (--in_flight_ == 0) drained_.notify_all();
    });
  }
}

// Completes every member of `group` not yet answered with `err`. These
// completions are neither verdicts nor sheds: they count as `errors`
// (stats BEFORE callbacks, like every other outcome), so the accounting
// identity keeps holding after a failure.
void MultiTenantVerificationService::fail_group(Group& group,
                                                std::exception_ptr err) {
  uint64_t errors = 0;
  {
    std::lock_guard<std::mutex> l(m_);
    for (auto& p : group.members) {
      if (!p.done) continue;
      ServiceStats& slice = slice_locked(p.sig.scheme);
      ++total_.errors;
      ++slice.errors;
      --total_.in_progress;
      --slice.in_progress;
      ++errors;
    }
  }
  if (errors)
    BNR_LOG(obs::LogLevel::kError, "service", "verify_group_error",
            obs::kv("key", group.key) + obs::kv("members", errors));
  for (auto& p : group.members) {
    if (!p.done) continue;  // already answered before the throw
    p.done(false, err);
    p.done = nullptr;
  }
}

// One chunk, one product: every key's surviving members go into ONE shared
// fold, and only a failed product pays for attribution (bisection down to
// exact single-member checks, threshold/fold.hpp). Shedding, pinning and
// provider errors stay per key.
void MultiTenantVerificationService::run_chunk(std::vector<Group>& groups,
                                               Rng& rng) {
  if (auto* f = rpc::FaultInjector::active()) f->on_task();
  // Deadline-aware shedding: members whose budget is already spent are
  // answered with DeadlineShed NOW, before their key pays for a prepare or
  // the chunk for a pairing — under overload the product that finally runs
  // only carries requests that can still make their deadline.
  {
    const auto now = std::chrono::steady_clock::now();
    std::vector<Pending*> shed;
    for (auto& g : groups)
      for (auto& p : g.members)
        if (p.deadline <= now) shed.push_back(&p);
    if (!shed.empty()) {
      {
        std::lock_guard<std::mutex> l(m_);
        for (Pending* p : shed) {
          ServiceStats& slice = slice_locked(p->sig.scheme);
          ++total_.deadline_sheds;
          ++slice.deadline_sheds;
          --total_.in_progress;
          --slice.in_progress;
        }
      }
      for (Pending* p : shed) {
        p->done(false, std::make_exception_ptr(DeadlineShed()));
        p->done = nullptr;
      }
      for (auto& g : groups)
        std::erase_if(g.members, [](const Pending& p) { return !p.done; });
    }
  }

  threshold::FoldBuilder fold(rng);
  std::vector<Pending*> members;  // fold member i answers members[i]
  std::vector<KeyCacheManager<threshold::PreparedVerifier>::Pin> pins;
  for (auto& g : groups) {
    if (g.members.empty()) continue;
    if (obs::enabled())
      for (auto& p : g.members)
        if (p.trace) p.trace->stamp(obs::Stage::kCryptoStart);
    // Pinned until the verdicts are in: the cache may not evict this
    // tenant's prepared state mid-fold. The provider only runs on a miss,
    // which is how the per-scheme hit/miss split is observed without the
    // cache knowing about schemes. A provider that throws fails this key
    // only.
    bool missed = false;
    KeyCacheManager<threshold::PreparedVerifier>::Pin pin;
    try {
      pin = cache_.get_or_prepare(g.key, [&](const KeyId& canonical) {
        missed = true;
        return prepare_(canonical);
      });
    } catch (...) {
      fail_group(g, std::current_exception());
      continue;
    }
    {
      std::lock_guard<std::mutex> l(m_);
      ServiceStats& slice = slice_locked(g.members.front().sig.scheme);
      ++total_.cache_lookups;
      ++slice.cache_lookups;
      if (missed) {
        ++total_.cache_misses;
        ++slice.cache_misses;
      }
    }
    for (auto& p : g.members) {
      pin->add_to_fold(fold, p.msg, p.sig);
      members.push_back(&p);
      if (fold.size() != members.size())
        throw std::logic_error("add_to_fold must add exactly one member");
    }
    pins.push_back(std::move(pin));
  }
  if (members.empty()) return;

  const std::vector<bool> ok = fold.verdicts();
  {
    // Stats are committed BEFORE the callbacks run, so a caller that
    // observes a verdict also observes its chunk in stats(). A per-scheme
    // row counts every product that held one of its members.
    std::lock_guard<std::mutex> l(m_);
    std::array<bool, threshold::kSchemeIdCount + 1> present{};
    for (size_t j = 0; j < members.size(); ++j) {
      const threshold::SchemeId scheme = members[j]->sig.scheme;
      ServiceStats& slice = slice_locked(scheme);
      (ok[j] ? total_.accepted : total_.rejected)++;
      (ok[j] ? slice.accepted : slice.rejected)++;
      --total_.in_progress;
      --slice.in_progress;
      present[scheme_stats_slot(scheme)] = true;
    }
    auto count = [&](ServiceStats& s) {
      ++s.batches;
      if (fold.failed()) ++s.fallbacks;
      s.subproducts += fold.subproducts();
    };
    count(total_);
    for (size_t i = 0; i < present.size(); ++i)
      if (present[i]) count(by_scheme_[i]);
  }
  if (obs::enabled()) {
    // Latency records alongside the verdict commit (also before the
    // callbacks), so histogram totals and the accepted/rejected counters
    // can never disagree for an observer.
    const auto now = std::chrono::steady_clock::now();
    for (Pending* p : members) {
      if (p->trace) p->trace->stamp(obs::Stage::kCryptoDone);
      if (p->submitted_at.time_since_epoch().count() != 0)
        latency_[scheme_stats_slot(p->sig.scheme)].record(
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    now - p->submitted_at)
                    .count()));
    }
  }
  for (size_t j = 0; j < members.size(); ++j) {
    members[j]->done(ok[j], nullptr);
    members[j]->done = nullptr;
  }
}

void MultiTenantVerificationService::flusher_loop() {
  std::unique_lock<std::mutex> l(m_);
  for (;;) {
    if (stop_) return;
    if (pending_.empty()) {
      pool_idle_hint_ = false;  // only meaningful against a live batch
      cv_.wait(l, [&] { return stop_ || !pending_.empty(); });
      continue;
    }
    // Adaptive: a pool gone idle flushes the batch immediately; max_delay
    // below stays as the upper bound when the pool never drains.
    if (policy_.adaptive && pool_idle_hint_) {
      pool_idle_hint_ = false;
      ++total_.idle_flushes;
      dispatch_locked(l, /*deadline=*/false);
      continue;
    }
    auto deadline = oldest_ + policy_.max_delay;
    if (cv_.wait_until(l, deadline, [&] {
          return stop_ || pending_.empty() ||
                 (policy_.adaptive && pool_idle_hint_);
        }))
      continue;  // state changed under us; re-evaluate
    if (std::chrono::steady_clock::now() < oldest_ + policy_.max_delay)
      continue;  // the armed deadline belonged to an already-flushed batch
    dispatch_locked(l, /*deadline=*/true);
  }
}

// ---------------------------------------------------------------------------
// MultiTenantCombineService

MultiTenantCombineService::MultiTenantCombineService(
    KeyCacheManager<threshold::PreparedCombiner>& cache,
    CombinerProvider prepare, ThreadPool& pool, std::string_view rng_label)
    // Entropy-seeded master (label mixed in via fork), so a plugin that does
    // draw coins from its `rng` gets unpredictable ones.
    : cache_(cache),
      prepare_(std::move(prepare)),
      pool_(pool),
      rng_(Rng::from_entropy().fork(rng_label)) {}

MultiTenantCombineService::~MultiTenantCombineService() {
  std::unique_lock<std::mutex> l(m_);
  drained_.wait(l, [&] { return in_flight_ == 0; });
}

MultiTenantCombineService::Stats& MultiTenantCombineService::slice_locked(
    threshold::SchemeId id) {
  return by_scheme_[scheme_stats_slot(id)];
}

void MultiTenantCombineService::submit(
    KeyId key, threshold::SchemeId scheme, Bytes msg,
    std::vector<threshold::PartialHandle> parts, Callback done,
    std::shared_ptr<obs::RequestTrace> trace) {
  std::chrono::steady_clock::time_point submitted_at{};
  if (obs::enabled()) {
    submitted_at = std::chrono::steady_clock::now();
    if (trace) trace->stamp(obs::Stage::kQueued);
  }
  Rng task_rng = [&] {
    std::lock_guard<std::mutex> l(m_);
    ++in_flight_;
    ++total_.submitted;
    ++slice_locked(scheme).submitted;
    return rng_.fork("combine");
  }();
  auto state = std::make_shared<std::tuple<KeyId, Bytes, Rng>>(
      std::move(key), std::move(msg), std::move(task_rng));
  auto parts_shared =
      std::make_shared<std::vector<threshold::PartialHandle>>(
          std::move(parts));
  auto done_shared = std::make_shared<Callback>(std::move(done));
  pool_.submit([this, scheme, state, parts_shared, done_shared, submitted_at,
                trace = std::move(trace)] {
    bool missed = false;
    CombineOutcome out;
    std::exception_ptr error;
    if (trace) trace->stamp(obs::Stage::kCryptoStart);
    try {
      // Pinned across the whole combine: the committee's prepared state
      // cannot be evicted mid-fold. Prepared from the alias-resolved
      // canonical key (see VerifierProvider).
      auto pin =
          cache_.get_or_prepare(std::get<0>(*state), [&](const KeyId& k) {
            missed = true;
            return prepare_(k);
          });
      out.sig = pin->combine(std::get<1>(*state), *parts_shared,
                             std::get<2>(*state), {}, &out.cheaters);
    } catch (...) {
      error = std::current_exception();
    }
    {
      // Stats commit BEFORE the callback resolves (matching run_group): a
      // caller that observes a resolved combine also observes it in stats().
      std::lock_guard<std::mutex> l(m_);
      Stats& slice = slice_locked(scheme);
      ++total_.cache_lookups;
      ++slice.cache_lookups;
      if (missed) {
        ++total_.cache_misses;
        ++slice.cache_misses;
      }
      if (error) {
        ++total_.failed;
        ++slice.failed;
      }
    }
    if (obs::enabled()) {
      if (trace) trace->stamp(obs::Stage::kCryptoDone);
      if (submitted_at.time_since_epoch().count() != 0)
        latency_[scheme_stats_slot(scheme)].record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - submitted_at)
                .count()));
    }
    if (error)
      BNR_LOG(obs::LogLevel::kInfo, "service", "combine_failed",
              obs::kv("key", std::get<0>(*state)) +
                  obs::kv("scheme", uint64_t(scheme)));
    if (error)
      (*done_shared)(nullptr, error);
    else
      (*done_shared)(&out, nullptr);
    std::lock_guard<std::mutex> l(m_);
    if (--in_flight_ == 0) drained_.notify_all();
  });
}

std::future<Bytes> MultiTenantCombineService::submit(
    KeyId key, threshold::SchemeId scheme, Bytes msg,
    std::vector<threshold::PartialHandle> parts) {
  auto promise = std::make_shared<std::promise<Bytes>>();
  auto fut = promise->get_future();
  submit(std::move(key), scheme, std::move(msg), std::move(parts),
         [promise](CombineOutcome* out, std::exception_ptr err) {
           if (err)
             promise->set_exception(err);
           else
             promise->set_value(std::move(out->sig));
         });
  return fut;
}

MultiTenantCombineService::Stats MultiTenantCombineService::stats() const {
  std::lock_guard<std::mutex> l(m_);
  return total_;
}

MultiTenantCombineService::Stats MultiTenantCombineService::stats(
    threshold::SchemeId id) const {
  std::lock_guard<std::mutex> l(m_);
  return by_scheme_[scheme_stats_slot(id)];
}

MultiTenantCombineService::StatsBundle MultiTenantCombineService::stats_all()
    const {
  std::lock_guard<std::mutex> l(m_);
  return {total_, by_scheme_};
}

obs::HistogramSnapshot MultiTenantCombineService::latency(
    threshold::SchemeId id) const {
  return latency_[scheme_stats_slot(id)].snapshot();
}

obs::HistogramSnapshot MultiTenantCombineService::latency() const {
  obs::HistogramSnapshot s;
  for (const auto& h : latency_) s.merge(h.snapshot());
  return s;
}

// ---------------------------------------------------------------------------
// Evaluators

threshold::FoldEvaluator make_fold_evaluator(ThreadPool& pool) {
  return [&pool](std::span<const G1Affine> points,
                 std::span<const G2Prepared* const> preps) {
    std::vector<PreparedTerm> terms;
    terms.reserve(points.size());
    for (size_t j = 0; j < points.size(); ++j)
      terms.push_back({points[j], preps[j]});
    return pairing_product_is_one_parallel(pool, terms);
  };
}

}  // namespace bnr::service
