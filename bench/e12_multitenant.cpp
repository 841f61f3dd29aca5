// E12 — multi-tenant serving: hit rate vs throughput of the sharded
// key-cache manager at 1k / 10k / 100k simulated tenant keys under
// Zipf(1.0) access.
//
// Every tenant key-id is a DISTINCT cache entry with the real preparation
// cost (four Miller-loop line tables) and the real resident footprint; all
// ids map to one underlying committee so the bench does not pay 100k DKGs —
// cache dynamics (prepare-on-miss, byte-budget eviction, LRU churn) are
// identical to fully distinct key material.
//
// Ladder per population size:
//   * warm phase: Zipf draws through get_or_prepare only, to reach cache
//     steady state;
//   * measured phase: Zipf draws with a pinned cached verify per request —
//     the multi-tenant serving hot path — reporting ns/request and the
//     steady-state (warm-cache) hit rate;
//   * at 10k keys additionally the full batching service path
//     (per-tenant RLC folds over the async queue).
//
// Emits BENCH_e12.json; CI reports the 10k hit rate (target >= 90%) and the
// multi-tenant overhead ratio vs the single-tenant cached path (target
// <= 1.5x) as informational guards.
#include <cstdio>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "service/key_cache.hpp"
#include "service/thread_pool.hpp"
#include "service/verification_service.hpp"
#include "threshold/fold.hpp"
#include "threshold/ro_scheme.hpp"
#include "threshold/scheme_registry.hpp"

using namespace bnr;
using service::KeyCacheManager;
using service::KeyCachePolicy;
using service::ZipfSampler;

namespace {
volatile bool sink = false;

std::string key_id(size_t tenant) { return "tenant-" + std::to_string(tenant); }
}  // namespace

int main() {
  bench::JsonWriter out("BENCH_e12.json");
  bench::header("multi-tenant key-cache serving (Zipf 1.0)");

  threshold::SystemParams sp = threshold::SystemParams::derive("e12");
  threshold::RoScheme scheme(sp);
  Rng rng("e12-rng");
  auto km = scheme.dist_keygen(3, 1, rng);

  // Request pool: pre-signed messages reused round-robin, so the measured
  // loop pays verification and cache traffic only.
  constexpr size_t kPool = 64;
  std::vector<Bytes> msgs;
  std::vector<threshold::Signature> sigs;
  for (size_t j = 0; j < kPool; ++j) {
    msgs.push_back(to_bytes("e12 req " + std::to_string(j)));
    std::vector<threshold::PartialSignature> parts;
    for (uint32_t i = 1; i <= km.t + 1; ++i)
      parts.push_back(scheme.share_sign(km.shares[i - 1], msgs.back()));
    sigs.push_back(scheme.combine_unchecked(km.t, parts));
  }

  // The serving stack is type-erased since PR 5: the cache holds
  // PreparedVerifier and requests carry SigHandles parsed once. The bench
  // therefore measures exactly what the daemon's hot path pays.
  auto prepare = [&](const std::string&) {
    return threshold::erase_verifier<threshold::RoVerifier,
                                     threshold::Signature>(
        threshold::SchemeId::kRo, threshold::RoVerifier(scheme, km.pk));
  };
  std::vector<threshold::SigHandle> handles;
  for (const auto& sg : sigs)
    handles.push_back(
        threshold::erase_signature(threshold::SchemeId::kRo, sg));
  threshold::RoVerifier probe(scheme, km.pk);
  const size_t unit = probe.cache_bytes();
  out.record("multitenant/prepared_verifier_bytes", double(unit));
  out.bench("multitenant/prepare_verifier_ns", [&] {
    threshold::RoVerifier v(scheme, km.pk);
    sink = v.cache_bytes() == 0;
  }, 3, 200.0);

  // Single-tenant cached baseline (the throughput target the cache-routed
  // path must stay within 1.5x of) and the type-erasure overhead on the
  // cached verify hot path: the same verifier behind the PreparedVerifier
  // vtable with pre-parsed SigHandles. The acceptance gate is <= 5% (virtual
  // dispatch + tag check + shared_ptr deref against a ~ms pairing product).
  // The two are timed in alternating rounds, so their ratio does not follow
  // whichever host phase each block happened to run in.
  threshold::SchemeRegistry registry(sp);
  auto erased = registry.at(threshold::SchemeId::kRo)
                    .make_verifier(km.pk.serialize());
  constexpr int kRounds = 7;
  const auto cached = bench::alternating_ns(
      {[&] {
         bool ok = true;
         for (size_t j = 0; j < kPool; ++j)
           ok = ok && probe.verify(msgs[j], sigs[j]);
         sink = !ok;
       },
       [&] {
         bool ok = true;
         for (size_t j = 0; j < kPool; ++j)
           ok = ok && erased->verify(msgs[j], handles[j]);
         sink = !ok;
       }},
      kRounds, 2, 120.0);
  const double single_ns = cached[0], erased_ns = cached[1];
  out.record("multitenant/single_tenant_cached_ns", single_ns / kPool);
  out.record("multitenant/erased_verify_ns", erased_ns / kPool);
  out.record("multitenant/erasure_overhead_ratio", erased_ns / single_ns);
  printf("type-erased cached verify: %.0f ns vs typed %.0f ns (%.3fx)\n",
         erased_ns / kPool, single_ns / kPool, erased_ns / single_ns);

  // 8000 resident keys: under Zipf(1.0) over 10k keys the head that fits
  // carries ~97% of the traffic mass, so a warm LRU holds >= 90% hit rate.
  constexpr size_t kResidentTarget = 8000;
  const size_t budget = kResidentTarget * unit;
  printf("\ncache budget: %zu entries x %zu KB = %.0f MB, 16 shards\n",
         kResidentTarget, unit >> 10, double(budget) / (1 << 20));

  double request_ns_10k = 0;
  for (size_t keys : {size_t(1000), size_t(10000), size_t(100000)}) {
    KeyCacheManager<threshold::PreparedVerifier> cache(
        {.byte_budget = budget, .shards = 16});
    ZipfSampler zipf(keys, 1.0);
    Rng traffic("e12-traffic-" + std::to_string(keys));

    // Warm cache: touch the hottest ranks that fit, least-popular first, so
    // the Zipf head sits at the LRU front exactly as a long-running server
    // would leave it; a short Zipf mixing run then settles realistic
    // recency order before measurement.
    const size_t hot = std::min<size_t>(keys, kResidentTarget);
    for (size_t rank = hot; rank-- > 0;)
      cache.get_or_prepare(key_id(rank), prepare);
    for (size_t j = 0; j < 2000; ++j)
      cache.get_or_prepare(key_id(zipf.sample(traffic)), prepare);
    auto warmed = cache.stats();

    const size_t reqs = 1500;
    double ms = bench::time_ms([&] {
      bool ok = true;
      for (size_t j = 0; j < reqs; ++j) {
        auto pin = cache.get_or_prepare(key_id(zipf.sample(traffic)), prepare);
        ok = ok && pin->verify(msgs[j % kPool], handles[j % kPool]);
      }
      sink = !ok;
    });
    auto st = cache.stats();
    double hit_rate =
        100.0 * double(st.hits - warmed.hits) /
        double((st.hits - warmed.hits) + (st.misses - warmed.misses));
    std::string suffix = std::to_string(keys / 1000) + "k";
    out.record("multitenant/request_ns_" + suffix, ms * 1e6 / reqs);
    out.record("multitenant/hit_rate_pct_" + suffix, hit_rate);
    printf("  %6zu keys: %.1f%% warm hit rate, %llu resident (%.0f MB), "
           "%llu evictions\n",
           keys, hit_rate, (unsigned long long)st.resident_entries,
           double(st.resident_bytes) / (1 << 20),
           (unsigned long long)st.evictions);
    if (keys == 10000) request_ns_10k = ms * 1e6 / reqs;
  }
  out.record("multitenant/overhead_ratio_10k",
             request_ns_10k / (single_ns / kPool));

  // The full service path at 10k keys: async queue, per-tenant RLC folds.
  bench::header("batching service over the key cache (10k keys)");
  {
    service::ThreadPool pool;
    KeyCacheManager<threshold::PreparedVerifier> cache(
        {.byte_budget = budget, .shards = 16});
    service::MultiTenantVerificationService svc(
        cache, prepare,
        service::BatchPolicy{.max_batch = 32,
                             .max_delay = std::chrono::milliseconds(2)},
        pool);
    ZipfSampler zipf(10000, 1.0);
    Rng traffic("e12-service-traffic");
    const size_t warm = 15000;
    for (size_t j = 0; j < warm; ++j)
      cache.get_or_prepare(key_id(zipf.sample(traffic)), prepare);

    const size_t reqs = 1500;
    double ms = bench::time_ms([&] {
      std::vector<std::future<bool>> futs;
      futs.reserve(reqs);
      for (size_t j = 0; j < reqs; ++j)
        futs.push_back(svc.submit(key_id(zipf.sample(traffic)),
                                  msgs[j % kPool], handles[j % kPool]));
      bool ok = true;
      for (auto& f : futs) ok = ok && f.get();
      sink = !ok;
    });
    out.record("multitenant/service_request_ns_10k", ms * 1e6 / reqs);
    auto vs = svc.stats();
    printf("\nservice: %llu requests in %llu per-key folds, %.1f%% cache hit "
           "rate\n",
           (unsigned long long)vs.submitted, (unsigned long long)vs.batches,
           100.0 * cache.stats().hit_rate());
  }

  out.flush();
  return 0;
}
