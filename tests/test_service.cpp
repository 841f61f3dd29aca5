// The parallel verification service: work-stealing pool semantics, the
// pool-parallel MSM / multi-pairing drivers against their serial oracles,
// the optimistic Combine engines (including cheater identification matching
// the sequential path), and the request-batching verification service under
// deterministic multi-threaded load.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <map>
#include <thread>

#include "baselines/boldyreva.hpp"
#include "common/rng.hpp"
#include "fixtures.hpp"
#include "service/key_cache.hpp"
#include "service/parallel.hpp"
#include "service/thread_pool.hpp"
#include "service/verification_service.hpp"
#include "threshold/aggregate_scheme.hpp"
#include "threshold/dlin_scheme.hpp"
#include "threshold/fold.hpp"
#include "threshold/ro_scheme.hpp"
#include "threshold/scheme_registry.hpp"

namespace bnr {
namespace {

using namespace bnr::threshold;
using service::BatchPolicy;
using service::ThreadPool;

// ---------------------------------------------------------------------------
// Thread pool

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](size_t i) {
                                   if (i == 13)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SubmitRunsEveryTask) {
  ThreadPool pool(3);
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  std::promise<void> all;
  for (int i = 0; i < kTasks; ++i)
    pool.submit([&] {
      if (done.fetch_add(1) + 1 == kTasks) all.set_value();
    });
  ASSERT_EQ(all.get_future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPool, NestedParallelForInsidePoolTaskDoesNotDeadlock) {
  // help-first parallel_for: a pool task may itself fan out even when every
  // worker is busy, because the caller claims iterations too.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::promise<void> done;
  pool.submit([&] {
    pool.parallel_for(100, [&](size_t) { total.fetch_add(1); });
    done.set_value();
  });
  ASSERT_EQ(done.get_future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, BnrThreadsEnvValidated) {
  // Runs before any other thread could be mid-getenv: gtest executes tests
  // sequentially and no pool outlives its test.
  ASSERT_EQ(::setenv("BNR_THREADS", "0", 1), 0);
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);  // 0 workers: nonsense
  ASSERT_EQ(::setenv("BNR_THREADS", "-3", 1), 0);
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
  ASSERT_EQ(::setenv("BNR_THREADS", "banana", 1), 0);
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
  ASSERT_EQ(::setenv("BNR_THREADS", "3", 1), 0);
  {
    ThreadPool pool;  // explicit override honored
    EXPECT_EQ(pool.size(), 3u);
  }
  ASSERT_EQ(::unsetenv("BNR_THREADS"), 0);
  ThreadPool pool;  // default: hardware concurrency (or the 4-worker floor)
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  constexpr int kTasks = 50;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) pool.submit([&] { done.fetch_add(1); });
  }
  EXPECT_EQ(done.load(), kTasks);
}

// ---------------------------------------------------------------------------
// Parallel curve/pairing drivers vs their serial oracles

TEST(Parallel, MultiPairingMatchesSerial) {
  ThreadPool pool(4);
  Rng rng("parallel-pairing");
  std::vector<PairingTerm> plain;
  for (int i = 0; i < 12; ++i)
    plain.push_back({G1::generator().mul(Fr::random(rng)).to_affine(),
                     G2::generator().mul(Fr::random(rng)).to_affine()});
  std::vector<G2Prepared> prepared;
  prepared.reserve(plain.size());
  std::vector<PreparedTerm> terms;
  for (const auto& t : plain) {
    prepared.emplace_back(t.q);
    terms.push_back({t.p, &prepared.back()});
  }
  EXPECT_EQ(service::multi_pairing_parallel(pool, terms),
            multi_pairing(terms));
  EXPECT_EQ(service::multi_pairing_parallel(pool, terms),
            multi_pairing_reference(plain));
}

TEST(Parallel, PairingProductCancellationDetected) {
  ThreadPool pool(2);
  Rng rng("parallel-cancel");
  // e(aG, Q) * e(-aG, Q) * (8 more cancelling pairs) == 1; a tampered term
  // breaks it — the parallel chunking must not change the product.
  std::vector<G2Prepared> prepared;
  std::vector<PreparedTerm> terms;
  prepared.reserve(10);
  std::vector<G1Affine> ps;
  for (int i = 0; i < 5; ++i) {
    Fr a = Fr::random(rng);
    ps.push_back(G1::generator().mul(a).to_affine());
    ps.push_back((-G1::generator().mul(a)).to_affine());
  }
  for (int i = 0; i < 10; ++i) {
    prepared.emplace_back(G2Curve::generator_affine());
    terms.push_back({ps[i], &prepared.back()});
  }
  EXPECT_TRUE(service::pairing_product_is_one_parallel(pool, terms));
  terms[3].p = G1::generator().mul(Fr::from_u64(7)).to_affine();
  EXPECT_FALSE(service::pairing_product_is_one_parallel(pool, terms));
}

// ---------------------------------------------------------------------------
// Batched Combine engines

struct CombinerFixture : testfx::RoSchemeFixture {
  CombinerFixture() : RoSchemeFixture("service-test") {}
  KeyMaterial km = keygen(5, 2);

  std::vector<PartialSignature> partials(std::span<const uint8_t> msg,
                                         std::initializer_list<uint32_t> ids) {
    return RoSchemeFixture::partials(km, msg, ids);
  }
};

TEST_F(CombinerFixture, CombinerMatchesSchemeCombine) {
  Bytes m = to_bytes("combiner happy path");
  auto parts = partials(m, {1, 2, 3, 4});
  RoCombiner combiner(scheme, km);
  Signature a = combiner.combine(m, parts);
  Signature b = scheme.combine(km, m, parts);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(scheme.verify(km.pk, m, a));
}

TEST_F(CombinerFixture, ShareVerifyAcceptsHonestRejectsTampered) {
  Bytes m = to_bytes("batch share verify");
  auto parts = partials(m, {1, 2, 3});
  auto h = scheme.hash_message(m);
  parts[2] = tamper(parts[2]);
  EXPECT_TRUE(scheme.share_verify(km.vks[0], h, parts[0]));
  EXPECT_FALSE(scheme.share_verify(km.vks[2], h, parts[2]));
}

TEST_F(CombinerFixture, BatchedCombineIdentifiesCheaterLikeSequentialPath) {
  // The sequential path scans in order: 1 ok, 2 BAD, 3 ok, 4 ok -> stops with
  // {1,3,4}, having classified exactly player 2 as a cheater. The combiner
  // must see the head's interpolated signature fail, then report the same
  // cheater and produce the same signature.
  Bytes m = to_bytes("cheater identification");
  auto parts = partials(m, {1, 2, 3, 4, 5});
  parts[1] = tamper(parts[1]);
  RoCombiner combiner(scheme, km);
  std::vector<uint32_t> cheaters;
  Signature sig = combiner.combine(m, parts, &cheaters);
  EXPECT_EQ(cheaters, std::vector<uint32_t>({2}));
  EXPECT_TRUE(scheme.verify(km.pk, m, sig));
  EXPECT_EQ(sig, scheme.combine(km, m, parts));  // sequential-path result
  // Honest subset yields the same unique signature (non-interactivity).
  EXPECT_EQ(sig, combiner.combine(m, partials(m, {1, 3, 4})));
}

TEST_F(CombinerFixture, CombineThrowsWhenTooManyInvalid) {
  // Players 1 and 3 carry the same error; lambda_1 + lambda_3 = 3 + 1 != 0
  // in the head {1, 2, 3}, so the interpolated signature fails and the scan
  // finds only {2, 4} valid.
  Bytes m = to_bytes("mostly bad");
  auto parts = partials(m, {1, 2, 3, 4});
  parts[0] = tamper(parts[0]);
  parts[2] = tamper(parts[2]);
  RoCombiner combiner(scheme, km);
  std::vector<uint32_t> cheaters;
  EXPECT_THROW(combiner.combine(m, parts, &cheaters), std::runtime_error);
  EXPECT_EQ(cheaters, std::vector<uint32_t>({1, 3}));
}

TEST_F(CombinerFixture, CancellingTampersYieldTheHonestSignature) {
  // Players 1 and 2 shifted by the same point in the head {1, 2, 3}:
  // lambda_1 = 3 and lambda_2 = -3, so the errors cancel and the
  // interpolated signature IS the honest one. Combine returns it and names
  // nobody — on every path (cached, stateless, erased).
  Bytes m = to_bytes("mostly bad");
  auto parts = partials(m, {1, 2, 3, 4});
  parts[0] = tamper(parts[0]);
  parts[1] = tamper(parts[1]);
  const Signature honest = scheme.combine(km, m, partials(m, {1, 2, 3}));
  EXPECT_FALSE(scheme.share_verify(km.vks[0], m, parts[0]));
  EXPECT_FALSE(scheme.share_verify(km.vks[1], m, parts[1]));

  const RoCombiner combiner(scheme, km);
  std::vector<uint32_t> cheaters;
  EXPECT_EQ(combiner.combine(m, parts, &cheaters), honest);
  EXPECT_TRUE(cheaters.empty());
  EXPECT_EQ(scheme.combine(km, m, parts), honest);

  auto erased =
      erase_combiner<RoCombiner, PartialSignature>(SchemeId::kRo, combiner);
  std::vector<PartialHandle> handles;
  for (const auto& p : parts)
    handles.push_back(erase_partial(SchemeId::kRo, p));
  Rng coins("cancelling-tampers");
  Bytes sig = erased->combine(m, handles, coins, {}, &cheaters);
  EXPECT_EQ(sig, honest.serialize());
  EXPECT_TRUE(cheaters.empty());
  EXPECT_TRUE(scheme.verify(km.pk, m, honest));
}

TEST_F(CombinerFixture, CombineMatchesSchemeWithAndWithoutCheater) {
  Bytes m = to_bytes("parallel combine");
  auto parts = partials(m, {2, 3, 5});
  RoCombiner combiner(scheme, km);
  Signature sig = combiner.combine(m, parts);
  EXPECT_EQ(sig, scheme.combine(km, m, parts));
  // And with a cheater, through the fallback path.
  auto bad = partials(m, {1, 2, 3, 4});
  bad[0] = tamper(bad[0]);
  std::vector<uint32_t> cheaters;
  Signature sig2 = combiner.combine(m, bad, &cheaters);
  EXPECT_EQ(cheaters, std::vector<uint32_t>({1}));
  EXPECT_EQ(sig2, sig);
}

TEST(DlinCombiner, BatchedCombineMatchesSequentialAndPinpointsCheater) {
  SystemParams sp = SystemParams::derive("service-dlin");
  DlinScheme scheme(sp);
  Rng rng("service-dlin-rng");
  auto km = scheme.dist_keygen(4, 1, rng);
  Bytes m = to_bytes("dlin batched combine");
  std::vector<DlinPartialSignature> parts;
  for (uint32_t i = 1; i <= 3; ++i)
    parts.push_back(scheme.share_sign(km.shares[i - 1], m));

  DlinCombiner combiner(scheme, km);
  DlinSignature honest = combiner.combine(m, parts);
  EXPECT_EQ(honest, scheme.combine(km, m, parts));
  EXPECT_TRUE(scheme.verify(km.pk, m, honest));

  parts[0].z = (G1::from_affine(parts[0].z) + G1::generator()).to_affine();
  std::vector<uint32_t> cheaters;
  DlinSignature sig = combiner.combine(m, parts, &cheaters);
  EXPECT_EQ(cheaters, std::vector<uint32_t>({1}));
  EXPECT_EQ(sig, scheme.combine(km, m, parts));
  EXPECT_TRUE(scheme.verify(km.pk, m, sig));
}

// ---------------------------------------------------------------------------
// Verification service

struct ServiceFixture : testfx::RoSchemeFixture {
  ServiceFixture() : RoSchemeFixture("service-queue") {}
  KeyMaterial km = keygen(3, 1);
  // One committee through the unified multi-tenant surface: the provider
  // prepares the fixture committee's verifier on the first miss, and every
  // submission rides the erased SigHandle path the daemon uses.
  service::KeyCacheManager<PreparedVerifier> cache{
      service::KeyCachePolicy{.byte_budget = 16u << 20, .shards = 1}};
  service::MultiTenantVerificationService::VerifierProvider provider() {
    return [this](const std::string&) {
      return erase_verifier<RoVerifier, Signature>(SchemeId::kRo,
                                                   RoVerifier(scheme, km.pk));
    };
  }
  static SigHandle erased(Signature s) {
    return erase_signature(SchemeId::kRo, std::move(s));
  }

  std::pair<Bytes, Signature> make_signed(const std::string& label,
                                          bool valid = true) {
    return RoSchemeFixture::make_signed(km, label, valid);
  }
};

TEST_F(ServiceFixture, FlushOnSize) {
  ThreadPool pool(2);
  BatchPolicy policy{.max_batch = 4,
                     .max_delay = std::chrono::milliseconds(60000)};
  service::MultiTenantVerificationService svc(cache, provider(), policy,
                                              pool);
  std::vector<std::future<bool>> futs;
  for (int j = 0; j < 4; ++j) {
    auto [m, s] = make_signed("size flush " + std::to_string(j));
    futs.push_back(svc.submit("tenant", m, erased(s)));
  }
  // The 4th submission hits max_batch and flushes without any deadline wait.
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(60)),
              std::future_status::ready);
    EXPECT_TRUE(f.get());
  }
  auto st = svc.stats();
  EXPECT_EQ(st.submitted, 4u);
  EXPECT_GE(st.size_flushes, 1u);
  EXPECT_EQ(st.deadline_flushes, 0u);
  EXPECT_EQ(st.fallbacks, 0u);
  EXPECT_EQ(st.accepted, 4u);
}

TEST_F(ServiceFixture, FlushOnDeadline) {
  ThreadPool pool(2);
  BatchPolicy policy{.max_batch = 1000,
                     .max_delay = std::chrono::milliseconds(50)};
  service::MultiTenantVerificationService svc(cache, provider(), policy,
                                              pool);
  auto [m, s] = make_signed("deadline flush");
  auto f = svc.submit("tenant", m, erased(s));
  // Far below max_batch, so only the deadline can flush this.
  ASSERT_EQ(f.wait_for(std::chrono::seconds(60)), std::future_status::ready);
  EXPECT_TRUE(f.get());
  auto st = svc.stats();
  EXPECT_GE(st.deadline_flushes, 1u);
  EXPECT_EQ(st.size_flushes, 0u);
}

TEST_F(ServiceFixture, MixedValidAndInvalidAreAttributedExactly) {
  ThreadPool pool(2);
  BatchPolicy policy{.max_batch = 8,
                     .max_delay = std::chrono::milliseconds(60000)};
  service::MultiTenantVerificationService svc(cache, provider(), policy,
                                              pool);
  std::vector<std::future<bool>> futs;
  for (int j = 0; j < 8; ++j) {
    bool valid = j % 3 != 0;
    auto [m, s] = make_signed("mixed " + std::to_string(j), valid);
    futs.push_back(svc.submit("tenant", m, erased(s)));
  }
  for (int j = 0; j < 8; ++j) {
    ASSERT_EQ(futs[j].wait_for(std::chrono::seconds(120)),
              std::future_status::ready);
    EXPECT_EQ(futs[j].get(), j % 3 != 0) << j;
  }
  auto st = svc.stats();
  EXPECT_GE(st.fallbacks, 1u);  // a poisoned fold must fall back
  EXPECT_EQ(st.rejected, 3u);   // j = 0, 3, 6
  EXPECT_EQ(st.accepted, 5u);
}

TEST_F(ServiceFixture, DeterministicMultiThreadStress) {
  // Concurrent submitters, deterministic valid/invalid pattern, small
  // batches and a short deadline so both flush triggers fire under load.
  // Whatever way the requests interleave into batches, every future must
  // resolve to its request's own validity.
  ThreadPool pool(4);
  BatchPolicy policy{.max_batch = 16,
                     .max_delay = std::chrono::milliseconds(5)};
  service::MultiTenantVerificationService svc(cache, provider(), policy,
                                              pool);

  constexpr int kThreads = 4, kPerThread = 16;
  // Pre-build requests so submitter threads only touch the service.
  std::vector<std::vector<std::tuple<Bytes, Signature, bool>>> reqs(kThreads);
  for (int th = 0; th < kThreads; ++th)
    for (int j = 0; j < kPerThread; ++j) {
      bool valid = (th + j) % 3 != 0;
      auto [m, s] = make_signed(
          "stress " + std::to_string(th) + "/" + std::to_string(j), valid);
      reqs[th].push_back({m, s, valid});
    }

  std::vector<std::vector<std::future<bool>>> futs(kThreads);
  std::vector<std::thread> submitters;
  for (int th = 0; th < kThreads; ++th)
    submitters.emplace_back([&, th] {
      for (auto& [m, s, valid] : reqs[th])
        futs[th].push_back(svc.submit("tenant", m, erased(s)));
    });
  for (auto& t : submitters) t.join();

  for (int th = 0; th < kThreads; ++th)
    for (int j = 0; j < kPerThread; ++j) {
      ASSERT_EQ(futs[th][j].wait_for(std::chrono::seconds(300)),
                std::future_status::ready);
      EXPECT_EQ(futs[th][j].get(), std::get<2>(reqs[th][j]))
          << th << "/" << j;
    }
  auto st = svc.stats();
  EXPECT_EQ(st.submitted, uint64_t(kThreads * kPerThread));
  EXPECT_EQ(st.accepted + st.rejected, uint64_t(kThreads * kPerThread));
  uint64_t expected_rejected = 0;
  for (int th = 0; th < kThreads; ++th)
    for (int j = 0; j < kPerThread; ++j)
      if ((th + j) % 3 == 0) ++expected_rejected;
  EXPECT_EQ(st.rejected, expected_rejected);
}

TEST_F(ServiceFixture, DrainFlushesPendingRequests) {
  ThreadPool pool(2);
  BatchPolicy policy{.max_batch = 1000,
                     .max_delay = std::chrono::milliseconds(60000)};
  service::MultiTenantVerificationService svc(cache, provider(), policy,
                                              pool);
  auto [m, s] = make_signed("drained");
  auto f = svc.submit("tenant", m, erased(s));
  svc.drain();
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_TRUE(f.get());
}

TEST_F(ServiceFixture, DestructorResolvesPendingFutures) {
  ThreadPool pool(2);
  std::future<bool> f;
  {
    BatchPolicy policy{.max_batch = 1000,
                       .max_delay = std::chrono::milliseconds(60000)};
    service::MultiTenantVerificationService svc(cache, provider(), policy,
                                              pool);
    auto [m, s] = make_signed("shutdown");
    f = svc.submit("tenant", m, erased(s));
  }
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_TRUE(f.get());
}

TEST_F(ServiceFixture, CombineServiceProducesValidSignatures) {
  ThreadPool pool(2);
  service::KeyCacheManager<PreparedCombiner> ccache(
      service::KeyCachePolicy{.byte_budget = 16u << 20, .shards = 1});
  service::MultiTenantCombineService svc(
      ccache,
      [this](const std::string&) {
        return erase_combiner<RoCombiner, PartialSignature>(
            SchemeId::kRo, RoCombiner(scheme, km));
      },
      pool);
  Bytes m1 = to_bytes("combine request 1");
  Bytes m2 = to_bytes("combine request 2");
  auto parts_for = [&](const Bytes& m) {
    std::vector<PartialHandle> parts;
    for (uint32_t i = 1; i <= km.t + 1; ++i)
      parts.push_back(erase_partial(SchemeId::kRo,
                                    scheme.share_sign(km.shares[i - 1], m)));
    return parts;
  };
  auto f1 = svc.submit("tenant", SchemeId::kRo, m1, parts_for(m1));
  auto f2 = svc.submit("tenant", SchemeId::kRo, m2, parts_for(m2));
  EXPECT_TRUE(scheme.verify(km.pk, m1, Signature::deserialize(f1.get())));
  EXPECT_TRUE(scheme.verify(km.pk, m2, Signature::deserialize(f2.get())));

  // Too few valid partials -> the future carries Combine's exception.
  auto bad = parts_for(m1);
  bad.resize(1);
  auto f3 = svc.submit("tenant", SchemeId::kRo, m1, std::move(bad));
  EXPECT_THROW(f3.get(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Multi-tenant routing: the per-key fold-grouping regression guard. Two
// committees under the SAME system parameters, so the only separation
// between tenants is the key material itself — the strongest setting for a
// cross-contamination test.

struct MultiTenantFixture : testfx::RoSchemeFixture {
  MultiTenantFixture() : RoSchemeFixture("multi-tenant") {}
  KeyMaterial kmA = keygen(3, 1);
  KeyMaterial kmB = keygen(3, 1);

  // The unified (type-erased) service surface: RO verifiers wrapped into
  // PreparedVerifier, signatures submitted as SigHandles — the same path
  // every scheme's tenants take through the daemon.
  service::MultiTenantVerificationService::VerifierProvider provider() {
    return [this](const std::string& key) {
      const KeyMaterial& km = key == "A" ? kmA : kmB;
      return erase_verifier<RoVerifier, Signature>(SchemeId::kRo,
                                                   RoVerifier(scheme, km.pk));
    };
  }
  static SigHandle erased(Signature s) {
    return erase_signature(SchemeId::kRo, std::move(s));
  }
};

TEST_F(MultiTenantFixture, KeysOfAFlushFoldInWorkerSizedChunks) {
  // 8 valid requests for A and 8 for B interleaved into ONE size flush on a
  // 4-worker pool: the flush packs its per-key groups into min(workers,
  // keys) = 2 chunk products, each key whole in one chunk, and every member
  // of every key is accepted without a fallback.
  ThreadPool pool(4);
  service::KeyCacheManager<PreparedVerifier> cache(
      {.byte_budget = 16u << 20, .shards = 4});
  BatchPolicy policy{.max_batch = 16,
                     .max_delay = std::chrono::milliseconds(60000)};
  service::MultiTenantVerificationService svc(cache, provider(), policy,
                                              pool);
  std::vector<std::future<bool>> futs;
  for (int j = 0; j < 16; ++j) {
    bool tenant_a = j % 2 == 0;
    auto [m, s] = make_signed(tenant_a ? kmA : kmB,
                              "fold split " + std::to_string(j));
    futs.push_back(svc.submit(tenant_a ? "A" : "B", m, erased(s)));
  }
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(120)),
              std::future_status::ready);
    EXPECT_TRUE(f.get());
  }
  auto st = svc.stats();
  EXPECT_EQ(st.submitted, 16u);
  EXPECT_EQ(st.accepted, 16u);
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.fallbacks, 0u);  // all-valid chunk products pass outright
  EXPECT_GE(st.batches, 2u);    // min(workers, keys) chunk products
  EXPECT_GE(cache.stats().resident_entries, 2u);
}

TEST_F(MultiTenantFixture, ForgeriesUnderOneTenantNeverContaminateAnother) {
  // Valid signatures for key A interleaved with forgeries for key B in one
  // service queue: every A future must resolve true, every B future false —
  // a forgery under B must neither invalidate nor be masked by A's batch.
  // Then roles swap within the same service instance.
  ThreadPool pool(4);
  service::KeyCacheManager<PreparedVerifier> cache(
      {.byte_budget = 16u << 20, .shards = 4});
  BatchPolicy policy{.max_batch = 12,
                     .max_delay = std::chrono::milliseconds(60000)};
  service::MultiTenantVerificationService svc(cache, provider(), policy,
                                              pool);
  for (int round = 0; round < 2; ++round) {
    bool a_honest = round == 0;
    std::vector<std::pair<std::future<bool>, bool>> futs;  // future, expected
    for (int j = 0; j < 12; ++j) {
      bool tenant_a = j % 2 == 0;
      bool valid = tenant_a == a_honest;
      auto [m, s] =
          make_signed(tenant_a ? kmA : kmB,
                      "adv " + std::to_string(round) + "/" + std::to_string(j),
                      valid);
      futs.emplace_back(svc.submit(tenant_a ? "A" : "B", m, erased(s)), valid);
    }
    for (auto& [f, expected] : futs) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(120)),
                std::future_status::ready);
      EXPECT_EQ(f.get(), expected);
    }
  }
  auto st = svc.stats();
  EXPECT_EQ(st.submitted, 24u);
  EXPECT_EQ(st.accepted, 12u);   // exactly the honest tenant's requests
  EXPECT_EQ(st.rejected, 12u);   // exactly the forged ones
  EXPECT_GE(st.fallbacks, 2u);   // each forged-key fold fell back
  EXPECT_GE(st.batches, 4u);     // 2 rounds x >= 2 per-key folds
}

TEST_F(MultiTenantFixture, CrossTenantSignatureIsRejected) {
  // A perfectly valid signature for committee A, submitted under tenant B's
  // key-id, must be rejected: attribution is per key-id, not per signature.
  ThreadPool pool(2);
  service::KeyCacheManager<PreparedVerifier> cache(
      {.byte_budget = 16u << 20, .shards = 1});
  BatchPolicy policy{.max_batch = 4,
                     .max_delay = std::chrono::milliseconds(60000)};
  service::MultiTenantVerificationService svc(cache, provider(), policy,
                                              pool);
  auto [m, s] = make_signed(kmA, "cross-tenant");
  auto [mb, sb] = make_signed(kmB, "cross-tenant b");
  auto fa = svc.submit("A", m, erased(s));    // right key: accept
  auto fb = svc.submit("B", m, erased(s));    // A's signature under B: reject
  auto fb2 = svc.submit("B", mb, erased(sb)); // B's own signature: accept
  svc.drain();
  EXPECT_TRUE(fa.get());
  EXPECT_FALSE(fb.get());
  EXPECT_TRUE(fb2.get());
}

TEST_F(MultiTenantFixture, MultiTenantCombineServiceRoutesPerCommittee) {
  ThreadPool pool(2);
  service::KeyCacheManager<PreparedCombiner> cache(
      {.byte_budget = 16u << 20, .shards = 2});
  service::MultiTenantCombineService svc(
      cache,
      [this](const std::string& key) {
        const KeyMaterial& km = key == "A" ? kmA : kmB;
        return erase_combiner<RoCombiner, PartialSignature>(
            SchemeId::kRo, RoCombiner(scheme, km));
      },
      pool);
  auto erased_parts = [](std::vector<PartialSignature> parts) {
    std::vector<PartialHandle> out;
    for (auto& p : parts)
      out.push_back(erase_partial(SchemeId::kRo, std::move(p)));
    return out;
  };
  Bytes m = to_bytes("combine per committee");
  auto fa =
      svc.submit("A", SchemeId::kRo, m, erased_parts(first_partials(kmA, m)));
  auto fb =
      svc.submit("B", SchemeId::kRo, m, erased_parts(first_partials(kmB, m)));
  Signature sa = Signature::deserialize(fa.get()),
            sb = Signature::deserialize(fb.get());
  EXPECT_TRUE(scheme.verify(kmA.pk, m, sa));
  EXPECT_TRUE(scheme.verify(kmB.pk, m, sb));
  // Distinct committees produce distinct signatures on the same message —
  // and each fails under the other's key.
  EXPECT_FALSE(sa == sb);
  EXPECT_FALSE(scheme.verify(kmB.pk, m, sa));
  EXPECT_EQ(cache.stats().resident_entries, 2u);
}

TEST_F(MultiTenantFixture, CancellingForgeriesAcrossKeysAreRejected) {
  // One worker, so A and B share ONE chunk product. A's first member
  // carries z + X and B's first member z - X, with r and H honest. If each
  // key pinned its own first coefficient to 1, X would cancel on the shared
  // g^_z table and both forgeries would pass; with one pinned coefficient
  // per product the chunk fails and bisection rejects exactly those two.
  ThreadPool pool(1);
  service::KeyCacheManager<PreparedVerifier> cache(
      {.byte_budget = 16u << 20, .shards = 1});
  BatchPolicy policy{.max_batch = 6,
                     .max_delay = std::chrono::milliseconds(60000)};
  service::MultiTenantVerificationService svc(cache, provider(), policy,
                                              pool);
  Rng coins("cancelling-forgeries");
  const G1Affine x = G1::generator().mul(Fr::random(coins)).to_affine();
  std::vector<std::pair<std::future<bool>, bool>> futs;  // future, expected
  for (const char* tenant : {"A", "B"}) {
    const bool a = tenant[0] == 'A';
    for (int j = 0; j < 3; ++j) {
      auto [m, s] = make_signed(a ? kmA : kmB, std::string(tenant) +
                                                   " cancel " +
                                                   std::to_string(j));
      if (j == 0) s.z = (G1::from_affine(s.z) + (a ? x : -x)).to_affine();
      futs.emplace_back(svc.submit(tenant, m, erased(s)), j != 0);
    }
  }
  for (auto& [f, expected] : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(120)),
              std::future_status::ready);
    EXPECT_EQ(f.get(), expected);
  }
  auto st = svc.stats();
  EXPECT_EQ(st.batches, 1u);  // one worker: both keys in one product
  EXPECT_EQ(st.fallbacks, 1u);
  EXPECT_EQ(st.accepted, 4u);
  EXPECT_EQ(st.rejected, 2u);
}

// ---------------------------------------------------------------------------
// Shared folds: one chunk product over the members of many keys, a failed
// product bisected down to exact single-member checks, and pinning,
// shedding and provider errors kept per key.

struct SharedFoldFixture : testfx::RoSchemeFixture {
  SharedFoldFixture() : RoSchemeFixture("shared-fold") {}
  std::map<std::string, KeyMaterial> keys;  // filled before any submission
  service::KeyCacheManager<PreparedVerifier> cache{
      service::KeyCachePolicy{.byte_budget = 16u << 20, .shards = 2}};

  const KeyMaterial& key(const std::string& id) {
    auto it = keys.find(id);
    if (it == keys.end()) it = keys.emplace(id, keygen(3, 1)).first;
    return it->second;
  }
  /// Prepares the verifier of a key made by key(); throws for "broken".
  service::MultiTenantVerificationService::VerifierProvider provider() {
    return [this](const std::string& id)
               -> std::shared_ptr<const PreparedVerifier> {
      if (id == "broken") throw std::runtime_error("no verifier for broken");
      return erase_verifier<RoVerifier, Signature>(
          SchemeId::kRo, RoVerifier(scheme, keys.at(id).pk));
    };
  }
  static SigHandle erased(Signature s) {
    return erase_signature(SchemeId::kRo, std::move(s));
  }
};

TEST_F(SharedFoldFixture, NoisyNeighbourCostsBoundedBisection) {
  // One tenant floods forgeries into flushes it shares with three honest
  // tenants. One worker, so each 16-member flush is ONE chunk product over
  // all four keys: every verdict must be exact, and a failed product with
  // d forgeries among its N = 16 members may cost at most
  // 2d * ceil(log2 16) = 8d sub-products, where the per-member fallback
  // paid N verifies.
  for (const char* id : {"h0", "h1", "h2", "noisy"}) key(id);
  constexpr size_t kN = 16, kLog2N = 4;
  ThreadPool pool(1);
  BatchPolicy policy{.max_batch = kN,
                     .max_delay = std::chrono::milliseconds(60000)};
  service::MultiTenantVerificationService svc(cache, provider(), policy,
                                              pool);
  Rng pick("noisy-neighbour");
  uint64_t msg_no = 0;
  for (size_t forged : {0, 1, 2, 3, 5, 8}) {
    SCOPED_TRACE("forgeries per flush: " + std::to_string(forged));
    std::vector<bool> bad(kN, false);
    for (size_t k = 0; k < forged;) {
      const size_t at = pick.uniform(kN);
      if (!bad[at]) bad[at] = true, ++k;
    }
    const auto before = svc.stats();
    std::vector<std::pair<std::future<bool>, bool>> futs;
    for (size_t j = 0; j < kN; ++j) {
      // Every forgery comes from the noisy tenant, which also sends honest
      // requests; the honest tenants take the other slots in turn.
      const std::string id =
          bad[j] || j % 4 == 3 ? "noisy" : "h" + std::to_string(j % 3);
      auto [m, s] = make_signed(keys.at(id),
                                "noisy " + std::to_string(msg_no++), !bad[j]);
      futs.emplace_back(svc.submit(id, m, erased(s)), !bad[j]);
    }
    for (auto& [f, expected] : futs) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(120)),
                std::future_status::ready);
      EXPECT_EQ(f.get(), expected);
    }
    const auto after = svc.stats();
    EXPECT_EQ(after.batches - before.batches, 1u);
    EXPECT_EQ(after.fallbacks - before.fallbacks, forged ? 1u : 0u);
    EXPECT_LE(after.subproducts - before.subproducts, 2 * forged * kLog2N);
    EXPECT_EQ(after.rejected - before.rejected, forged);
    EXPECT_EQ(after.accepted - before.accepted, kN - forged);
  }
}

TEST_F(SharedFoldFixture, ProviderFailureFailsOnlyItsKey) {
  // One worker, so the broken key shares a chunk with two healthy ones. Its
  // provider throws: only its members complete exceptionally, the other
  // keys' members get exact verdicts (a forgery among them), and the
  // accounting identity holds.
  key("a");
  key("b");
  ThreadPool pool(1);
  BatchPolicy policy{.max_batch = 9,
                     .max_delay = std::chrono::milliseconds(60000)};
  service::MultiTenantVerificationService svc(cache, provider(), policy,
                                              pool);
  std::vector<std::pair<std::future<bool>, bool>> healthy;
  std::vector<std::future<bool>> broken;
  for (const std::string id : {"a", "broken", "b"})
    for (int j = 0; j < 3; ++j) {
      const bool valid = !(id == "a" && j == 1);
      auto [m, s] = make_signed(keys.at(id == "b" ? "b" : "a"),
                                id + " " + std::to_string(j), valid);
      auto f = svc.submit(id, m, erased(s));
      if (id == "broken")
        broken.push_back(std::move(f));
      else
        healthy.emplace_back(std::move(f), valid);
    }
  for (auto& [f, expected] : healthy) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(120)),
              std::future_status::ready);
    EXPECT_EQ(f.get(), expected);
  }
  for (auto& f : broken) EXPECT_THROW(f.get(), std::runtime_error);
  auto st = svc.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.errors, 3u);
  EXPECT_EQ(st.accepted, 5u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.in_progress, 0u);
  EXPECT_EQ(st.submitted, st.accepted + st.rejected + st.deadline_sheds +
                              st.errors + st.in_progress);
}

TEST_F(SharedFoldFixture, WrapperVerifiersKeepThePerKeyPath) {
  // A decorator that overrides only verify and batch_verify (as the
  // benchmark's tracing wrapper does) inherits add_to_fold's default: its
  // members skip the shared product and are checked through its own
  // batch_verify, then its verify when that fails. Verdicts stay exact
  // next to a plain key in the same chunk.
  struct Counting final : PreparedVerifier {
    std::shared_ptr<const PreparedVerifier> inner;
    mutable std::atomic<int> batches{0}, verifies{0};
    SchemeId scheme() const override { return inner->scheme(); }
    bool verify(std::span<const uint8_t> msg,
                const SigHandle& sig) const override {
      ++verifies;
      return inner->verify(msg, sig);
    }
    bool batch_verify(std::span<const Bytes> msgs,
                      std::span<const SigHandle> sigs,
                      Rng& rng) const override {
      ++batches;
      return inner->batch_verify(msgs, sigs, rng);
    }
    size_t cache_bytes() const override { return inner->cache_bytes(); }
  };
  key("plain");
  key("wrapped");
  auto wrapper = std::make_shared<Counting>();
  wrapper->inner = provider()("wrapped");
  ThreadPool pool(1);
  BatchPolicy policy{.max_batch = 6,
                     .max_delay = std::chrono::milliseconds(60000)};
  auto plain = provider();
  service::MultiTenantVerificationService svc(
      cache,
      [&](const std::string& id) -> std::shared_ptr<const PreparedVerifier> {
        if (id == "wrapped") return wrapper;
        return plain(id);
      },
      policy, pool);
  std::vector<std::pair<std::future<bool>, bool>> futs;
  for (const std::string id : {"plain", "wrapped"})
    for (int j = 0; j < 3; ++j) {
      const bool valid = j != 2;
      auto [m, s] = make_signed(keys.at(id), id + " " + std::to_string(j),
                                valid);
      futs.emplace_back(svc.submit(id, m, erased(s)), valid);
    }
  for (auto& [f, expected] : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(120)),
              std::future_status::ready);
    EXPECT_EQ(f.get(), expected);
  }
  EXPECT_EQ(wrapper->batches.load(), 1);   // one fold of its three members
  EXPECT_EQ(wrapper->verifies.load(), 3);  // it failed: each one verified
  auto st = svc.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.accepted, 4u);
  EXPECT_EQ(st.rejected, 2u);
}

TEST(SharedFoldSweep, MixedSchemeFlushesMatchPerMemberVerify) {
  // Seeded differential sweep: flushes that mix RO, DLIN, Agg and BLS keys
  // on a multi-worker pool, against a fresh verifier's per-member verify().
  // The mix holds an Agg key that fails its sanity check, wrong-scheme
  // handles, signatures on another message, and resent members.
  const uint64_t seed = testfx::sweep_seed();
  SCOPED_TRACE("reproduce with BNR_SWEEP_SEED=" + std::to_string(seed));
  std::printf("[ sweep ] BNR_SWEEP_SEED=%llu\n", (unsigned long long)seed);

  const SystemParams sp = SystemParams::derive("shared-fold-sweep");
  const SchemeRegistry registry(sp);
  Rng keys_rng("shared-fold-sweep-keys");
  constexpr size_t kItems = 5;
  struct Tenant {
    std::string id;
    const Scheme* scheme;
    Bytes pk;
    std::vector<std::pair<Bytes, Bytes>> items;  // (message, signature)
    std::shared_ptr<const PreparedVerifier> oracle;
  };
  std::vector<Tenant> tenants;
  auto add = [&](std::string id, SchemeId sid, Bytes pk, auto sign) {
    Tenant t{std::move(id), &registry.at(sid), std::move(pk), {}, nullptr};
    for (size_t i = 0; i < kItems; ++i) {
      Bytes m = to_bytes(t.id + " item " + std::to_string(i));
      Bytes sig = sign(m);
      t.items.emplace_back(std::move(m), std::move(sig));
    }
    t.oracle = t.scheme->make_verifier(t.pk);
    tenants.push_back(std::move(t));
  };
  auto firsts = [](size_t t) {
    std::vector<uint32_t> out;
    for (uint32_t i = 1; i <= t + 1; ++i) out.push_back(i);
    return out;
  };
  const RoScheme ro(sp);
  for (int k = 0; k < 2; ++k) {
    const KeyMaterial km = ro.dist_keygen(3, 1, keys_rng);
    add("ro-" + std::to_string(k), SchemeId::kRo, km.pk.serialize(),
        [&](const Bytes& m) {
          std::vector<PartialSignature> parts;
          for (uint32_t i : firsts(km.t))
            parts.push_back(ro.share_sign(km.shares[i - 1], m));
          return ro.combine_unchecked(km.t, parts).serialize();
        });
  }
  const DlinScheme dlin(sp);
  {
    const DlinKeyMaterial km = dlin.dist_keygen(3, 1, keys_rng);
    add("dlin-0", SchemeId::kDlin, km.pk.serialize(), [&](const Bytes& m) {
      std::vector<DlinPartialSignature> parts;
      for (uint32_t i : firsts(km.t))
        parts.push_back(dlin.share_sign(km.shares[i - 1], m));
      return dlin.combine(km, m, parts).serialize();
    });
  }
  const AggregateScheme agg(sp);
  {
    const AggKeyMaterial km = agg.dist_keygen(3, 1, keys_rng);
    auto signer = [&](const AggKeyMaterial& k) {
      return [&](const Bytes& m) {
        std::vector<PartialSignature> parts;
        for (uint32_t i : firsts(k.t))
          parts.push_back(agg.share_sign(k.pk, k.shares[i - 1], m));
        return agg.combine(k, m, parts).serialize();
      };
    };
    add("agg-0", SchemeId::kAgg, km.pk.serialize(), signer(km));
    // The same shares under a key whose validity proof is broken: its
    // signatures satisfy the pairing equation, but the key fails its
    // sanity check, so every one of them must be rejected.
    AggKeyMaterial bad = km;
    bad.pk.big_z = (G1::from_affine(bad.pk.big_z) + G1::generator()).to_affine();
    ASSERT_FALSE(agg.key_sanity_check(bad.pk));
    add("agg-bad", SchemeId::kAgg, bad.pk.serialize(), signer(bad));
  }
  const baselines::BoldyrevaBls bls(sp);
  for (int k = 0; k < 2; ++k) {
    const baselines::BlsKeyMaterial km = bls.dealer_keygen(3, 1, keys_rng);
    ByteWriter pk;
    g2_serialize(km.pk.pk, pk);
    add("bls-" + std::to_string(k), SchemeId::kBls, pk.take(),
        [&](const Bytes& m) {
          std::vector<baselines::BlsPartialSignature> parts;
          for (uint32_t i : firsts(km.t))
            parts.push_back(bls.share_sign(km.shares[i - 1], m));
          ByteWriter w;
          g1_serialize(bls.combine_unchecked(km.t, parts), w);
          return w.take();
        });
  }

  std::map<std::string, const Tenant*> by_id;
  for (const auto& t : tenants) by_id[t.id] = &t;
  service::KeyCacheManager<PreparedVerifier> cache(
      {.byte_budget = 64u << 20, .shards = 4});
  ThreadPool pool(3);
  BatchPolicy policy{.max_batch = 1000,
                     .max_delay = std::chrono::milliseconds(60000)};
  service::MultiTenantVerificationService svc(
      cache,
      [&](const std::string& id) -> std::shared_ptr<const PreparedVerifier> {
        const Tenant& t = *by_id.at(id);
        return t.scheme->make_verifier(t.pk);
      },
      policy, pool);

  Rng trial("shared-fold-sweep/" + std::to_string(seed));
  struct Member {
    const Tenant* tenant;
    Bytes msg;
    SigHandle sig;
  };
  for (int flush = 0; flush < 10; ++flush) {
    std::vector<Member> members;
    const size_t n = 6 + trial.uniform(14);
    while (members.size() < n) {
      const Tenant& t = tenants[trial.uniform(tenants.size())];
      const size_t i = trial.uniform(kItems);
      const auto& [msg, sig] = t.items[i];
      switch (trial.uniform(6)) {
        case 3:  // a valid signature on another message
          members.push_back(
              {&t, msg, t.scheme->parse_signature(t.items[(i + 1) % kItems].second)});
          break;
        case 4: {  // a handle of another scheme
          const Tenant& o = tenants[trial.uniform(tenants.size())];
          members.push_back({&t, msg, o.scheme->parse_signature(o.items[i].second)});
          break;
        }
        case 5:  // a resent member, same handle
          if (!members.empty()) {
            members.push_back(members[trial.uniform(members.size())]);
            break;
          }
          [[fallthrough]];
        default:
          members.push_back({&t, msg, t.scheme->parse_signature(sig)});
      }
    }
    std::vector<std::future<bool>> futs;
    for (const auto& m : members)
      futs.push_back(svc.submit(m.tenant->id, m.msg, m.sig));
    svc.flush();
    for (size_t j = 0; j < members.size(); ++j) {
      ASSERT_EQ(futs[j].wait_for(std::chrono::seconds(300)),
                std::future_status::ready);
      EXPECT_EQ(futs[j].get(),
                members[j].tenant->oracle->verify(members[j].msg,
                                                  members[j].sig))
          << "flush " << flush << " member " << j << " ("
          << members[j].tenant->id << ")";
    }
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.errors, 0u);
  EXPECT_EQ(st.in_progress, 0u);
  EXPECT_EQ(st.submitted, st.accepted + st.rejected + st.deadline_sheds +
                              st.errors + st.in_progress);
  EXPECT_LE(st.batches, 10u * pool.size());
}

}  // namespace
}  // namespace bnr
