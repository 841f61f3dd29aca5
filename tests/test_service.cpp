// The parallel verification service: work-stealing pool semantics, the
// pool-parallel MSM / multi-pairing drivers against their serial oracles,
// the optimistic Combine engines (including cheater identification matching
// the sequential path), and the request-batching verification service under
// deterministic multi-threaded load.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>

#include "common/rng.hpp"
#include "fixtures.hpp"
#include "service/key_cache.hpp"
#include "service/parallel.hpp"
#include "service/thread_pool.hpp"
#include "service/verification_service.hpp"
#include "threshold/dlin_scheme.hpp"
#include "threshold/ro_scheme.hpp"

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
  RoCombiner combiner(scheme, km);
  auto h = scheme.hash_message(m);
  parts[2] = tamper(parts[2]);
  // Cached per-partial verification agrees with the stateless path.
  EXPECT_TRUE(combiner.share_verify(h, parts[0]));
  EXPECT_FALSE(combiner.share_verify(h, parts[2]));
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

  auto combiner = std::make_shared<const RoCombiner>(scheme, km);
  std::vector<uint32_t> cheaters;
  EXPECT_EQ(combiner->combine(m, parts, &cheaters), honest);
  EXPECT_TRUE(cheaters.empty());
  EXPECT_EQ(scheme.combine(km, m, parts), honest);

  auto erased = erase_combiner(combiner);
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
        return erase_combiner(std::make_shared<const RoCombiner>(scheme, km));
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

TEST_F(MultiTenantFixture, DistinctKeysNeverShareAFold) {
  // 8 valid requests for A and 8 for B interleaved into ONE size flush: the
  // flush must split into (at least) one fold per key — folding across keys
  // with either tenant's verifier would reject the other tenant's half.
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
  EXPECT_EQ(st.fallbacks, 0u);  // all-valid per-key folds pass outright
  EXPECT_GE(st.batches, 2u);    // >= one fold per key
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
        return erase_combiner(std::make_shared<const RoCombiner>(scheme, km));
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

}  // namespace
}  // namespace bnr
