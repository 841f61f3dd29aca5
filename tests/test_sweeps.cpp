// Parameterized cross-scheme sweeps: every scheme variant is exercised over
// a grid of (t, n) configurations, subset choices, and message shapes —
// property-style coverage that single-configuration tests miss. The second
// half is a randomized differential sweep (~200 seeded trials) cross-checking
// every cached/parallel fast path against its uncached/serial oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/rng.hpp"
#include "fixtures.hpp"
#include "service/parallel.hpp"
#include "service/thread_pool.hpp"
#include "stdmodel/std_scheme.hpp"
#include "threshold/aggregate_scheme.hpp"
#include "threshold/dlin_scheme.hpp"
#include "threshold/ro_scheme.hpp"

namespace bnr {
namespace {

using namespace bnr::threshold;

struct Tn {
  size_t t, n;
};

std::string tn_name(const ::testing::TestParamInfo<Tn>& info) {
  return "t" + std::to_string(info.param.t) + "n" +
         std::to_string(info.param.n);
}

const Tn kGrid[] = {{1, 3}, {1, 5}, {2, 5}, {3, 7}, {5, 11}};

// ---------------------------------------------------------------------------
// DLIN scheme sweep (the RO scheme has its own sweep in test_threshold.cpp).

struct DlinSweep : ::testing::TestWithParam<Tn> {
  SystemParams sp = SystemParams::derive("dlin-sweep");
  DlinScheme scheme{sp};
  Rng rng{"dlin-sweep-rng"};
};

TEST_P(DlinSweep, EndToEndAndDeterminism) {
  auto [t, n] = GetParam();
  auto km = scheme.dist_keygen(n, t, rng);
  Bytes m = to_bytes("dlin sweep message");
  std::vector<DlinPartialSignature> all;
  for (uint32_t i = 1; i <= n; ++i)
    all.push_back(scheme.share_sign(km.shares[i - 1], m));
  // First t+1 and last t+1 must combine to the SAME signature.
  std::vector<DlinPartialSignature> first(all.begin(), all.begin() + t + 1);
  std::vector<DlinPartialSignature> last(all.end() - (t + 1), all.end());
  auto s1 = scheme.combine(km, m, first);
  auto s2 = scheme.combine(km, m, last);
  EXPECT_TRUE(s1 == s2);
  EXPECT_TRUE(scheme.verify(km.pk, m, s1));
}

INSTANTIATE_TEST_SUITE_P(Grid, DlinSweep, ::testing::ValuesIn(kGrid),
                         tn_name);

// ---------------------------------------------------------------------------
// Aggregate scheme: bundle-size sweep.

struct AggSweep : ::testing::TestWithParam<size_t> {
  SystemParams sp = SystemParams::derive("agg-sweep");
  AggregateScheme scheme{sp};
  Rng rng{"agg-sweep-rng"};
};

TEST_P(AggSweep, BundleOfLKeysVerifies) {
  size_t l = GetParam();
  std::vector<AggKeyMaterial> kms;
  std::vector<AggStatement> sts;
  std::vector<Signature> sigs;
  for (size_t j = 0; j < l; ++j) {
    kms.push_back(scheme.dist_keygen(3, 1, rng));
    Bytes m = to_bytes("stmt " + std::to_string(j));
    std::vector<PartialSignature> parts;
    for (uint32_t i = 1; i <= 2; ++i)
      parts.push_back(scheme.share_sign(kms[j].pk, kms[j].shares[i - 1], m));
    sts.push_back({kms[j].pk, m});
    sigs.push_back(scheme.combine(kms[j], m, parts));
  }
  auto bundle = scheme.aggregate(sts, sigs);
  ASSERT_TRUE(bundle.has_value());
  EXPECT_TRUE(scheme.aggregate_verify(sts, *bundle));
  EXPECT_EQ(bundle->serialize().size(), 2 * kG1CompressedSize);
  // Dropping any statement breaks verification.
  if (l > 1) {
    std::vector<AggStatement> dropped(sts.begin(), sts.end() - 1);
    EXPECT_FALSE(scheme.aggregate_verify(dropped, *bundle));
  }
}

INSTANTIATE_TEST_SUITE_P(BundleSizes, AggSweep,
                         ::testing::Values(1, 2, 3, 5));

// ---------------------------------------------------------------------------
// Message-shape sweep for the RO scheme: empty, binary, large messages.

struct MsgSweep : ::testing::TestWithParam<size_t> {
  SystemParams sp = SystemParams::derive("msg-sweep");
  RoScheme scheme{sp};
  Rng rng{"msg-sweep-rng"};
};

TEST_P(MsgSweep, ArbitraryMessageBytes) {
  size_t len = GetParam();
  static auto km = [&] { return scheme.dist_keygen(3, 1, rng); }();
  Bytes m = rng.bytes(len);
  std::vector<PartialSignature> parts;
  for (uint32_t i : {1u, 3u})
    parts.push_back(scheme.share_sign(km.shares[i - 1], m));
  Signature sig = scheme.combine(km, m, parts);
  EXPECT_TRUE(scheme.verify(km.pk, m, sig));
  // Flipping any single bit of the message invalidates the signature.
  if (len > 0) {
    Bytes flipped = m;
    flipped[len / 2] ^= 0x01;
    EXPECT_FALSE(scheme.verify(km.pk, flipped, sig));
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, MsgSweep,
                         ::testing::Values(0, 1, 32, 1024, 65536));

// ---------------------------------------------------------------------------
// Std-model scheme (t, n) sweep (smaller L for speed).

struct StdSweep : ::testing::TestWithParam<Tn> {
  stdmodel::StdParams params = stdmodel::StdParams::derive("std-sweep", 32);
  stdmodel::StdScheme scheme{params};
  Rng rng{"std-sweep-rng"};
};

TEST_P(StdSweep, EndToEnd) {
  auto [t, n] = GetParam();
  auto km = scheme.dist_keygen(n, t, rng);
  Bytes m = to_bytes("std sweep");
  std::vector<stdmodel::StdPartialSignature> parts;
  for (uint32_t i = 1; i <= t + 1; ++i)
    parts.push_back(scheme.share_sign(km.shares[i - 1], m, rng));
  auto sig = scheme.combine(km, m, parts, rng);
  EXPECT_TRUE(scheme.verify(km.pk, m, sig));
}

INSTANTIATE_TEST_SUITE_P(Grid, StdSweep,
                         ::testing::Values(Tn{1, 3}, Tn{2, 5}, Tn{3, 7}),
                         tn_name);

// ---------------------------------------------------------------------------
// Randomized differential sweep: ~200 seeded trials cross-checking the
// cached/batched/parallel serving paths against the uncached scheme paths
// and the slow oracles (msm_naive, the affine-line reference Miller loop).
// The trial RNG is seeded fresh per run so the sweep explores new inputs on
// every CI execution; a failure logs the seed, and re-running with
// BNR_SWEEP_SEED=<seed> reproduces the exact trial sequence.

using testfx::sweep_seed;

/// Per-suite trial RNG: derived from the run seed plus a domain so suites
/// stay independent; SCOPED_TRACE at each use site logs the reproduction
/// recipe on failure.
Rng trial_rng(std::string_view domain) {
  return Rng("diff-sweep/" + std::to_string(sweep_seed()))
      .fork(domain);
}

#define BNR_LOG_SEED() \
  SCOPED_TRACE("reproduce with BNR_SWEEP_SEED=" + std::to_string(sweep_seed()))

TEST(DifferentialSweepSeed, IsLoggedForReproduction) {
  printf("[ sweeps ] BNR_SWEEP_SEED=%llu\n",
         (unsigned long long)sweep_seed());
  ::testing::Test::RecordProperty("BNR_SWEEP_SEED",
                                  std::to_string(sweep_seed()));
}

struct RoDifferentialSweep : testfx::RoSchemeFixture {
  RoDifferentialSweep() : RoSchemeFixture("diff-sweep-ro") {}
  KeyMaterial km = keygen(3, 1);
};

TEST_F(RoDifferentialSweep, CachedVerifyAgreesWithSchemeVerify) {
  // 60 trials: random message shapes, random tamper modes. The cached
  // RoVerifier (prepared lines, the key-cache payload) must agree with the
  // uncached RoScheme::verify bit for bit on accept AND reject.
  BNR_LOG_SEED();
  Rng r = trial_rng("cached-verify");
  RoVerifier cached(scheme, km.pk);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    Bytes m = r.bytes(r.uniform(200));
    Signature s = sign(km, m);
    uint64_t mode = r.uniform(4);
    Bytes m2 = m;
    if (mode == 1) s.z = (G1::from_affine(s.z) + G1::generator()).to_affine();
    if (mode == 2) s.r = (G1::from_affine(s.r) + G1::generator()).to_affine();
    if (mode == 3) m2.push_back(0x5a);  // verify a different message
    bool uncached = scheme.verify(km.pk, m2, s);
    bool fast = cached.verify(m2, s);
    EXPECT_EQ(uncached, fast) << "mode " << mode;
    EXPECT_EQ(uncached, mode == 0);
  }
}

TEST_F(RoDifferentialSweep, BatchVerifyAgreesWithIndividualVerifies) {
  // 30 trials: random batch sizes and invalid subsets. The RLC fold must
  // accept exactly when every member verifies individually (false accepts
  // happen with probability ~N/2^128 — never in practice).
  BNR_LOG_SEED();
  Rng r = trial_rng("batch-verify");
  RoVerifier cached(scheme, km.pk);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    size_t n = 1 + r.uniform(8);
    std::vector<Bytes> msgs;
    std::vector<Signature> sigs;
    bool all_valid = true;
    for (size_t j = 0; j < n; ++j) {
      auto [m, s] = make_signed(
          km, "bv " + std::to_string(trial) + "/" + std::to_string(j));
      if (r.uniform(4) == 0) {
        s = forge(s);
        all_valid = false;
      }
      msgs.push_back(std::move(m));
      sigs.push_back(s);
    }
    EXPECT_EQ(cached.batch_verify(msgs, sigs, r), all_valid);
    bool individually = true;
    for (size_t j = 0; j < n; ++j)
      individually = individually && cached.verify(msgs[j], sigs[j]);
    EXPECT_EQ(individually, all_valid);
  }
}

/// Random combine input over an (n, t) committee: a shuffled distinct signer
/// subset of size t+2 or t+3 (capped at n), 0-2 tampers (the same partial
/// may be hit twice), and sometimes a resent copy of one partial.
template <class Part, class SignFn, class TamperFn>
std::vector<Part> random_combine_input(Rng& r, size_t n, size_t t,
                                       SignFn sign, TamperFn tamper) {
  std::vector<uint32_t> signers;
  for (uint32_t i = 1; i <= n; ++i) signers.push_back(i);
  for (size_t i = signers.size(); i > 1; --i)
    std::swap(signers[i - 1], signers[r.uniform(i)]);
  signers.resize(std::min(n, t + 2 + r.uniform(2)));
  std::vector<Part> parts;
  for (uint32_t i : signers) parts.push_back(sign(i));
  size_t bad = r.uniform(3);
  for (size_t k = 0; k < bad; ++k) {
    size_t idx = r.uniform(parts.size());
    parts[idx] = tamper(parts[idx]);
  }
  if (r.uniform(4) == 0) {
    Part copy = parts[r.uniform(parts.size())];
    auto at = static_cast<ptrdiff_t>(r.uniform(parts.size() + 1));
    parts.insert(parts.begin() + at, copy);
  }
  return parts;
}

/// The optimistic-combine contract as an oracle. Returns the expected
/// signature, or nullopt when combine must throw: it succeeds iff the first
/// t+1 partials with distinct indices interpolate to a signature that
/// verifies, or at least t+1 distinct indices carry a partial that verifies
/// on its own (the first t+1 such partials are then interpolated).
template <class Part, class InterpFn, class SigOkFn, class PartOkFn>
auto expected_combine(std::span<const Part> parts, size_t t,
                      InterpFn interpolate, SigOkFn sig_ok, PartOkFn part_ok)
    -> std::optional<decltype(interpolate(parts))> {
  auto has = [](const std::vector<Part>& v, uint32_t i) {
    for (const auto& q : v)
      if (q.index == i) return true;
    return false;
  };
  std::vector<Part> head, valid;
  for (const auto& p : parts)
    if (head.size() < t + 1 && !has(head, p.index)) head.push_back(p);
  for (const auto& p : parts)
    if (valid.size() < t + 1 && !has(valid, p.index) && part_ok(p))
      valid.push_back(p);
  if (head.size() == t + 1) {
    auto sig = interpolate(std::span<const Part>(head));
    if (sig_ok(sig)) return sig;
  }
  if (valid.size() == t + 1) return interpolate(std::span<const Part>(valid));
  return std::nullopt;
}

TEST_F(RoDifferentialSweep, CachedCombineAgreesWithStatelessCombine) {
  // 30 trials over a 5-player committee: random signer subsets, random
  // tampers, sometimes a resent partial. The cached RoCombiner and the
  // stateless RoScheme::combine must both match the optimistic-combine
  // oracle: the same bytes, which verify — or both must throw.
  BNR_LOG_SEED();
  Rng r = trial_rng("cached-combine");
  auto km5 = keygen(5, 2);
  RoCombiner combiner(scheme, km5);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    Bytes m = r.bytes(1 + r.uniform(64));
    auto parts = random_combine_input<PartialSignature>(
        r, km5.n, km5.t,
        [&](uint32_t i) { return scheme.share_sign(km5.shares[i - 1], m); },
        tamper);
    auto expect = expected_combine<PartialSignature>(
        parts, km5.t,
        [&](std::span<const PartialSignature> ps) {
          return scheme.combine_unchecked(km5.t, ps);
        },
        [&](const Signature& s) { return scheme.verify(km5.pk, m, s); },
        [&](const PartialSignature& p) {
          return scheme.share_verify(km5.vks[p.index - 1], m, p);
        });
    if (expect) {
      Signature a = scheme.combine(km5, m, parts);
      Signature b = combiner.combine(m, parts);
      EXPECT_EQ(a, *expect);
      EXPECT_EQ(b, *expect);
      EXPECT_TRUE(scheme.verify(km5.pk, m, a));
    } else {
      EXPECT_THROW(scheme.combine(km5, m, parts), std::runtime_error);
      EXPECT_THROW(combiner.combine(m, parts), std::runtime_error);
    }
  }
}

struct DlinDifferentialSweep : testfx::DlinSchemeFixture {
  DlinDifferentialSweep() : DlinSchemeFixture("diff-sweep-dlin") {}
};

TEST_F(DlinDifferentialSweep, CachedVerifyAgreesWithSchemeVerify) {
  // 20 trials for the DLIN variant's cached verifier.
  BNR_LOG_SEED();
  Rng r = trial_rng("dlin-cached-verify");
  auto km = keygen(3, 1);
  DlinVerifier cached(scheme, km.pk);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    Bytes m = r.bytes(r.uniform(128));
    auto parts = partials(km, m, {1, 2});
    DlinSignature s = scheme.combine(km, m, parts);
    uint64_t mode = r.uniform(3);
    Bytes m2 = m;
    if (mode == 1) s.z = (G1::from_affine(s.z) + G1::generator()).to_affine();
    if (mode == 2) m2.push_back(0xa5);
    bool uncached = scheme.verify(km.pk, m2, s);
    EXPECT_EQ(uncached, cached.verify(m2, s)) << "mode " << mode;
    EXPECT_EQ(uncached, mode == 0);
  }
}

TEST_F(DlinDifferentialSweep, CachedCombineAgreesWithStatelessCombine) {
  // The DLIN twin of the RO sweep above: DlinCombiner and
  // DlinScheme::combine against the same optimistic-combine oracle.
  BNR_LOG_SEED();
  Rng r = trial_rng("dlin-cached-combine");
  auto km = keygen(5, 2);
  DlinCombiner combiner(scheme, km);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    Bytes m = r.bytes(1 + r.uniform(64));
    auto parts = random_combine_input<DlinPartialSignature>(
        r, km.n, km.t,
        [&](uint32_t i) { return scheme.share_sign(km.shares[i - 1], m); },
        tamper);
    auto expect = expected_combine<DlinPartialSignature>(
        parts, km.t,
        [&](std::span<const DlinPartialSignature> ps) {
          // Naive Lagrange interpolation in the exponent.
          std::vector<uint32_t> idx;
          for (const auto& p : ps) idx.push_back(p.index);
          auto l = lagrange_at_zero(idx);
          G1 z, rr, u;
          for (size_t j = 0; j < ps.size(); ++j) {
            z = z + G1::from_affine(ps[j].z).mul(l[j]);
            rr = rr + G1::from_affine(ps[j].r).mul(l[j]);
            u = u + G1::from_affine(ps[j].u).mul(l[j]);
          }
          return DlinSignature{z.to_affine(), rr.to_affine(), u.to_affine()};
        },
        [&](const DlinSignature& s) { return scheme.verify(km.pk, m, s); },
        [&](const DlinPartialSignature& p) {
          return scheme.share_verify(km.vks[p.index - 1], m, p);
        });
    if (expect) {
      DlinSignature a = scheme.combine(km, m, parts);
      DlinSignature b = combiner.combine(m, parts);
      EXPECT_EQ(a, *expect);
      EXPECT_EQ(b, *expect);
      EXPECT_TRUE(scheme.verify(km.pk, m, a));
    } else {
      EXPECT_THROW(scheme.combine(km, m, parts), std::runtime_error);
      EXPECT_THROW(combiner.combine(m, parts), std::runtime_error);
    }
  }
}

/// One msm-against-msm_naive trial: half the sizes from 1..8 (the Straus
/// path, with its GLV lanes on G1), half from 1..160, straddling the
/// Pippenger window thresholds; scalar mixes with zeros and small values.
template <class P>
void msm_trial(Rng& r, int trial) {
  SCOPED_TRACE(trial);
  const size_t n = 1 + r.uniform(trial % 2 == 0 ? 8 : 160);
  std::vector<P> points;
  std::vector<Fr> scalars;
  for (size_t i = 0; i < n; ++i) {
    points.push_back(P::generator().mul(Fr::random(r)));
    uint64_t kind = r.uniform(8);
    if (kind == 0)
      scalars.push_back(Fr::zero());
    else if (kind == 1)
      scalars.push_back(Fr::from_u64(r.uniform(1000)));
    else
      scalars.push_back(Fr::random(r));
  }
  P oracle = msm_naive<P>(points, scalars);
  EXPECT_EQ(msm<P>(points, scalars), oracle);
}

TEST(ParallelDifferentialSweep, MsmAgreesWithNaiveOracle) {
  // 40 G1 and 20 G2 trials: msm and the msm_naive oracle must agree
  // exactly.
  BNR_LOG_SEED();
  Rng r = trial_rng("msm");
  for (int trial = 0; trial < 40; ++trial) msm_trial<G1>(r, trial);
  Rng r2 = trial_rng("msm-g2");
  for (int trial = 0; trial < 20; ++trial) msm_trial<G2>(r2, trial);
}

TEST(ParallelDifferentialSweep, MultiPairingAgreesWithAffineOracle) {
  // 21 trials: random term counts; the prepared shared-squaring loop and the
  // pool-parallel chunked loop must match the affine-line reference Miller
  // loop (multi_pairing_reference), including cancelling products. Odd
  // trials mix in identity terms (an identity P, or a default G2Prepared),
  // which the prepared loop skips: trials 1, 5, 9, ... put 1-4 of them
  // between the live terms, and trials 3, 7, 11, ... put 4 before 4 live
  // terms, so the pool's first chunk of the 8 holds only identity terms.
  // The last trial's 8 terms are all identity.
  BNR_LOG_SEED();
  Rng r = trial_rng("multi-pairing");
  service::ThreadPool pool(4);
  auto identity_term = [&r] {
    if (r.uniform(2) == 0)
      return PairingTerm{G1Affine::identity(),
                         G2::generator().mul(Fr::random(r)).to_affine()};
    return PairingTerm{G1::generator().mul(Fr::random(r)).to_affine(),
                       G2Affine::identity()};
  };
  for (int trial = 0; trial < 21; ++trial) {
    SCOPED_TRACE(trial);
    const bool all_identity = trial == 20;
    const bool front_run = trial % 4 == 3;
    const bool cancelling = !all_identity && r.uniform(2) == 0;
    const size_t n = front_run ? (cancelling ? 2 : 4) : 1 + r.uniform(6);
    std::vector<PairingTerm> plain;
    if (all_identity) {
      for (size_t i = 0; i < 8; ++i) plain.push_back(identity_term());
    } else if (cancelling) {
      // Pairs e(aP, Q) e(-aP, Q): the product is exactly 1.
      for (size_t i = 0; i < n; ++i) {
        Fr a = Fr::random(r);
        G2Affine q = G2::generator().mul(Fr::random(r)).to_affine();
        plain.push_back({G1::generator().mul(a).to_affine(), q});
        plain.push_back({(-G1::generator().mul(a)).to_affine(), q});
      }
    } else {
      for (size_t i = 0; i < n; ++i)
        plain.push_back({G1::generator().mul(Fr::random(r)).to_affine(),
                         G2::generator().mul(Fr::random(r)).to_affine()});
    }
    if (front_run) {
      for (size_t i = 0; i < 4; ++i)
        plain.insert(plain.begin(), identity_term());
    } else if (trial % 2 == 1) {
      for (size_t k = 1 + r.uniform(4); k-- > 0;) {
        const size_t at = r.uniform(plain.size() + 1);
        plain.insert(plain.begin() + static_cast<std::ptrdiff_t>(at),
                     identity_term());
      }
    }
    std::vector<G2Prepared> prepared;
    prepared.reserve(plain.size());
    std::vector<PreparedTerm> terms;
    for (const auto& t : plain) {
      if (t.q.infinity)
        prepared.emplace_back();
      else
        prepared.emplace_back(t.q);
      terms.push_back({t.p, &prepared.back()});
    }
    GT oracle = multi_pairing_reference(plain);
    EXPECT_EQ(multi_pairing(terms), oracle);
    EXPECT_EQ(service::multi_pairing_parallel(pool, terms), oracle);
    EXPECT_EQ(oracle.is_identity(), cancelling || all_identity);
  }
}

}  // namespace
}  // namespace bnr
