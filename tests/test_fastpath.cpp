// The high-throughput verification engine: prepared-pairing cross-checks
// against the affine reference path, sparse Fp12 multiplication, Pippenger
// MSM vs the naive loop, batch affine normalization, and the scheme-level
// cached/batch verifiers (including rejection of a forged batch member).
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/boldyreva.hpp"
#include "common/rng.hpp"
#include "curve/hash_to_curve.hpp"
#include "pairing/pairing.hpp"
#include "threshold/aggregate_scheme.hpp"
#include "threshold/dlin_scheme.hpp"
#include "threshold/ro_scheme.hpp"

namespace bnr {
namespace {

TEST(Prepared, MatchesReferencePairing) {
  Rng rng("prepared-vs-reference");
  for (int i = 0; i < 4; ++i) {
    G1Affine p = G1::generator().mul(Fr::random(rng)).to_affine();
    G2Affine q = G2::generator().mul(Fr::random(rng)).to_affine();
    GT reference{final_exponentiation(miller_loop(p, q))};
    EXPECT_EQ(pairing(p, G2Prepared(q)), reference);
    EXPECT_EQ(pairing(p, q), reference);  // pairing() routes through prepared
  }
}

TEST(Prepared, IdentityEdgeCases) {
  G2Prepared id;  // default = identity
  EXPECT_TRUE(id.infinity());
  EXPECT_TRUE(pairing(G1Curve::generator_affine(), id).is_identity());
  EXPECT_TRUE(
      pairing(G1Affine::identity(), G2Prepared(G2Curve::generator_affine()))
          .is_identity());
  EXPECT_TRUE(
      pairing(G1Curve::generator_affine(), G2Prepared(G2Affine::identity()))
          .is_identity());
}

TEST(Prepared, DegenerateLinesThrowInsteadOfFoldingOne) {
  // Prepared lines are divided by their y_P coefficient c0 and evaluated at
  // (x_P/y_P, 1/y_P). Neither c0 nor y_P is zero for points of G1 and G2;
  // an input that makes one zero must throw, not fold in a line equal to 1.
  G2Affine flat;  // y = 0: the first tangent's c0 = -2yz is zero
  flat.x = Fp2::one();
  flat.infinity = false;
  EXPECT_THROW((void)G2Prepared(flat), std::domain_error);

  G1Affine p = G1Curve::generator_affine();
  p.y = Fp::zero();
  G2Prepared q(G2Curve::generator_affine());
  EXPECT_THROW((void)miller_loop(p, q), std::domain_error);
}

TEST(Prepared, MultiPairingMatchesReference) {
  Rng rng("prepared-multi");
  std::vector<PairingTerm> terms;
  for (int i = 0; i < 4; ++i)
    terms.push_back({G1::generator().mul(Fr::random(rng)).to_affine(),
                     G2::generator().mul(Fr::random(rng)).to_affine()});
  EXPECT_EQ(multi_pairing(terms), multi_pairing_reference(terms));

  // And via explicitly cached G2Prepared objects.
  std::vector<G2Prepared> prepared;
  prepared.reserve(terms.size());
  std::vector<PreparedTerm> pts;
  for (const auto& t : terms) {
    prepared.emplace_back(t.q);
    pts.push_back({t.p, &prepared.back()});
  }
  EXPECT_EQ(multi_pairing(pts), multi_pairing_reference(terms));
}

TEST(Prepared, ProductCancellationStillDetected) {
  Rng rng("prepared-cancel");
  Fr a = Fr::random(rng);
  G1Affine p = G1::generator().mul(a).to_affine();
  G1Affine minus_p = (-G1::generator().mul(a)).to_affine();
  G2Prepared q(G2Curve::generator_affine());
  std::vector<PreparedTerm> terms = {{p, &q}, {minus_p, &q}};
  EXPECT_TRUE(pairing_product_is_one(terms));
  terms[1].p = G1::generator().mul(a + Fr::one()).to_affine();
  EXPECT_FALSE(pairing_product_is_one(terms));
}

TEST(Prepared, FinalExpChainMatchesLadderAndGeneric) {
  // The BN hard-part addition chain, the cyclotomic ladder, and the generic
  // square-and-multiply must all compute the same exact exponent.
  Rng rng("fexp-chain");
  for (int i = 0; i < 3; ++i) {
    Fp12 m = miller_loop(G1::generator().mul(Fr::random(rng)).to_affine(),
                         G2::generator().mul(Fr::random(rng)).to_affine());
    Fp12 generic = final_exponentiation_generic(m);
    EXPECT_EQ(final_exponentiation(m), generic);
    EXPECT_EQ(final_exponentiation_ladder(m), generic);
  }
}

TEST(Tower, MulBy34MatchesDense) {
  Rng rng("mul-by-34");
  for (int i = 0; i < 8; ++i) {
    Fp12 a{Fp6{Fp2::random(rng), Fp2::random(rng), Fp2::random(rng)},
           Fp6{Fp2::random(rng), Fp2::random(rng), Fp2::random(rng)}};
    Fp2 d3 = Fp2::random(rng), d4 = Fp2::random(rng);
    Fp12 sparse{Fp6{Fp2::one(), Fp2::zero(), Fp2::zero()},
                Fp6{d3, d4, Fp2::zero()}};
    EXPECT_EQ(a.mul_by_34(d3, d4), a * sparse);
  }
}

/// MSM inputs of size n that reach every branch of the signed-digit bucket
/// method: the same point twice and P with -P under equal scalars (the
/// mixed addition's doubling and cancel branches), an affine identity, and
/// the scalars r-1, 2^128-1 and one whose every 5-bit window is 16 (a Booth
/// carry out of every window). Entries from 8 on are distinct points with
/// zero, one, small, 128-bit and full-width scalars.
template <class Point>
void msm_edge_inputs(size_t n, Rng& rng,
                     std::vector<typename Point::Affine>& points,
                     std::vector<Fr>& scalars) {
  const size_t m = std::max<size_t>(n, 8);
  std::vector<Point> jac;
  Point p = Point::generator().mul(Fr::random(rng));
  const Point step = Point::generator().mul(Fr::random(rng));
  for (size_t i = 0; i < m; ++i, p = p + step) jac.push_back(p);
  jac[1] = jac[0];
  jac[3] = -jac[2];
  jac[4] = Point::identity();
  points = Point::batch_to_affine(jac);

  U256 booth;
  for (size_t bit = 4; bit < 250; bit += 5)
    booth.w[bit / 64] |= uint64_t(1) << (bit % 64);
  const uint64_t all = ~uint64_t(0);
  scalars.clear();
  for (size_t i = 0; i < m; ++i) {
    switch (i < 8 ? i : 8 + i % 5) {
      case 1: scalars.push_back(scalars[0]); break;
      case 3: scalars.push_back(scalars[2]); break;
      case 5: scalars.push_back(Fr::zero() - Fr::one()); break;
      case 6: scalars.push_back(Fr::from_u256(U256{{all, all, 0, 0}})); break;
      case 7: scalars.push_back(Fr::from_u256(booth)); break;
      case 8: scalars.push_back(Fr::zero()); break;
      case 9: scalars.push_back(Fr::one()); break;
      case 10: scalars.push_back(Fr::from_u64(i)); break;
      case 2:
      case 11:
        scalars.push_back(Fr::from_u256(
            U256{{rng.next_u64(), rng.next_u64(), 0, 0}}));
        break;
      default: scalars.push_back(Fr::random(rng));
    }
  }
  points.resize(n);
  scalars.resize(n);
}

/// msm on affine and on Jacobian inputs against the naive oracle.
template <class Point>
void expect_msm_matches_naive(std::span<const typename Point::Affine> points,
                              std::span<const Fr> scalars) {
  std::vector<Point> jac;
  for (const auto& a : points) jac.push_back(Point::from_affine(a));
  const Point expect = msm_naive<Point>(jac, scalars);
  EXPECT_EQ(msm<Point>(points, scalars), expect) << "n = " << points.size();
  EXPECT_EQ(msm<Point>(jac, scalars), expect) << "n = " << points.size();
}

TEST(Msm, PippengerMatchesNaive) {
  Rng rng("pippenger");
  for (size_t n : {0u, 1u, 2u, 7u, 8u, 17u, 31u, 32u, 33u, 63u, 100u, 127u,
                   128u, 257u, 300u, 512u}) {
    std::vector<G1Affine> points;
    std::vector<Fr> scalars;
    msm_edge_inputs<G1>(n, rng, points, scalars);
    expect_msm_matches_naive<G1>(points, scalars);
    // The batch-RLC shape: scalars cut to 128 bits. With 2^128-1 among them
    // the top bit ends a window (c = 4 below 32 points), so the top window
    // is the Booth carry's alone.
    for (auto& k : scalars) {
      const U256 v = k.to_u256();
      k = Fr::from_u256(U256{{v.w[0], v.w[1], 0, 0}});
    }
    expect_msm_matches_naive<G1>(points, scalars);
  }
}

TEST(Msm, HandlesEdgeScalarsAndG2) {
  Rng rng("pippenger-edge");
  std::vector<G2Affine> points;
  std::vector<Fr> scalars;
  for (size_t n : {7u, 8u, 17u, 31u, 32u, 127u, 128u, 512u}) {
    msm_edge_inputs<G2>(n, rng, points, scalars);
    expect_msm_matches_naive<G2>(points, scalars);
  }
  // All-zero scalars sum to the identity.
  std::vector<Fr> zeros(points.size(), Fr::zero());
  EXPECT_TRUE(msm<G2>(points, zeros).is_identity());
  EXPECT_THROW(msm<G2>(points, std::span<const Fr>(zeros.data(), 3)),
               std::invalid_argument);
}

TEST(Curve, BatchToAffineMatchesToAffine) {
  Rng rng("batch-affine");
  std::vector<G1> points;
  for (size_t i = 0; i < 9; ++i) {
    if (i % 3 == 1)
      points.push_back(G1::identity());
    else
      points.push_back(G1::generator().mul(Fr::random(rng)));
  }
  auto affine = G1::batch_to_affine(points);
  ASSERT_EQ(affine.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(affine[i], points[i].to_affine()) << "i = " << i;
  // All-identity input.
  std::vector<G1> ids(4);
  for (const auto& a : G1::batch_to_affine(ids)) EXPECT_TRUE(a.infinity);
}

// ---------------------------------------------------------------------------
// Scheme-level cached and batch verification.

struct RoFixture {
  threshold::SystemParams sp = threshold::SystemParams::derive("fastpath-ro");
  threshold::RoScheme scheme{sp};
  threshold::KeyMaterial km;

  RoFixture() {
    Rng rng("fastpath-ro-rng");
    km = scheme.dist_keygen(3, 1, rng);
  }

  threshold::Signature sign(const Bytes& msg) const {
    std::vector<threshold::PartialSignature> parts;
    for (uint32_t i = 1; i <= km.t + 1; ++i)
      parts.push_back(scheme.share_sign(km.shares[i - 1], msg));
    return scheme.combine_unchecked(km.t, parts);
  }
};

RoFixture& ro_fixture() {
  static RoFixture f;
  return f;
}

TEST(CachedVerifier, MatchesUncachedVerify) {
  auto& f = ro_fixture();
  threshold::RoVerifier verifier(f.scheme, f.km.pk);
  Bytes msg = to_bytes("cached-verifier message");
  auto sig = f.sign(msg);
  EXPECT_TRUE(f.scheme.verify(f.km.pk, msg, sig));
  EXPECT_TRUE(verifier.verify(msg, sig));
  // A tampered signature must fail on both paths.
  threshold::Signature bad = sig;
  bad.z = (G1::from_affine(bad.z) + G1::generator()).to_affine();
  EXPECT_FALSE(f.scheme.verify(f.km.pk, msg, bad));
  EXPECT_FALSE(verifier.verify(msg, bad));
}

TEST(BatchVerify, AcceptsValidBatchRejectsForgery) {
  auto& f = ro_fixture();
  threshold::RoVerifier verifier(f.scheme, f.km.pk);
  Rng rng("batch-rlc");
  std::vector<Bytes> msgs;
  std::vector<threshold::Signature> sigs;
  for (int j = 0; j < 8; ++j) {
    msgs.push_back(to_bytes("batch message " + std::to_string(j)));
    sigs.push_back(f.sign(msgs.back()));
  }
  EXPECT_TRUE(verifier.batch_verify(msgs, sigs, rng));
  // Empty batch is vacuously valid; mismatched spans throw.
  EXPECT_TRUE(verifier.batch_verify({}, {}, rng));
  EXPECT_THROW(verifier.batch_verify(
                   msgs, std::span<const threshold::Signature>(sigs.data(), 3),
                   rng),
               std::invalid_argument);
  // One forged member poisons the whole batch, wherever it sits.
  for (size_t forged : {size_t(0), sigs.size() - 1}) {
    auto tampered = sigs;
    tampered[forged].r =
        (G1::from_affine(tampered[forged].r) + G1::generator()).to_affine();
    EXPECT_FALSE(verifier.batch_verify(msgs, tampered, rng));
  }
  // A signature swapped onto the wrong message also fails.
  auto swapped = sigs;
  std::swap(swapped[0], swapped[1]);
  EXPECT_FALSE(verifier.batch_verify(msgs, swapped, rng));
}

TEST(BatchVerify, BoldyrevaBaseline) {
  threshold::SystemParams sp = threshold::SystemParams::derive("fastpath-bls");
  baselines::BoldyrevaBls bls(sp);
  Rng rng("fastpath-bls-rng");
  auto km = bls.dealer_keygen(3, 1, rng);
  baselines::BlsVerifier verifier(bls, km.pk);

  std::vector<Bytes> msgs;
  std::vector<G1Affine> sigs;
  for (int j = 0; j < 6; ++j) {
    msgs.push_back(to_bytes("bls batch " + std::to_string(j)));
    std::vector<baselines::BlsPartialSignature> parts;
    for (uint32_t i = 1; i <= km.t + 1; ++i)
      parts.push_back(bls.share_sign(km.shares[i - 1], msgs.back()));
    sigs.push_back(bls.combine(km, msgs.back(), parts));
    EXPECT_TRUE(verifier.verify(msgs.back(), sigs.back()));
  }
  EXPECT_TRUE(verifier.batch_verify(msgs, sigs, rng));
  auto tampered = sigs;
  tampered[2] = (G1::from_affine(tampered[2]) + G1::generator()).to_affine();
  EXPECT_FALSE(verifier.batch_verify(msgs, tampered, rng));
}

TEST(BatchVerify, DlinVariant) {
  threshold::SystemParams sp = threshold::SystemParams::derive("fastpath-dlin");
  threshold::DlinScheme dlin(sp);
  Rng rng("fastpath-dlin-rng");
  auto km = dlin.dist_keygen(3, 1, rng);
  threshold::DlinVerifier verifier(dlin, km.pk);

  std::vector<Bytes> msgs;
  std::vector<threshold::DlinSignature> sigs;
  for (int j = 0; j < 4; ++j) {
    msgs.push_back(to_bytes("dlin batch " + std::to_string(j)));
    std::vector<threshold::DlinPartialSignature> parts;
    for (uint32_t i = 1; i <= km.n; ++i)
      parts.push_back(dlin.share_sign(km.shares[i - 1], msgs.back()));
    sigs.push_back(dlin.combine(km, msgs.back(), parts));
    EXPECT_TRUE(dlin.verify(km.pk, msgs.back(), sigs.back()));
    EXPECT_TRUE(verifier.verify(msgs.back(), sigs.back()));
  }
  EXPECT_TRUE(verifier.batch_verify(msgs, sigs, rng));
  auto tampered = sigs;
  tampered[1].u = (G1::from_affine(tampered[1].u) + G1::generator()).to_affine();
  EXPECT_FALSE(verifier.batch_verify(msgs, tampered, rng));
}

TEST(BatchVerify, AggregateScheme) {
  threshold::SystemParams sp = threshold::SystemParams::derive("fastpath-agg");
  threshold::AggregateScheme agg(sp);
  Rng rng("fastpath-agg-rng");
  auto km = agg.dist_keygen(3, 1, rng);
  threshold::AggVerifier verifier(agg, km.pk);
  EXPECT_TRUE(verifier.key_valid());

  std::vector<Bytes> msgs;
  std::vector<threshold::Signature> sigs;
  for (int j = 0; j < 4; ++j) {
    msgs.push_back(to_bytes("agg batch " + std::to_string(j)));
    std::vector<threshold::PartialSignature> parts;
    for (uint32_t i = 1; i <= km.n; ++i)
      parts.push_back(agg.share_sign(km.pk, km.shares[i - 1], msgs.back()));
    sigs.push_back(agg.combine(km, msgs.back(), parts));
    EXPECT_TRUE(agg.verify(km.pk, msgs.back(), sigs.back()));
    EXPECT_TRUE(verifier.verify(msgs.back(), sigs.back()));
  }
  EXPECT_TRUE(verifier.batch_verify(msgs, sigs, rng));
  auto tampered = sigs;
  tampered[3].z = (G1::from_affine(tampered[3].z) + G1::generator()).to_affine();
  EXPECT_FALSE(verifier.batch_verify(msgs, tampered, rng));
}

TEST(Combine, MsmCombineMatchesNaiveLagrangeSum) {
  // Acceptance: combine_unchecked (now MSM-based) must produce the exact
  // same signature the seed's per-share double-and-add loop produced.
  auto& f = ro_fixture();
  Bytes msg = to_bytes("combine determinism");
  std::vector<threshold::PartialSignature> parts;
  for (uint32_t i = 1; i <= f.km.t + 1; ++i)
    parts.push_back(f.scheme.share_sign(f.km.shares[i - 1], msg));
  auto sig = f.scheme.combine_unchecked(f.km.t, parts);

  std::vector<uint32_t> indices;
  for (const auto& p : parts) indices.push_back(p.index);
  auto lagrange = lagrange_at_zero(indices);
  G1 z, r;
  for (size_t i = 0; i < parts.size(); ++i) {
    z = z + G1::from_affine(parts[i].z).mul(lagrange[i]);
    r = r + G1::from_affine(parts[i].r).mul(lagrange[i]);
  }
  EXPECT_EQ(sig.z, z.to_affine());
  EXPECT_EQ(sig.r, r.to_affine());
  threshold::Signature naive{z.to_affine(), r.to_affine()};
  EXPECT_EQ(sig.serialize(), naive.serialize());
  EXPECT_TRUE(f.scheme.verify(f.km.pk, msg, sig));
}

}  // namespace
}  // namespace bnr
