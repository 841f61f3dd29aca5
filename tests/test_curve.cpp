// Group-law, subgroup, hash-to-curve and serialization tests for G1/G2.
#include <gtest/gtest.h>

#include "bn/biguint.hpp"
#include "common/rng.hpp"
#include "curve/hash_to_curve.hpp"
#include "threshold/ro_scheme.hpp"

namespace bnr {
namespace {

template <class P>
void check_group_laws(const P& g, std::string_view seed) {
  Rng rng(seed);
  P a = g.mul(Fr::random(rng));
  P b = g.mul(Fr::random(rng));
  P c = g.mul(Fr::random(rng));
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a + P::identity(), a);
  EXPECT_EQ(a - a, P::identity());
  EXPECT_EQ(a.dbl(), a + a);
  EXPECT_EQ(a.dbl() + a, a.mul(Fr::from_u64(3)));
}

TEST(G1, GroupLaws) { check_group_laws(G1::generator(), "g1-laws"); }
TEST(G2, GroupLaws) { check_group_laws(G2::generator(), "g2-laws"); }

TEST(G1, GeneratorOnCurve) {
  EXPECT_TRUE(G1Curve::generator_affine().on_curve());
}
TEST(G2, GeneratorOnCurve) {
  EXPECT_TRUE(G2Curve::generator_affine().on_curve());
}

TEST(G1, GeneratorHasOrderR) {
  EXPECT_TRUE(G1::generator().mul(FrTag::kModulus).is_identity());
  EXPECT_FALSE(G1::generator().mul(U256::from_u64(12345)).is_identity());
}

TEST(G2, GeneratorHasOrderR) {
  EXPECT_TRUE(G2::generator().mul(FrTag::kModulus).is_identity());
  EXPECT_TRUE(g2_in_subgroup(G2Curve::generator_affine()));
}

TEST(G1, ScalarDistributivity) {
  Rng rng("g1-scalar");
  G1 g = G1::generator();
  for (int i = 0; i < 5; ++i) {
    Fr a = Fr::random(rng), b = Fr::random(rng);
    EXPECT_EQ(g.mul(a) + g.mul(b), g.mul(a + b));
    EXPECT_EQ(g.mul(a).mul(b), g.mul(a * b));
  }
}

TEST(G2, ScalarDistributivity) {
  Rng rng("g2-scalar");
  G2 g = G2::generator();
  for (int i = 0; i < 3; ++i) {
    Fr a = Fr::random(rng), b = Fr::random(rng);
    EXPECT_EQ(g.mul(a) + g.mul(b), g.mul(a + b));
  }
}

TEST(G1, MulByZeroAndOne) {
  G1 g = G1::generator();
  EXPECT_TRUE(g.mul(Fr::zero()).is_identity());
  EXPECT_EQ(g.mul(Fr::one()), g);
  EXPECT_TRUE(G1::identity().mul(Fr::from_u64(7)).is_identity());
}

TEST(G1, AddOppositeIsIdentity) {
  G1 g = G1::generator();
  EXPECT_TRUE((g + (-g)).is_identity());
}

TEST(G1, MixedDoublingViaAdd) {
  // operator+ must detect the doubling case.
  G1 g = G1::generator();
  G1 sum = g + g;
  EXPECT_EQ(sum, g.dbl());
}

TEST(G1, HashToCurve) {
  Rng rng("g1-hash");
  for (int i = 0; i < 10; ++i) {
    Bytes msg = rng.bytes(1 + rng.uniform(64));
    G1Affine p = hash_to_g1("test-dst", msg);
    EXPECT_TRUE(p.on_curve());
    EXPECT_FALSE(p.infinity);
    // Determinism.
    EXPECT_EQ(hash_to_g1("test-dst", msg), p);
    // Domain separation.
    EXPECT_FALSE(hash_to_g1("other-dst", msg) == p);
  }
}

TEST(G2, HashToCurve) {
  Rng rng("g2-hash");
  for (int i = 0; i < 4; ++i) {
    Bytes msg = rng.bytes(16);
    G2Affine p = hash_to_g2("test-dst", msg);
    EXPECT_TRUE(p.on_curve());
    EXPECT_FALSE(p.infinity);
    EXPECT_TRUE(g2_in_subgroup(p));
    EXPECT_EQ(hash_to_g2("test-dst", msg), p);
  }
}

// Known answers for H(M), as compressed encodings: any change to the
// hash's counter, root or sign choice breaks them. The "B" vectors of the
// empty and 100-byte messages take counters 1 and 2.
TEST(G1, HashToCurveKnownAnswers) {
  Bytes m100;
  for (int i = 0; i < 100; ++i) m100.push_back(static_cast<uint8_t>(i));
  const std::array<Bytes, 3> msgs = {Bytes{}, Bytes{0x61}, m100};
  const std::array<std::array<const char*, 3>, 2> expect = {{
      {"02113b54072425071d8d51ca3ba133608fa8b6e2ee0804604289830ca5d7a88576",
       "0206bdb2f5bca411a9f5facf3c17d00f745d8c3d8f97c6b9c575e235995b8ed827",
       "020b8032d5b3d6c2eb6e93e051ce6a9dc9d0493e11d905acf950f0f48cc1fca11b"},
      {"0212ca5fa6119e1c6acdaba5035d5393f0cc5fef2697ebd7dfed68ab6ffebaf6cb",
       "020ceffe186a0b5ec16368fc9e2acfc60557076d45e6dec712dbb48e03a4ff3975",
       "030a917a0e8b6003cc0659fb0d29f2de40a70eee9e9a46d5167505b710fd08a98c"},
  }};
  const std::array<const char*, 2> dsts = {"bnr-kat/A", "bnr-kat/B"};
  for (size_t d = 0; d < dsts.size(); ++d)
    for (size_t m = 0; m < msgs.size(); ++m)
      EXPECT_EQ(to_hex(g1_to_bytes(hash_to_g1(dsts[d], msgs[m]))),
                expect[d][m])
          << dsts[d] << " len " << msgs[m].size();

  // H(M) of the RO scheme: two G1 points per message.
  threshold::RoScheme scheme(threshold::SystemParams::derive("bnr-kat"));
  const std::array<std::array<const char*, 2>, 3> ro = {{
      {"0203b2b590e59da6ce4dd478ef8bc317a3a511b1e6a845ed1ccef2087334265dd7",
       "022e1b1c7d18290f8f0f0bd91181a79146a9bc4caf31d3801a43fa7801cd4b8c4b"},
      {"0309bd3a82c775848af0fa6c971dae72599e61f4467eba8bfadeea818606bc9a90",
       "02288ddf123bbe9f41c9bbc13ed24609f3e9f51729d6640806306418f490b27503"},
      {"021e1d77d2364894dffe0770b658b8f29eae3e6e40ea0ed295047779aeba5b7e5b",
       "031ad72bcadfb0ddb989e9e2ade2539edf3ec1e8aac1a3223eed13e1fa17263e2e"},
  }};
  for (size_t m = 0; m < msgs.size(); ++m) {
    auto h = scheme.hash_message(msgs[m]);
    EXPECT_EQ(to_hex(g1_to_bytes(h[0])), ro[m][0]) << "len " << msgs[m].size();
    EXPECT_EQ(to_hex(g1_to_bytes(h[1])), ro[m][1]) << "len " << msgs[m].size();
  }
}

TEST(G1, HashVectorIsIndependent) {
  Bytes msg = to_bytes("hello");
  auto vec = hash_to_g1_vector("H", msg, 3);
  ASSERT_EQ(vec.size(), 3u);
  EXPECT_FALSE(vec[0] == vec[1]);
  EXPECT_FALSE(vec[1] == vec[2]);
}

TEST(G1, SerializationRoundTrip) {
  Rng rng("g1-serde");
  for (int i = 0; i < 20; ++i) {
    G1Affine p = G1::generator().mul(Fr::random(rng)).to_affine();
    Bytes enc = g1_to_bytes(p);
    EXPECT_EQ(enc.size(), kG1CompressedSize);
    EXPECT_EQ(g1_from_bytes(enc), p);
  }
  // Identity.
  Bytes enc = g1_to_bytes(G1Affine::identity());
  EXPECT_TRUE(g1_from_bytes(enc).infinity);
}

TEST(G2, SerializationRoundTrip) {
  Rng rng("g2-serde");
  for (int i = 0; i < 6; ++i) {
    G2Affine p = G2::generator().mul(Fr::random(rng)).to_affine();
    Bytes enc = g2_to_bytes(p);
    EXPECT_EQ(enc.size(), kG2CompressedSize);
    EXPECT_EQ(g2_from_bytes(enc), p);
  }
  Bytes enc = g2_to_bytes(G2Affine::identity());
  EXPECT_TRUE(g2_from_bytes(enc).infinity);
}

TEST(G1, DeserializeRejectsGarbage) {
  Bytes bad(kG1CompressedSize, 0xff);
  EXPECT_THROW(g1_from_bytes(bad), std::invalid_argument);
  Bytes bad_tag = g1_to_bytes(G1Curve::generator_affine());
  bad_tag[0] = 9;
  EXPECT_THROW(g1_from_bytes(bad_tag), std::invalid_argument);
  // The identity has one encoding: any nonzero byte after tag 0 is garbage.
  for (size_t i : {1u, 16u, 32u}) {
    Bytes id = g1_to_bytes(G1Affine::identity());
    id[i] = 1;
    EXPECT_THROW(g1_from_bytes(id), std::invalid_argument) << i;
  }
}

TEST(G2, DeserializeRejectsGarbage) {
  Bytes bad(kG2CompressedSize, 0xff);
  EXPECT_THROW(g2_from_bytes(bad), std::invalid_argument);
  Bytes bad_tag = g2_to_bytes(G2Curve::generator_affine());
  bad_tag[0] = 9;
  EXPECT_THROW(g2_from_bytes(bad_tag), std::invalid_argument);
  for (size_t i : {1u, 32u, 33u, 64u}) {
    Bytes id = g2_to_bytes(G2Affine::identity());
    id[i] = 0x80;
    EXPECT_THROW(g2_from_bytes(id), std::invalid_argument) << i;
  }
}

TEST(G1, FromXYRejectsOffCurve) {
  EXPECT_THROW(G1Affine::from_xy(Fp::from_u64(1), Fp::from_u64(1)),
               std::invalid_argument);
}

TEST(G2, ClearCofactorLandsInSubgroup) {
  // A twist point built directly from x (before cofactor clearing) is
  // generally NOT in the r-order subgroup; after clearing it must be.
  Rng rng("g2-cofactor");
  for (uint32_t ctr = 0; ctr < 100; ++ctr) {
    Bytes msg = rng.bytes(8);
    G2Affine p = hash_to_g2("cofactor-test", msg);
    EXPECT_TRUE(g2_in_subgroup(p));
    break;
  }
}

// ---------------------------------------------------------------------------
// The GLV endomorphism of G1 and the small-MSM (Straus) path of msm.

Fr signed_fr(const U256& mag, bool negative) {
  const Fr v = Fr::from_u256(mag);
  return negative ? -v : v;
}

TEST(Glv, KnownAnswers) {
  const Fp& beta = G1Curve::glv_beta();
  const Fr& lambda = G1Curve::glv_lambda();
  EXPECT_NE(beta, Fp::one());
  EXPECT_EQ(beta * beta * beta, Fp::one());
  EXPECT_NE(lambda, Fr::one());
  EXPECT_EQ(lambda * lambda * lambda, Fr::one());
  auto phi = [&](const G1Affine& p) {
    return G1::from_affine(G1Affine::from_xy(beta * p.x, p.y));
  };
  EXPECT_EQ(phi(G1Curve::generator_affine()), G1::generator().mul(lambda));
  Rng rng("glv-kat");
  const G1 p = G1::generator().mul(Fr::random(rng));
  EXPECT_EQ(phi(p.to_affine()), p.mul(lambda));
}

TEST(Glv, SplitHalvesAreShortAndRecombine) {
  Rng rng("glv-split");
  const Fr& lambda = G1Curve::glv_lambda();
  for (int i = 0; i < 10000; ++i) {
    const Fr k = Fr::random(rng);
    const GlvSplit s = G1Curve::glv_split(k.to_u256());
    ASSERT_LE(s.k1.bit_length(), 128u) << i;
    ASSERT_LE(s.k2.bit_length(), 128u) << i;
    ASSERT_EQ(signed_fr(s.k1, s.k1_neg) + signed_fr(s.k2, s.k2_neg) * lambda,
              k)
        << i;
  }
}

// The properties glv_split relies on, recomputed with BigUint from the
// transcribed constants.
TEST(Glv, BasisIsReducedAndRoundingConstantsExact) {
  const auto& g = G1Curve::kGlvBasis;
  auto negative = [](const U256& x) { return (x.w[3] >> 63) != 0; };
  ASSERT_FALSE(negative(g.a1));
  ASSERT_FALSE(negative(g.a2));
  ASSERT_TRUE(negative(g.b1));  // b1 < 0 < b2
  ASSERT_FALSE(negative(g.b2));
  U256 minus_b1;
  U256::sub(U256::zero(), g.b1, minus_b1);
  const BigUint a1(g.a1), a2(g.a2), b1_abs(minus_b1), b2(g.b2);
  const BigUint r(FrTag::kModulus), lambda(G1Curve::glv_lambda().to_u256());

  // Both vectors lie in the lattice, and together they span it:
  // a1 * b2 - a2 * b1 = a1 * b2 + a2 * |b1| = r.
  EXPECT_EQ(a1, (b1_abs * lambda) % r);  // a1 + b1 * lambda = 0 (mod r)
  EXPECT_EQ((a2 + b2 * lambda) % r, BigUint(0));
  EXPECT_EQ(a1 * b2 + a2 * b1_abs, r);
  // Short enough for 128-bit halves.
  const BigUint half_range = BigUint(1) << 128;
  EXPECT_LT(a1 + a2, half_range);
  EXPECT_LT(b1_abs + b2, half_range);
  // g = round(|b| * 2^320 / r).
  auto rounding = [&](const BigUint& b) {
    return (((b << 320) + (r >> 1)) / r).to_u256();
  };
  EXPECT_EQ(g.g1, rounding(b2));
  EXPECT_EQ(g.g2, rounding(b1_abs));
}

/// 0, 1, 2^32 - 1, 2^128 - 1, 2^128, r - 1, lambda, r - lambda, and two
/// scalars whose GLV halves are both negative.
std::vector<Fr> edge_scalars() {
  const Fr& lambda = G1Curve::glv_lambda();
  std::vector<Fr> out = {Fr::zero(),
                         Fr::one(),
                         Fr::from_u64(0xffffffffull),
                         Fr::from_u256(U256{{~0ull, ~0ull, 0, 0}}),
                         Fr::from_u256(U256{{0, 0, 1, 0}}),
                         -Fr::one(),
                         lambda,
                         -lambda};
  Rng rng("glv-both-negative");
  for (int tries = 0, found = 0; found < 2; ++tries) {
    if (tries == 10000) throw std::logic_error("no doubly negative split");
    const Fr k = Fr::random(rng);
    const GlvSplit s = G1Curve::glv_split(k.to_u256());
    if (s.k1_neg && s.k2_neg) {
      out.push_back(k);
      ++found;
    }
  }
  return out;
}

template <class P>
void expect_msm_matches_naive(const std::vector<P>& points,
                              const std::vector<Fr>& scalars) {
  const auto affine = P::batch_to_affine(points);
  EXPECT_EQ(msm<P>(std::span<const typename P::Affine>(affine), scalars),
            msm_naive<P>(points, scalars));
}

/// msm against msm_naive for n = 1..8: every edge scalar at every position,
/// identity points, P twice, P beside -P, and random mixes of all of these.
template <class P>
void check_small_msms(std::string_view seed) {
  Rng rng(seed);
  const auto edges = edge_scalars();
  std::vector<P> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(P::generator().mul(Fr::random(rng)));
  for (size_t n = 1; n <= 8; ++n) {
    SCOPED_TRACE(n);
    std::vector<P> points(pool.begin(), pool.begin() + static_cast<long>(n));
    for (size_t e = 0; e < edges.size(); ++e) {
      std::vector<Fr> scalars;
      for (size_t i = 0; i < n; ++i) scalars.push_back(edges[(e + i) % edges.size()]);
      expect_msm_matches_naive(points, scalars);
    }
    std::vector<Fr> random;
    for (size_t i = 0; i < n; ++i) random.push_back(Fr::random(rng));
    std::vector<P> with_identity = points;
    with_identity[0] = P::identity();
    expect_msm_matches_naive(with_identity, random);
    if (n >= 2) {
      std::vector<P> twice = points, opposite = points;
      twice[1] = twice[0];
      opposite[1] = -opposite[0];
      std::vector<Fr> same = random;
      same[1] = same[0];
      expect_msm_matches_naive(twice, random);
      expect_msm_matches_naive(twice, same);
      expect_msm_matches_naive(opposite, random);
      expect_msm_matches_naive(opposite, same);  // the pair cancels
    }
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<P> mixed;
      std::vector<Fr> scalars;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t kind = i == 0 ? 0 : rng.uniform(4);
        if (kind == 1)
          mixed.push_back(P::identity());
        else if (kind == 2)
          mixed.push_back(mixed[rng.uniform(i)]);
        else if (kind == 3)
          mixed.push_back(-mixed[rng.uniform(i)]);
        else
          mixed.push_back(pool[i]);
        scalars.push_back(rng.uniform(2) == 0 ? edges[rng.uniform(edges.size())]
                                              : Fr::random(rng));
      }
      expect_msm_matches_naive(mixed, scalars);
    }
  }
}

TEST(Msm, SmallG1MatchesNaive) { check_small_msms<G1>("small-msm-g1"); }
TEST(Msm, SmallG2MatchesNaive) { check_small_msms<G2>("small-msm-g2"); }

TEST(Msm, MatchesNaiveSum) {
  Rng rng("msm");
  std::vector<G1> points;
  std::vector<Fr> scalars;
  for (int i = 0; i < 5; ++i) {
    points.push_back(G1::generator().mul(Fr::random(rng)));
    scalars.push_back(Fr::random(rng));
  }
  G1 expect;
  for (int i = 0; i < 5; ++i) expect = expect + points[i].mul(scalars[i]);
  EXPECT_EQ(msm<G1>(points, scalars), expect);
}

}  // namespace
}  // namespace bnr
