// Bilinearity, non-degeneracy and multi-pairing tests — these certify the
// entire substrate stack (fields, tower, Frobenius, curves, Miller loop,
// final exponentiation) at once.
#include <gtest/gtest.h>

#include "bn/biguint.hpp"
#include "common/rng.hpp"
#include "curve/hash_to_curve.hpp"
#include "pairing/pairing.hpp"

namespace bnr {
namespace {

TEST(Pairing, NonDegenerate) {
  GT e = pairing(G1::generator(), G2::generator());
  EXPECT_FALSE(e.is_identity());
}

TEST(Pairing, OutputHasOrderR) {
  GT e = pairing(G1::generator(), G2::generator());
  EXPECT_TRUE(e.pow(FrTag::kModulus).is_identity());
}

TEST(Pairing, Bilinearity) {
  Rng rng("pairing-bilinear");
  G1 g1 = G1::generator();
  G2 g2 = G2::generator();
  for (int i = 0; i < 3; ++i) {
    Fr a = Fr::random(rng);
    Fr b = Fr::random(rng);
    GT lhs = pairing(g1.mul(a), g2.mul(b));
    GT rhs = pairing(g1, g2).pow(a * b);
    EXPECT_EQ(lhs, rhs);
    // Also additivity in the first argument.
    GT ea = pairing(g1.mul(a), g2);
    GT eb = pairing(g1.mul(b), g2);
    GT eab = pairing(g1.mul(a + b), g2);
    EXPECT_EQ(ea * eb, eab);
  }
}

TEST(Pairing, IdentityArguments) {
  EXPECT_TRUE(pairing(G1Affine::identity(), G2Curve::generator_affine())
                  .is_identity());
  EXPECT_TRUE(pairing(G1Curve::generator_affine(), G2Affine::identity())
                  .is_identity());
}

TEST(Pairing, MultiPairingMatchesProduct) {
  Rng rng("multi-pairing");
  std::vector<PairingTerm> terms;
  GT expect = GT::identity();
  for (int i = 0; i < 4; ++i) {
    G1Affine p = G1::generator().mul(Fr::random(rng)).to_affine();
    G2Affine q = G2::generator().mul(Fr::random(rng)).to_affine();
    terms.push_back({p, q});
    expect = expect * pairing(p, q);
  }
  EXPECT_EQ(multi_pairing(terms), expect);
}

TEST(Pairing, ProductIsOneDetectsCancellation) {
  Rng rng("pairing-cancel");
  Fr a = Fr::random(rng);
  G1Affine p = G1::generator().mul(a).to_affine();
  G1Affine minus_p = (-G1::generator().mul(a)).to_affine();
  G2Affine q = G2Curve::generator_affine();
  std::vector<PairingTerm> terms = {{p, q}, {minus_p, q}};
  EXPECT_TRUE(pairing_product_is_one(terms));
  terms[1].p = G1::generator().mul(a + Fr::one()).to_affine();
  EXPECT_FALSE(pairing_product_is_one(terms));
}

TEST(Pairing, WorksOnHashedPoints) {
  // The schemes pair hashed G1 points against DKG-produced G2 keys.
  Rng rng("pairing-hashed");
  G1Affine h = hash_to_g1("dst", to_bytes("message"));
  Fr x = Fr::random(rng);
  // e(H, g2^x) == e(H^x, g2)
  GT lhs = pairing(G1::from_affine(h), G2::generator().mul(x));
  GT rhs = pairing(G1::from_affine(h).mul(x), G2::generator());
  EXPECT_EQ(lhs, rhs);
}

TEST(Pairing, AteLoopNafIsValid) {
  // NAF digits reconstruct 6u+2 and contain no adjacent non-zeros.
  const auto& naf = ate_loop_naf();
  unsigned __int128 acc = 0;
  for (size_t i = naf.size(); i-- > 0;) {
    acc = 2 * acc;
    if (naf[i] == 1)
      acc += 1;
    else if (naf[i] == -1)
      acc -= 1;
    else
      ASSERT_EQ(naf[i], 0);
  }
  unsigned __int128 expect =
      6 * static_cast<unsigned __int128>(4965661367192848881ull) + 2;
  EXPECT_TRUE(acc == expect);
  for (size_t i = 0; i + 1 < naf.size(); ++i)
    EXPECT_FALSE(naf[i] != 0 && naf[i + 1] != 0);
}

TEST(Pairing, FinalExponentiationMapsToUnityKernel) {
  // Any Miller value raised to r after final exp is 1 (order divides r).
  Rng rng("pairing-fexp");
  Fp12 f = final_exponentiation(
      miller_loop(G1::generator().mul(Fr::random(rng)).to_affine(),
                  G2::generator().mul(Fr::random(rng)).to_affine()));
  EXPECT_TRUE(f.pow(FrTag::kModulus).is_one());
}

}  // namespace
}  // namespace bnr

// Re-open the namespaces for the fast-path ablation tests appended after
// the optimization work (cyclotomic squaring, wNAF).
namespace bnr {
namespace {

TEST(Pairing, CyclotomicSquareMatchesGenericSquare) {
  Rng rng("cyclo-sq");
  for (int i = 0; i < 3; ++i) {
    Fp12 m = miller_loop(G1::generator().mul(Fr::random(rng)).to_affine(),
                         G2::generator().mul(Fr::random(rng)).to_affine());
    // Put the element into the cyclotomic subgroup via the easy part.
    Fp12 f = m.conjugate() * m.inverse();
    f = f.frobenius2() * f;
    EXPECT_EQ(f.cyclotomic_squared(), f.squared());
    // And iterated, to catch error accumulation.
    Fp12 a = f, b = f;
    for (int k = 0; k < 10; ++k) {
      a = a.cyclotomic_squared();
      b = b.squared();
    }
    EXPECT_EQ(a, b);
  }
}

TEST(Pairing, FinalExponentiationFastPathMatchesGeneric) {
  Rng rng("fexp-fast");
  for (int i = 0; i < 2; ++i) {
    Fp12 m = miller_loop(G1::generator().mul(Fr::random(rng)).to_affine(),
                         G2::generator().mul(Fr::random(rng)).to_affine());
    EXPECT_EQ(final_exponentiation(m), final_exponentiation_generic(m));
  }
}

TEST(Curve, WnafMatchesBinaryLadder) {
  Rng rng("wnaf");
  for (int i = 0; i < 10; ++i) {
    Fr s = Fr::random(rng);
    U256 k = s.to_u256();
    G1 g = G1::generator();
    EXPECT_EQ(g.mul_wnaf(k),
              g.mul_binary(std::span<const uint64_t>(k.w.data(), 4)));
  }
  // Edge scalars.
  for (uint64_t k : {0ull, 1ull, 2ull, 7ull, 8ull, 15ull, 16ull, 255ull}) {
    U256 u = U256::from_u64(k);
    EXPECT_EQ(G1::generator().mul_wnaf(u),
              G1::generator().mul_binary(std::span<const uint64_t>(u.w.data(), 4)));
  }
}

TEST(Curve, WnafDigitsReconstructScalar) {
  Rng rng("wnaf-digits");
  for (int window : {4, 5}) {
    for (int i = 0; i < 21; ++i) {
      // The all-ones scalar ends in a carry past its top bit.
      const U256 k = i == 20 ? U256{{~0ull, ~0ull, ~0ull, ~0ull}}
                             : Fr::random(rng).to_u256();
      auto digits = G1::wnaf_digits(k, window);
      // Reconstruct sum digits[i] * 2^i as BigUint-free signed arithmetic:
      // accumulate positive and negative parts separately.
      BigUint pos, neg;
      size_t next_nonzero = digits.size();
      for (size_t j = digits.size(); j-- > 0;) {
        pos = pos << 1;
        neg = neg << 1;
        if (digits[j] > 0) pos = pos + BigUint(uint64_t(digits[j]));
        if (digits[j] < 0) neg = neg + BigUint(uint64_t(-digits[j]));
        // wNAF digits are odd, |d| < 2^(w-1), and w-1 zeros follow each.
        if (digits[j] != 0) {
          EXPECT_EQ(std::abs(digits[j]) % 2, 1);
          EXPECT_LT(std::abs(digits[j]), 1 << (window - 1));
          if (next_nonzero < digits.size()) {
            EXPECT_GE(next_nonzero - j, size_t(window));
          }
          next_nonzero = j;
        }
      }
      EXPECT_NE(digits.back(), 0);
      EXPECT_EQ(pos - neg, BigUint(k));
    }
  }
}

}  // namespace
}  // namespace bnr
