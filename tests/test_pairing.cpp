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

// GT values pinned byte for byte: the 12 canonical Fp coefficients in hex,
// in the order c0.c0.c0, c0.c0.c1, c0.c1.c0, ..., c1.c2.c1. Every pairing
// oracle here (the affine reference loop, the ladder and the generic final
// exponentiation) runs on the same tower as the fast paths, so a tower
// change that moved them all together would pass every cross-check; these
// pins would not.
std::vector<std::string> coefficients_hex(const Fp12& f) {
  std::vector<std::string> out;
  for (const Fp6* s : {&f.c0, &f.c1})
    for (const Fp2* t : {&s->c0, &s->c1, &s->c2})
      for (const Fp* c : {&t->c0, &t->c1}) out.push_back(c->to_u256().to_hex());
  return out;
}

TEST(Pairing, GeneratorPairingIsPinned) {
  const std::vector<std::string> kPinned = {
      "12c70e90e12b7874510cd1707e8856f71bf7f61d72631e268fca81000db9a1f5",
      "084f330485b09e866bc2f2ea2b897394deaf3f12aa31f28cb0552990967d4704",
      "0e841c2ac18a4003ac9326b9558380e0bc27fdd375e3605f96b819a358d34bde",
      "2067586885c3318eeffa1938c754fe3c60224ee5ae15e66af6b5104c47c8c5d8",
      "01676555de427abc409c4a394bc5426886302996919d4bf4bdd02236e14b3636",
      "2b03614464f04dd772d86df88674c270ffc8747ea13e72da95e3594468f222c4",
      "2c53748bcd21a7c038fb30ddc8ac3bf0af25d7859cfbc12c30c866276c565909",
      "27ed208e7a0b55ae6e710bbfbd2fd922669c026360e37cc5b2ab862411536104",
      "1ad9db1937fd72f4ac462173d31d3d6117411fa48dba8d499d762b47edb3b54a",
      "279db296f9d479292532c7c493d8e0722b6efae42158387564889c79fc038ee3",
      "0dc26f240656bbe2029bd441d77c221f0ba4c70c94b29b5f17f0f6d08745a069",
      "108c19d15f9446f744d0f110405d3856d6cc3bda6c4d537663729f5257628417"};
  const G1Affine g1 = G1Curve::generator_affine();
  const G2Affine g2 = G2Curve::generator_affine();
  const std::vector<PairingTerm> terms = {{g1, g2}};
  const G2Prepared prepared(g2);
  const std::vector<PreparedTerm> prepared_terms = {{g1, &prepared}};
  EXPECT_EQ(coefficients_hex(pairing(g1, g2).value), kPinned);
  EXPECT_EQ(coefficients_hex(pairing(g1, prepared).value), kPinned);
  EXPECT_EQ(coefficients_hex(multi_pairing(terms).value), kPinned);
  EXPECT_EQ(coefficients_hex(multi_pairing(prepared_terms).value), kPinned);
  EXPECT_EQ(coefficients_hex(multi_pairing_reference(terms).value), kPinned);
}

TEST(Pairing, FinalExponentiationIsPinned) {
  const std::vector<std::string> kPinned = {
      "1019cb3943581bed3775540472e34d1ceab65aaaf287aa0f8e0358dc27e15e41",
      "17877b6bf5d550ad12fca00e423456b27ad8c03aa1174038cbca6df3afcd8ded",
      "2dc9a8d9a6c0fedce323937146cd2a2157276e448a9a052cacca793a3ebed374",
      "0e9583b5b460208d6d4f0ab93c58f3c6d9569c023feaec421c2e134d7c9de201",
      "23f2e1ae69f19a436cdc35887df343f2c304ca5a9b29965f453726ae35841829",
      "0d59104054ab2ae99bd08364032e196160886edebd5fde811708aa538d28dc0a",
      "14029271a20d8a84d162f685accaa3215aab74140d6186c55560f9da8b456919",
      "1505746df7e6366e09e220341c1b30d7e2de68e8cdcb59e26ba210fcf2a46c27",
      "275539acb404b1bbfa3f7fc2be136a1b6905d42d8561d5482b29701d60ab9fd9",
      "18aca14a57b9f7c5ee4675532d4b7ed8c744a7a7faf61fa49cec0d0f92e3d4c2",
      "225ffaf563271a70f177af2854d5ceb9bb7df58e30cc000efbcace26026464d1",
      "0a1536d7671a1328f6f948a1391552e543cb7ed2ff7f1d0f07fc33c723789773"};
  Rng rng("gt-pin-final-exp");
  const Fp12 f{Fp6{Fp2::random(rng), Fp2::random(rng), Fp2::random(rng)},
               Fp6{Fp2::random(rng), Fp2::random(rng), Fp2::random(rng)}};
  EXPECT_EQ(coefficients_hex(final_exponentiation(f)), kPinned);
  EXPECT_EQ(coefficients_hex(final_exponentiation_ladder(f)), kPinned);
  EXPECT_EQ(coefficients_hex(final_exponentiation_generic(f)), kPinned);
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
