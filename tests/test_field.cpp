// Field-axiom and tower-consistency tests for Fp, Fr, Fp2, Fp6, Fp12.
#include <gtest/gtest.h>

#include "bn/biguint.hpp"
#include "common/rng.hpp"
#include "field/tower.hpp"

#if BNR_MONT_MULX
#include <cpuid.h>
#endif

namespace bnr {
namespace {

std::vector<uint64_t> limbs_of(const BigUint& v) {
  return {v.limbs().begin(), v.limbs().end()};
}

Fp6 random_fp6(Rng& rng) {
  return {Fp2::random(rng), Fp2::random(rng), Fp2::random(rng)};
}
Fp12 random_fp12(Rng& rng) { return {random_fp6(rng), random_fp6(rng)}; }

// ---------------------------------------------------------------------------
// Parameterized axioms over both prime fields.

template <class F>
void check_prime_field_axioms(std::string_view seed) {
  Rng rng(seed);
  for (int i = 0; i < 50; ++i) {
    F a = F::random(rng), b = F::random(rng), c = F::random(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + F::zero(), a);
    EXPECT_EQ(a * F::one(), a);
    EXPECT_EQ(a - a, F::zero());
    EXPECT_EQ(a + (-a), F::zero());
    EXPECT_EQ(a.squared(), a * a);
    EXPECT_EQ(a.doubled(), a + a);
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), F::one());
    }
  }
}

TEST(Fp, Axioms) { check_prime_field_axioms<Fp>("fp-axioms"); }
TEST(Fr, Axioms) { check_prime_field_axioms<Fr>("fr-axioms"); }

// ---------------------------------------------------------------------------
// Kernel differential tests: +, -, unary -, doubled, * and squared against
// BigUint arithmetic mod the modulus, over every ordered pair from a set of
// carry and borrow edges plus random elements. Each edge enters twice: as an
// element's value and as its Montgomery word, which is what the kernels add
// and multiply. Results are compared with from_u256(expected), and
// operator== compares Montgomery words, so outputs must also be canonical.
// The products run through one multiply kernel, named by the caller.

/// A Montgomery multiply kernel by name: Mont::mul_portable or
/// Mont::mul_mulx.
template <class F>
using MulKernel = F (*)(const F&, const F&);

/// bmi2 and adx from cpuid leaf 7 (ebx bits 8 and 19), read here rather
/// than through the library, so a detection bug cannot hide its own test.
bool cpu_has_bmi2_adx() {
#if BNR_MONT_MULX
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return ((ebx >> 8) & 1) != 0 && ((ebx >> 19) & 1) != 0;
#else
  return false;
#endif
}

template <class F>
std::vector<BigUint> kernel_values(std::string_view seed) {
  const BigUint p(F::kMod), one(1);
  const std::vector<BigUint> edges = {
      BigUint(0),       one,
      BigUint(2),       p - one,
      p - BigUint(2),   (p - one) >> 1,
      (p + one) >> 1,   BigUint(~uint64_t(0)) % p,  // 2^64 - 1
      (one << 128) % p, (one << 192) % p,
      (one << 253) % p};
  // The element whose Montgomery word is w has the value w / 2^256 mod p.
  const BigUint r_inv = BigUint::mod_inverse((one << 256) % p, p);
  std::vector<BigUint> values = edges;
  for (const BigUint& w : edges)
    values.push_back(BigUint::mod_mul(w, r_inv, p));
  Rng rng(seed);
  for (int i = 0; i < 6; ++i) values.push_back(BigUint::random_below(rng, p));
  return values;
}

template <class F>
void check_kernels_against_biguint(std::string_view seed, MulKernel<F> mul) {
  const BigUint p(F::kMod), r = BigUint(1) << 256;
  const BigUint r_mod_p = r % p, p_inv = BigUint::mod_inverse(p, r);
  auto elem = [](const BigUint& v) { return F::from_u256(v.to_u256()); };
  auto word = [&](const BigUint& v) { return BigUint::mod_mul(v, r_mod_p, p); };
  size_t sums_to_p = 0, wide_products = 0;
  const std::vector<BigUint> values = kernel_values<F>(seed);
  for (const BigUint& a : values) {
    const F fa = elem(a);
    EXPECT_EQ(-fa, elem((p - a) % p)) << a.to_hex();
    EXPECT_EQ(fa.doubled(), elem((a + a) % p)) << a.to_hex();
    EXPECT_EQ(mul(fa, fa), elem((a * a) % p)) << a.to_hex();
    for (const BigUint& b : values) {
      const F fb = elem(b);
      EXPECT_EQ(fa + fb, elem((a + b) % p)) << a.to_hex() << " " << b.to_hex();
      EXPECT_EQ(fa - fb, elem((a + p - b) % p))
          << a.to_hex() << " " << b.to_hex();
      EXPECT_EQ(mul(fa, fb), elem((a * b) % p))
          << a.to_hex() << " " << b.to_hex();
      // Coverage of the corrections' edges: word sums equal to p exactly,
      // and products whose CIOS value (x y + m p) / 2^256 before the final
      // subtraction, with m = -x y / p mod 2^256, lies in [p, 2p).
      const BigUint x = word(a), y = word(b);
      if (x + y == p) ++sums_to_p;
      const BigUint xy = x * y;
      const BigUint m = (r - BigUint::mod_mul(xy % r, p_inv, r)) % r;
      if (((xy + m * p) >> 256) >= p) ++wide_products;
    }
  }
  EXPECT_GT(sums_to_p, 0u);
  EXPECT_GT(wide_products, 0u);
}

TEST(Fp, KernelsMatchBigUintOnCarryEdges) {
  check_kernels_against_biguint<Fp>("fp-kernels", &Fp::mul_portable);
}
TEST(Fr, KernelsMatchBigUintOnCarryEdges) {
  check_kernels_against_biguint<Fr>("fr-kernels", &Fr::mul_portable);
}

// The mulx kernel: the same edge set, then a seeded sweep of random
// products compared with the portable kernel word for word. Skipped on a
// CPU without bmi2 and adx, and on targets without the kernel.
template <class F>
void check_mulx_kernel(std::string_view seed) {
#if BNR_MONT_MULX
  if (!cpu_has_bmi2_adx()) GTEST_SKIP() << "this CPU lacks bmi2 or adx";
  check_kernels_against_biguint<F>(seed, &F::mul_mulx);
  Rng rng(seed);
  for (int i = 0; i < 100000; ++i) {
    const F a = F::random(rng), b = F::random(rng);
    ASSERT_EQ(F::mul_mulx(a, b), F::mul_portable(a, b))
        << "product " << i << ": " << a.to_u256().to_hex() << " * "
        << b.to_u256().to_hex();
  }
#else
  (void)seed;
  GTEST_SKIP() << "no mulx kernel on this target";
#endif
}

TEST(Fp, MulxKernelMatchesBigUintAndPortable) {
  check_mulx_kernel<Fp>("fp-mulx");
}
TEST(Fr, MulxKernelMatchesBigUintAndPortable) {
  check_mulx_kernel<Fr>("fr-mulx");
}

// operator* takes the mulx kernel exactly where cpuid reports bmi2 and
// adx: a detection bug that fell back to the portable kernel would keep
// every other test green while every multiply ran ~20% slower.
TEST(Fp, MulxKernelSelectedIffCpuHasBmi2AndAdx) {
#if BNR_MONT_MULX
  EXPECT_EQ(detail::mont_use_mulx, cpu_has_bmi2_adx());
#else
  GTEST_SKIP() << "no mulx kernel on this target";
#endif
}

// ---------------------------------------------------------------------------
// The double-width kernels against BigUint, each by name: mul_wide over
// words up to 2p - 1 (an element, or an unreduced sum of two), redc over
// inputs up to p 2^256 - 1, and add/sub modulo p 2^256 at their wrap edges.
// A seeded sweep then compares the two kernels word for word. Every CI
// runner has bmi2 and adx, so there the tower never runs over the portable
// kernels; their equality with the mulx ones over these domains stands in
// for that coverage.

using Wide = Fp::Wide;
using MulWideKernel = Wide (*)(const U256&, const U256&);
using RedcKernel = Fp (*)(const Wide&);

BigUint big_of(const Wide& t) {
  return (BigUint(U256{{t.w[4], t.w[5], t.w[6], t.w[7]}}) << 256) +
         BigUint(U256{{t.w[0], t.w[1], t.w[2], t.w[3]}});
}

Wide wide_of(const BigUint& v) {
  const U256 lo = (v % (BigUint(1) << 256)).to_u256();
  const U256 hi = (v >> 256).to_u256();
  return Wide{{lo.w[0], lo.w[1], lo.w[2], lo.w[3], hi.w[0], hi.w[1], hi.w[2],
               hi.w[3]}};
}

/// mul_wide operands: kernel_values as words, each also plus p, which
/// reaches p, 2p - 2 and 2p - 1.
std::vector<BigUint> wide_operands() {
  const BigUint p(FpTag::kModulus);
  std::vector<BigUint> ops;
  for (const BigUint& v : kernel_values<Fp>("fp-wide-operands")) {
    ops.push_back(v);
    ops.push_back(v + p);
  }
  return ops;
}

/// redc inputs: every product of two operands, the top of the range, and
/// low halves k p (k = 1..5, the multiples below 2^256), which drive the
/// m * p rows to u = p exactly, under high halves 0, 1 and p - 1.
std::vector<BigUint> redc_inputs(const std::vector<BigUint>& ops, Rng& rng) {
  const BigUint p(FpTag::kModulus), r = BigUint(1) << 256, one(1);
  std::vector<BigUint> in;
  for (const BigUint& a : ops)
    for (const BigUint& b : ops) in.push_back(a * b);
  for (const BigUint& high : {BigUint(0), one, p - one}) {
    in.push_back(high * r);
    in.push_back(high * r + r - one);
    for (uint64_t k = 1; k <= 5; ++k) in.push_back(high * r + BigUint(k) * p);
  }
  in.push_back(p * r - one);
  for (int i = 0; i < 16; ++i) in.push_back(BigUint::random_below(rng, p * r));
  return in;
}

void check_wide_kernels(MulWideKernel mul_wide, RedcKernel redc) {
  const BigUint p(FpTag::kModulus), r = BigUint(1) << 256;
  const BigUint r_inv = BigUint::mod_inverse(r % p, p);
  const BigUint p_inv = BigUint::mod_inverse(p, r);
  const std::vector<BigUint> ops = wide_operands();
  for (const BigUint& a : ops)
    for (const BigUint& b : ops)
      ASSERT_EQ(big_of(mul_wide(a.to_u256(), b.to_u256())), a * b)
          << a.to_hex() << " * " << b.to_hex();

  Rng rng("fp-wide-redc");
  size_t u_is_p = 0, subtracted = 0;
  for (const BigUint& t : redc_inputs(ops, rng)) {
    const U256 got = redc(wide_of(t)).word();
    ASSERT_EQ(BigUint(got), BigUint::mod_mul(t % p, r_inv, p)) << t.to_hex();
    // Coverage of the bound's edges: the rows' u = (L + M p) / 2^256 with
    // M = -L / p mod 2^256 reaching p, and u plus the high half reaching p.
    const BigUint low = t % r;
    const BigUint m = (r - BigUint::mod_mul(low, p_inv, r)) % r;
    const BigUint u = (low + m * p) >> 256;
    if (u == p) ++u_is_p;
    if (!(u + (t >> 256) < p)) ++subtracted;
  }
  EXPECT_GT(u_is_p, 0u);
  EXPECT_GT(subtracted, 0u);
}

TEST(Fp, WideKernelsMatchBigUint) {
  check_wide_kernels(&Fp::mul_wide_portable, &Fp::redc_portable);
}

TEST(Fp, MulxWideKernelsMatchBigUintAndPortable) {
#if BNR_MONT_MULX
  if (!cpu_has_bmi2_adx()) GTEST_SKIP() << "this CPU lacks bmi2 or adx";
  check_wide_kernels(&Fp::mul_wide_mulx, &Fp::redc_mulx);
  // Random words below 2p (255 random bits, rejected at 2p), and random
  // inputs below p 2^256 (a word below p over 256 random bits).
  const U256 two_p = (BigUint(FpTag::kModulus) * BigUint(2)).to_u256();
  Rng rng("fp-wide-sweep");
  auto word = [&] {
    for (;;) {
      U256 v{{rng.next_u64(), rng.next_u64(), rng.next_u64(),
              rng.next_u64() >> 1}};
      if (v < two_p) return v;
    }
  };
  for (int i = 0; i < 100000; ++i) {
    const U256 a = word(), b = word();
    const Wide prod = Fp::mul_wide_mulx(a, b);
    ASSERT_EQ(prod, Fp::mul_wide_portable(a, b))
        << "product " << i << ": " << a.to_hex() << " * " << b.to_hex();
    const U256 hi = Fp::random(rng).word();
    const Wide t{{rng.next_u64(), rng.next_u64(), rng.next_u64(),
                  rng.next_u64(), hi.w[0], hi.w[1], hi.w[2], hi.w[3]}};
    for (const Wide& x : {prod, t})
      ASSERT_EQ(Fp::redc_mulx(x), Fp::redc_portable(x))
          << "reduction " << i << ": " << big_of(x).to_hex();
  }
#else
  GTEST_SKIP() << "no mulx kernel on this target";
#endif
}

TEST(Fp, WideAddSubWrapModuloP2To256) {
  const BigUint p(FpTag::kModulus), r = BigUint(1) << 256, one(1);
  const BigUint top = p * r, half = top >> 1;  // p 2^255: half + half = top
  Rng rng("fp-wide-addsub");
  std::vector<BigUint> values = {BigUint(0), one,       BigUint(2), r - one,
                                 r,          top - one, top - r,    half,
                                 top - half, p * p};
  for (int i = 0; i < 6; ++i) values.push_back(BigUint::random_below(rng, top));
  size_t sums_to_top = 0, minus_one = 0;
  for (const BigUint& a : values) {
    for (const BigUint& b : values) {
      const Wide wa = wide_of(a), wb = wide_of(b);
      ASSERT_EQ(big_of(Fp::add_wide(wa, wb)), (a + b) % top)
          << a.to_hex() << " + " << b.to_hex();
      ASSERT_EQ(big_of(Fp::sub_wide(wa, wb)), (a + top - b) % top)
          << a.to_hex() << " - " << b.to_hex();
      if (!(a < b)) {
        ASSERT_EQ(big_of(Fp::sub_wide_plain(wa, wb)), a - b)
            << a.to_hex() << " - " << b.to_hex();
      }
      if (a + b == top) ++sums_to_top;
      if (b == a + one) ++minus_one;
    }
  }
  EXPECT_GT(sums_to_top, 0u);
  EXPECT_GT(minus_one, 0u);
}

TEST(Fp, MontgomeryConstants) {
  // R = 2^256 mod p, computed two ways.
  BigUint p(FpTag::kModulus);
  BigUint r_ref = (BigUint(1) << 256) % p;
  EXPECT_EQ(BigUint(Fp::kR), r_ref);
  BigUint r2_ref = ((BigUint(1) << 256) * (BigUint(1) << 256)) % p;
  EXPECT_EQ(BigUint(Fp::kR2), r2_ref);
}

TEST(Fp, RoundTripU256) {
  Rng rng("fp-roundtrip");
  for (int i = 0; i < 50; ++i) {
    Fp a = Fp::random(rng);
    EXPECT_EQ(Fp::from_u256(a.to_u256()), a);
    EXPECT_EQ(Fp::from_bytes_be(a.to_bytes_be()), a);
  }
  EXPECT_EQ(Fp::from_u64(12345).to_u64(), 12345u);
}

TEST(Fp, FromU256RejectsOverflow) {
  EXPECT_THROW(Fp::from_u256(FpTag::kModulus), std::invalid_argument);
}

TEST(Fp, InverseOfZeroThrows) {
  EXPECT_THROW(Fp::zero().inverse(), std::domain_error);
}

TEST(Fp, PowMatchesBigUint) {
  Rng rng("fp-pow");
  BigUint p(FpTag::kModulus);
  for (int i = 0; i < 10; ++i) {
    Fp a = Fp::random(rng);
    BigUint e = BigUint::random_bits(rng, 100);
    Fp viaField = a.pow_limbs(limbs_of(e));
    BigUint viaBig = BigUint::mod_pow(BigUint(a.to_u256()), e, p);
    EXPECT_EQ(BigUint(viaField.to_u256()), viaBig);
  }
}

TEST(Fp, FermatLittleTheorem) {
  Rng rng("fp-fermat");
  U256 p_minus_1;
  U256::sub(FpTag::kModulus, U256::one(), p_minus_1);
  for (int i = 0; i < 5; ++i) {
    Fp a = Fp::random(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a.pow(p_minus_1), Fp::one());
    // inverse() agrees with a^(p-2).
    U256 p_minus_2;
    U256::sub(p_minus_1, U256::one(), p_minus_2);
    EXPECT_EQ(a.inverse(), a.pow(p_minus_2));
  }
}

TEST(Fp, Sqrt) {
  Rng rng("fp-sqrt");
  int residues = 0, non_residues = 0;
  for (int i = 0; i < 60; ++i) {
    Fp a = Fp::random(rng);
    Fp sq = a.squared();
    auto root = sq.sqrt();
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(*root == a || *root == -a);
    EXPECT_TRUE(sq.is_square());
    const bool square = a.sqrt().has_value();
    EXPECT_EQ(a.is_square(), square);
    if (square)
      ++residues;
    else
      ++non_residues;
  }
  // Roughly half of random elements are squares.
  EXPECT_GT(residues, 10);
  EXPECT_GT(non_residues, 10);
  // 0 and 1 are squares; -1 is not, because p = 3 (mod 4).
  for (const Fp& e : {Fp::zero(), Fp::one(), -Fp::one()})
    EXPECT_EQ(e.is_square(), e.sqrt().has_value());
  EXPECT_TRUE(Fp::zero().is_square());
  EXPECT_TRUE(Fp::one().is_square());
  EXPECT_FALSE((-Fp::one()).is_square());
}

TEST(Fr, ModulusIsGroupOrder) {
  // r < p (needed for scalar embedding) and both are 254-bit primes.
  EXPECT_TRUE(FrTag::kModulus < FpTag::kModulus);
}

// ---------------------------------------------------------------------------
// Fp2

TEST(Fp2, Axioms) {
  Rng rng("fp2-axioms");
  for (int i = 0; i < 40; ++i) {
    Fp2 a = Fp2::random(rng), b = Fp2::random(rng), c = Fp2::random(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.squared(), a * a);
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), Fp2::one());
    }
  }
}

TEST(Fp2, UIsSquareRootOfMinusOne) {
  Fp2 u{Fp::zero(), Fp::one()};
  EXPECT_EQ(u.squared(), -Fp2::one());
}

TEST(Fp2, ConjugateIsFrobenius) {
  // a^p = conj(a) in Fp2 when p = 3 (mod 4).
  Rng rng("fp2-conj");
  auto p_limbs = std::span<const uint64_t>(FpTag::kModulus.w.data(), 4);
  for (int i = 0; i < 5; ++i) {
    Fp2 a = Fp2::random(rng);
    EXPECT_EQ(a.pow(p_limbs), a.conjugate());
  }
}

TEST(Fp2, MulByXiMatchesGenericMul) {
  Rng rng("fp2-xi");
  for (int i = 0; i < 20; ++i) {
    Fp2 a = Fp2::random(rng);
    EXPECT_EQ(a.mul_by_xi(), a * Fp2::xi());
  }
}

TEST(Fp2, Sqrt) {
  Rng rng("fp2-sqrt");
  int ok = 0, fail = 0;
  for (int i = 0; i < 40; ++i) {
    Fp2 a = Fp2::random(rng);
    Fp2 sq = a.squared();
    auto root = sq.sqrt();
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(*root == a || *root == -a);
    if (a.sqrt())
      ++ok;
    else
      ++fail;
  }
  EXPECT_GT(ok, 5);
  EXPECT_GT(fail, 5);
}

TEST(Fp2, XiIsNonResidue) {
  // xi = 9+u must be a non-square (it seeds the Fp6 tower) — in fact it must
  // be a cubic and quadratic non-residue.
  EXPECT_FALSE(Fp2::xi().sqrt().has_value());
}

// ---------------------------------------------------------------------------
// Fp6 / Fp12

TEST(Fp6, Axioms) {
  Rng rng("fp6-axioms");
  for (int i = 0; i < 25; ++i) {
    Fp6 a = random_fp6(rng), b = random_fp6(rng), c = random_fp6(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), Fp6::one());
    }
  }
}

TEST(Fp6, MulByVMatchesGeneric) {
  Rng rng("fp6-v");
  Fp6 v{Fp2::zero(), Fp2::one(), Fp2::zero()};
  for (int i = 0; i < 20; ++i) {
    Fp6 a = random_fp6(rng);
    EXPECT_EQ(a.mul_by_v(), a * v);
  }
}

TEST(Fp6, VCubedIsXi) {
  Fp6 v{Fp2::zero(), Fp2::one(), Fp2::zero()};
  Fp6 v3 = v * v * v;
  EXPECT_EQ(v3, Fp6::from_fp2(Fp2::xi()));
}

TEST(Fp12, Axioms) {
  Rng rng("fp12-axioms");
  for (int i = 0; i < 15; ++i) {
    Fp12 a = random_fp12(rng), b = random_fp12(rng), c = random_fp12(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a.squared(), a * a);
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), Fp12::one());
    }
  }
}

TEST(Fp12, WSquaredIsV) {
  Fp12 w{Fp6::zero(), Fp6::one()};
  Fp12 v{Fp6{Fp2::zero(), Fp2::one(), Fp2::zero()}, Fp6::zero()};
  EXPECT_EQ(w.squared(), v);
}

TEST(Fp12, FrobeniusMatchesPow) {
  Rng rng("fp12-frob");
  BigUint p(FpTag::kModulus);
  auto p1 = limbs_of(p);
  auto p2 = limbs_of(p * p);
  auto p3 = limbs_of(p * p * p);
  for (int i = 0; i < 3; ++i) {
    Fp12 a = random_fp12(rng);
    EXPECT_EQ(a.frobenius(), a.pow(p1));
    EXPECT_EQ(a.frobenius2(), a.pow(p2));
    EXPECT_EQ(a.frobenius3(), a.pow(p3));
  }
}

TEST(Fp12, FrobeniusComposition) {
  Rng rng("fp12-frob-comp");
  for (int i = 0; i < 5; ++i) {
    Fp12 a = random_fp12(rng);
    EXPECT_EQ(a.frobenius().frobenius(), a.frobenius2());
    EXPECT_EQ(a.frobenius2().frobenius(), a.frobenius3());
  }
}

TEST(Fp12, ConjugateIsP6Frobenius) {
  Rng rng("fp12-conj");
  BigUint p(FpTag::kModulus);
  BigUint p6 = p * p * p * p * p * p;
  for (int i = 0; i < 2; ++i) {
    Fp12 a = random_fp12(rng);
    EXPECT_EQ(a.conjugate(), a.pow(limbs_of(p6)));
  }
}

// ---------------------------------------------------------------------------
// The tower's lazily reduced products against a schoolbook oracle built
// from Fp's +, - and * alone (the tower's own + is coefficient-wise Fp +):
// a reduction per base-field product, no Karatsuba, no double-width value.

namespace oracle {

Fp2 mul(const Fp2& a, const Fp2& b) {
  return {a.c0 * b.c0 - a.c1 * b.c1, a.c0 * b.c1 + a.c1 * b.c0};
}
Fp2 mul_by_xi(const Fp2& a) {
  const Fp nine = Fp::from_u64(9);
  return {nine * a.c0 - a.c1, a.c0 + nine * a.c1};
}
Fp6 mul(const Fp6& a, const Fp6& b) {  // v^3 = xi
  return {mul(a.c0, b.c0) + mul_by_xi(mul(a.c1, b.c2) + mul(a.c2, b.c1)),
          mul(a.c0, b.c1) + mul(a.c1, b.c0) + mul_by_xi(mul(a.c2, b.c2)),
          mul(a.c0, b.c2) + mul(a.c1, b.c1) + mul(a.c2, b.c0)};
}
Fp6 mul_by_v(const Fp6& a) { return {mul_by_xi(a.c2), a.c0, a.c1}; }
Fp12 mul(const Fp12& a, const Fp12& b) {  // w^2 = v
  return {mul(a.c0, b.c0) + mul_by_v(mul(a.c1, b.c1)),
          mul(a.c0, b.c1) + mul(a.c1, b.c0)};
}

}  // namespace oracle

/// Coefficients: kernel_values' set (0, 1, p - 1, the carry edges, the
/// elements whose words are those edges, and seeded random values).
class TowerOracle : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const BigUint& v : kernel_values<Fp>("tower-oracle"))
      pool_.push_back(Fp::from_u256(v.to_u256()));
  }
  Fp coeff() { return pool_[rng_.uniform(pool_.size())]; }
  Fp2 fp2() { return {coeff(), coeff()}; }
  Fp6 fp6() { return {fp2(), fp2(), fp2()}; }
  Fp12 fp12() { return {fp6(), fp6()}; }

  std::vector<Fp> pool_;
  Rng rng_{"tower-oracle-draws"};
};

TEST_F(TowerOracle, Fp2MulAndSquare) {
  // Every ordered pair of Fp2 values with coefficients from the pool.
  std::vector<Fp2> all;
  for (const Fp& x : pool_)
    for (const Fp& y : pool_) all.push_back({x, y});
  for (const Fp2& a : all) {
    ASSERT_EQ(a.squared(), oracle::mul(a, a)) << a.c0.to_u256().to_hex();
    for (const Fp2& b : all)
      ASSERT_EQ(a * b, oracle::mul(a, b))
          << a.c0.to_u256().to_hex() << " " << a.c1.to_u256().to_hex() << " * "
          << b.c0.to_u256().to_hex() << " " << b.c1.to_u256().to_hex();
  }
}

TEST_F(TowerOracle, Fp6MulAndMulBy01) {
  for (int i = 0; i < 3000; ++i) {
    const Fp6 a = fp6(), b = fp6();
    ASSERT_EQ(a * b, oracle::mul(a, b)) << i;
    ASSERT_EQ(a.mul_by_01(b.c0, b.c1),
              oracle::mul(a, Fp6{b.c0, b.c1, Fp2::zero()}))
        << i;
  }
}

TEST_F(TowerOracle, Fp12MulSquareAndMulBy34) {
  for (int i = 0; i < 600; ++i) {
    const Fp12 a = fp12(), b = fp12();
    const Fp2 d3 = fp2(), d4 = fp2();
    ASSERT_EQ(a * b, oracle::mul(a, b)) << i;
    ASSERT_EQ(a.squared(), oracle::mul(a, a)) << i;
    const Fp12 line{Fp6::one(), Fp6{d3, d4, Fp2::zero()}};
    ASSERT_EQ(a.mul_by_34(d3, d4), oracle::mul(a, line)) << i;
  }
}

TEST_F(TowerOracle, CyclotomicSquareOnEasyPartOutputs) {
  // The easy part of the final exponentiation, f^((p^6 - 1)(p^2 + 1)),
  // lands in the cyclotomic subgroup, where Granger-Scott applies.
  for (int i = 0; i < 200; ++i) {
    const Fp12 m = fp12();
    if (m.is_zero()) continue;
    Fp12 f = m.conjugate() * m.inverse();
    f = f.frobenius2() * f;
    ASSERT_EQ(f.cyclotomic_squared(), oracle::mul(f, f)) << i;
  }
}

}  // namespace
}  // namespace bnr
