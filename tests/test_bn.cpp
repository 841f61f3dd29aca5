// Unit + property tests for U256 and BigUint, including the BN254 parameter
// identities that tie the hardcoded moduli to the curve parameter u.
#include <gtest/gtest.h>

#include "bn/biguint.hpp"
#include "bn/u256.hpp"
#include "common/rng.hpp"
#include "field/fp.hpp"

namespace bnr {
namespace {

TEST(U256, DecParseMatchesHexModulus) {
  U256 p = U256::from_dec(
      "21888242871839275222246405745257275088696311157297823662689037894645226"
      "208583");
  EXPECT_EQ(p, FpTag::kModulus);
  U256 r = U256::from_dec(
      "21888242871839275222246405745257275088548364400416034343698204186575808"
      "495617");
  EXPECT_EQ(r, FrTag::kModulus);
}

TEST(U256, HexParse) {
  EXPECT_EQ(U256::from_hex(
                "0x30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87c"
                "fd47"),
            FpTag::kModulus);
}

TEST(U256, BytesRoundTrip) {
  Rng rng("u256-bytes");
  for (int i = 0; i < 50; ++i) {
    std::array<uint8_t, 32> buf;
    rng.fill(buf);
    U256 v = U256::from_bytes_be(buf);
    EXPECT_EQ(v.to_bytes_be(), buf);
  }
}

TEST(U256, AddSubInverse) {
  Rng rng("u256-addsub");
  for (int i = 0; i < 100; ++i) {
    std::array<uint8_t, 32> ab, bb;
    rng.fill(ab);
    rng.fill(bb);
    U256 a = U256::from_bytes_be(ab), b = U256::from_bytes_be(bb);
    U256 sum, back;
    uint64_t carry = U256::add(a, b, sum);
    uint64_t borrow = U256::sub(sum, b, back);
    // (a + b) - b == a, and carry/borrow agree.
    EXPECT_EQ(carry, borrow);
    EXPECT_EQ(back, a);
  }
}

TEST(U256, CarryAndBorrowOutOnAllOnesLimbs) {
  constexpr uint64_t kOnes = ~uint64_t(0);
  const U256 ones{{kOnes, kOnes, kOnes, kOnes}};
  U256 out;
  EXPECT_EQ(U256::add(ones, U256::one(), out), 1u);
  EXPECT_EQ(out, U256::zero());
  EXPECT_EQ(U256::add(ones, ones, out), 1u);
  EXPECT_EQ(out, (U256{{kOnes - 1, kOnes, kOnes, kOnes}}));
  EXPECT_EQ(U256::sub(U256::zero(), U256::one(), out), 1u);
  EXPECT_EQ(out, ones);
  EXPECT_EQ(U256::sub(U256::zero(), ones, out), 1u);
  EXPECT_EQ(out, U256::one());
  EXPECT_EQ(U256::sub(ones, ones, out), 0u);
  EXPECT_EQ(out, U256::zero());
  // A carry or borrow that crosses three limbs stops in the fourth.
  const U256 low3{{kOnes, kOnes, kOnes, 0}}, top{{0, 0, 0, 1}};
  EXPECT_EQ(U256::add(low3, U256::one(), out), 0u);
  EXPECT_EQ(out, top);
  EXPECT_EQ(U256::sub(top, U256::one(), out), 0u);
  EXPECT_EQ(out, low3);
  // In place, as Mont::is_square calls it.
  out = ones;
  EXPECT_EQ(U256::add(out, U256::one(), out), 1u);
  EXPECT_EQ(out, U256::zero());
  // The single-limb links with a carry or borrow in.
  uint64_t limb = 0;
  EXPECT_EQ(addc(1, kOnes, kOnes, limb), 1);
  EXPECT_EQ(limb, kOnes);
  EXPECT_EQ(addc(1, kOnes, 0, limb), 1);
  EXPECT_EQ(limb, 0u);
  EXPECT_EQ(subb(1, 0, kOnes, limb), 1);
  EXPECT_EQ(limb, 0u);
  EXPECT_EQ(subb(1, kOnes, kOnes, limb), 1);
  EXPECT_EQ(limb, kOnes);
}

// Constant evaluation takes the portable formula (the carry intrinsics are
// not constexpr); it must agree with the run-time chains tested above.
static_assert([] {
  constexpr uint64_t kOnes = ~uint64_t(0);
  const U256 ones{{kOnes, kOnes, kOnes, kOnes}};
  U256 sum, diff;
  uint64_t limb = 0;
  return U256::add(ones, ones, sum) == 1 &&
         sum == U256{{kOnes - 1, kOnes, kOnes, kOnes}} &&
         U256::sub(U256::zero(), ones, diff) == 1 && diff == U256::one() &&
         addc(1, kOnes, kOnes, limb) == 1 && limb == kOnes &&
         subb(1, kOnes, kOnes, limb) == 1 && limb == kOnes;
}());

TEST(U256, BitLength) {
  EXPECT_EQ(U256::zero().bit_length(), 0u);
  EXPECT_EQ(U256::one().bit_length(), 1u);
  EXPECT_EQ(U256::from_u64(0x8000000000000000ull).bit_length(), 64u);
  EXPECT_EQ(FpTag::kModulus.bit_length(), 254u);
}

TEST(U256, ShiftsAndBitFieldsCrossLimbs) {
  const U256 v{{0x0123456789abcdefull, 0xfedcba9876543210ull,
                0x0f0f0f0f0f0f0f0full, 0x8000000000000001ull}};
  // shr(s) agrees with s single-bit shifts, across and at limb boundaries.
  for (unsigned s : {0u, 1u, 5u, 63u, 64u, 65u, 128u, 191u, 200u, 255u}) {
    U256 expect = v;
    for (unsigned i = 0; i < s; ++i) expect = expect.shr1();
    EXPECT_EQ(v.shr(s), expect) << s;
    EXPECT_EQ(v.bits(s, 5), expect.w[0] & 31) << s;
  }
  EXPECT_EQ(v.bits(62, 5), 0x1fu & ((v.w[0] >> 62) | (v.w[1] << 2)));
  EXPECT_EQ(U256::zero().countr_zero(), 256u);
  EXPECT_EQ(U256::one().countr_zero(), 0u);
  const U256 bit131{{0, 0, 8, 0}};
  EXPECT_EQ(bit131.countr_zero(), 131u);
}

TEST(BigUint, BnParameterIdentities) {
  // p = 36u^4 + 36u^3 + 24u^2 + 6u + 1, r = 36u^4 + 36u^3 + 18u^2 + 6u + 1,
  // with u = 4965661367192848881. This pins the transcribed moduli to the
  // published curve parameter.
  BigUint u(4965661367192848881ull);
  BigUint u2 = u * u;
  BigUint u3 = u2 * u;
  BigUint u4 = u2 * u2;
  BigUint c36(36), c24(24), c18(18), c6(6), c1(1);
  BigUint p = c36 * u4 + c36 * u3 + c24 * u2 + c6 * u + c1;
  BigUint r = c36 * u4 + c36 * u3 + c18 * u2 + c6 * u + c1;
  EXPECT_EQ(p, BigUint(FpTag::kModulus));
  EXPECT_EQ(r, BigUint(FrTag::kModulus));
  // Trace: t = 6u^2 + 1 and #E(Fp) = p + 1 - t = r.
  BigUint t = c6 * u2 + c1;
  EXPECT_EQ(p + c1 - t, r);
}

TEST(BigUint, DivModBasic) {
  BigUint a = BigUint::from_dec("123456789012345678901234567890123456789");
  BigUint b = BigUint::from_dec("98765432109876543210");
  auto [q, rem] = BigUint::divmod(a, b);
  EXPECT_EQ(q * b + rem, a);
  EXPECT_TRUE(rem < b);
}

TEST(BigUint, DivModRandomizedReconstruction) {
  Rng rng("biguint-divmod");
  for (int i = 0; i < 200; ++i) {
    size_t abits = 64 + rng.uniform(700);
    size_t bbits = 2 + rng.uniform(abits);
    BigUint a = BigUint::random_bits(rng, abits);
    BigUint b = BigUint::random_bits(rng, bbits);
    auto [q, rem] = BigUint::divmod(a, b);
    EXPECT_EQ(q * b + rem, a);
    EXPECT_TRUE(rem < b);
  }
}

TEST(BigUint, DivModKnuthAddBackEdge) {
  // Exercises the rare "add back" branch: numerator crafted so qhat
  // overestimates. Classic trigger: v with high limb 0x8000... and u close
  // below a multiple.
  BigUint v = (BigUint(1) << 127) + BigUint(1);
  BigUint u = (v * BigUint::from_hex("ffffffffffffffff")) - BigUint(1);
  auto [q, rem] = BigUint::divmod(u, v);
  EXPECT_EQ(q * v + rem, u);
  EXPECT_TRUE(rem < v);
}

TEST(BigUint, ShiftsInverse) {
  Rng rng("biguint-shift");
  for (int i = 0; i < 50; ++i) {
    BigUint a = BigUint::random_bits(rng, 300);
    size_t s = rng.uniform(200);
    EXPECT_EQ((a << s) >> s, a);
  }
}

TEST(BigUint, SubUnderflowThrows) {
  EXPECT_THROW(BigUint(1) - BigUint(2), std::underflow_error);
}

TEST(BigUint, DivisionByZeroThrows) {
  EXPECT_THROW(BigUint::divmod(BigUint(1), BigUint()), std::domain_error);
}

TEST(BigUint, ModPowFermat) {
  // a^(p-1) = 1 mod p for prime p.
  BigUint p = BigUint::from_dec("1000000007");
  Rng rng("fermat");
  for (int i = 0; i < 20; ++i) {
    BigUint a = BigUint::random_below(rng, p - BigUint(2)) + BigUint(1);
    EXPECT_TRUE(BigUint::mod_pow(a, p - BigUint(1), p).is_one());
  }
}

TEST(BigUint, ModInverse) {
  Rng rng("modinv");
  BigUint p(FpTag::kModulus);
  for (int i = 0; i < 30; ++i) {
    BigUint a = BigUint::random_below(rng, p - BigUint(1)) + BigUint(1);
    BigUint inv = BigUint::mod_inverse(a, p);
    EXPECT_TRUE(BigUint::mod_mul(a, inv, p).is_one());
  }
  EXPECT_THROW(BigUint::mod_inverse(BigUint(6), BigUint(9)),
               std::domain_error);
}

TEST(BigUint, MillerRabinKnownValues) {
  Rng rng("mr");
  EXPECT_TRUE(BigUint::is_probable_prime(BigUint(2), rng));
  EXPECT_TRUE(BigUint::is_probable_prime(BigUint(3), rng));
  EXPECT_FALSE(BigUint::is_probable_prime(BigUint(1), rng));
  EXPECT_FALSE(BigUint::is_probable_prime(BigUint(561), rng));   // Carmichael
  EXPECT_FALSE(BigUint::is_probable_prime(BigUint(41041), rng)); // Carmichael
  EXPECT_TRUE(BigUint::is_probable_prime(BigUint(2147483647ull), rng));
  EXPECT_TRUE(BigUint::is_probable_prime(BigUint(FpTag::kModulus), rng, 8));
  EXPECT_TRUE(BigUint::is_probable_prime(BigUint(FrTag::kModulus), rng, 8));
  EXPECT_FALSE(BigUint::is_probable_prime(
      BigUint(FpTag::kModulus) * BigUint(FrTag::kModulus), rng, 8));
}

TEST(BigUint, RandomPrimeHasRequestedSize) {
  Rng rng("prime-gen");
  BigUint p = BigUint::random_prime(rng, 128);
  EXPECT_EQ(p.bit_length(), 128u);
  EXPECT_TRUE(BigUint::is_probable_prime(p, rng));
}

TEST(BigUint, SafePrime) {
  Rng rng("safe-prime");
  BigUint p = BigUint::random_safe_prime(rng, 96);
  EXPECT_EQ(p.bit_length(), 96u);
  EXPECT_TRUE(BigUint::is_probable_prime(p, rng));
  BigUint q = (p - BigUint(1)) >> 1;
  EXPECT_TRUE(BigUint::is_probable_prime(q, rng));
}

TEST(BigUint, Factorial) {
  EXPECT_EQ(BigUint::factorial(0), BigUint(1));
  EXPECT_EQ(BigUint::factorial(5), BigUint(120));
  EXPECT_EQ(BigUint::factorial(20), BigUint(2432902008176640000ull));
  EXPECT_EQ(BigUint::factorial(25).to_dec(), "15511210043330985984000000");
}

TEST(BigUint, DecHexRoundTrip) {
  Rng rng("dec-hex");
  for (int i = 0; i < 20; ++i) {
    BigUint a = BigUint::random_bits(rng, 20 + rng.uniform(500));
    EXPECT_EQ(BigUint::from_dec(a.to_dec()), a);
    EXPECT_EQ(BigUint::from_hex(a.to_hex()), a);
  }
}

TEST(BigUint, BytesPadded) {
  BigUint v = BigUint::from_hex("0102030405");
  Bytes padded = v.to_bytes_be_padded(8);
  EXPECT_EQ(to_hex(padded), "0000000102030405");
  EXPECT_EQ(BigUint::from_bytes_be(padded), v);
}

TEST(BigUint, Gcd) {
  EXPECT_EQ(BigUint::gcd(BigUint(48), BigUint(36)), BigUint(12));
  EXPECT_EQ(BigUint::gcd(BigUint(17), BigUint(13)), BigUint(1));
  EXPECT_EQ(BigUint::gcd(BigUint(), BigUint(7)), BigUint(7));
}

}  // namespace
}  // namespace bnr
