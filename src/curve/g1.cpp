#include "curve/g1.hpp"

#include <stdexcept>
#include <utility>

#include "bn/biguint.hpp"

namespace bnr {

G1Affine G1Curve::generator_affine() {
  static const G1Affine gen =
      G1Affine::from_xy(Fp::from_u64(1), Fp::from_u64(2));
  return gen;
}

namespace {

struct Glv {
  Fp beta;
  Fr lambda;
  // A reduced basis v1 = (a1, b1), v2 = (a2, b2) of the lattice
  // {(a, b) : a + b * lambda = 0 (mod r)} with a1 * b2 - a2 * b1 = r, in
  // two's complement mod 2^256.
  U256 a1, b1, a2, b2;
  // b1 < 0 < b2, so Babai's c1 = round(k * b2 / r) and
  // c2 = round(-k * b1 / r) are both (k * g + 2^319) >> 320, with
  // g = round(|b| * 2^320 / r). For k < r < 2^254 the shifted product is
  // within 2^254 / 2^321 = 2^-67 of k * |b| / r, so
  // |k1| <= (1/2 + 2^-67)(a1 + a2) and |k2| <= (1/2 + 2^-67)(|b1| + |b2|).
  // |b| < 2^128 keeps g below 2^195.
  U256 g1, g2;
};

U256 negated(const U256& x) {
  U256 out;
  U256::sub(U256::zero(), x, out);
  return out;
}

/// x^((q-1)/3) mod q for the first x = 2, 3, ... that is not a cube.
U256 cube_root_of_unity(const U256& modulus) {
  const BigUint q(modulus);
  const auto [e, rem] = BigUint::divmod(q - BigUint(1), BigUint(3));
  if (!rem.is_zero()) throw std::logic_error("glv: 3 does not divide q - 1");
  for (uint64_t x = 2;; ++x) {
    const BigUint w = BigUint::mod_pow(BigUint(x), e, q);
    if (!w.is_one()) return w.to_u256();
  }
}

// Runs once; cold keeps the curve arithmetic it calls out of line.
[[gnu::cold]] Glv derive_glv() {
  Glv g;
  g.beta = Fp::from_u256(cube_root_of_unity(FpTag::kModulus));
  g.lambda = Fr::from_u256(cube_root_of_unity(FrTag::kModulus));
  // phi multiplies G by lambda or by the other root, lambda^2.
  const G1Affine gen = G1Curve::generator_affine();
  const G1Affine phi_gen = G1Affine::from_xy(g.beta * gen.x, gen.y);
  auto times_gen = [](const Fr& k) { return G1::generator().mul(k).to_affine(); };
  if (!(times_gen(g.lambda) == phi_gen)) g.lambda = g.lambda.squared();
  if (!(times_gen(g.lambda) == phi_gen))
    throw std::logic_error("glv: phi(G) is not a multiple of G");

  // Extended Euclid on (r, lambda) (Guide to Elliptic Curve Cryptography,
  // Alg. 3.74): r_i = s_i * r + t_i * lambda, so (r_i, -t_i) lies in the
  // lattice. The t_i alternate in sign from t_1 = 1, so -t_i < 0 exactly
  // for odd i, and t holds |t_i|. Stop at the first i = m + 1 with
  // r_i < sqrt(r); r is prime, so r_{m+2} exists.
  const BigUint r(FrTag::kModulus);
  BigUint r0 = r, r1(g.lambda.to_u256()), t0(0), t1(1);
  size_t i = 1;  // the index of r1
  auto step = [&] {
    auto [q, rem] = BigUint::divmod(r0, r1);
    BigUint t = t0 + q * t1;
    r0 = std::exchange(r1, std::move(rem));
    t0 = std::exchange(t1, std::move(t));
    ++i;
  };
  while (r1 * r1 >= r) step();
  struct Vec {  // (a, b) with a >= 0 and b = (b_neg ? -1 : 1) * |b|
    BigUint a, b;
    bool b_neg;
  };
  Vec v1{r1, t1, i % 2 == 1}, v2{r0, t0, i % 2 == 0};  // rows m + 1, m
  step();
  const Vec v3{r1, t1, i % 2 == 1};  // row m + 2
  auto norm = [](const Vec& v) { return v.a * v.a + v.b * v.b; };
  if (norm(v3) < norm(v2)) v2 = v3;
  // Adjacent rows, so b1 and b2 differ in sign; with b1 < 0 < b2,
  // a1 * b2 - a2 * b1 = a1 * |b2| + a2 * |b1|, which must be r.
  if (v2.b_neg) std::swap(v1, v2);
  if (!v1.b_neg || v2.b_neg || !(v1.a * v2.b + v2.a * v1.b == r))
    throw std::logic_error("glv: basis does not span the lattice");
  const BigUint half_range = BigUint(1) << 128;
  if (v1.a + v2.a >= half_range || v1.b + v2.b >= half_range)
    throw std::logic_error("glv: basis too long for 128-bit halves");

  g.a1 = v1.a.to_u256();
  g.b1 = negated(v1.b.to_u256());
  g.a2 = v2.a.to_u256();
  g.b2 = v2.b.to_u256();
  auto rounding = [&](const BigUint& b) {
    return (((b << 320) + (r >> 1)) / r).to_u256();
  };
  g.g1 = rounding(v2.b);  // c1 = round(k * b2 / r): b2 > 0
  g.g2 = rounding(v1.b);  // c2 = round(-k * b1 / r): b1 < 0
  return g;
}

const Glv& glv() {
  static const Glv g = derive_glv();
  return g;
}

/// The 512-bit product a * b, least significant limb first.
std::array<uint64_t, 8> mul_wide(const U256& a, const U256& b) {
  std::array<uint64_t, 8> out{};
  for (size_t i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (size_t j = 0; j < 4; ++j) {
      const unsigned __int128 cur =
          (unsigned __int128)a.w[i] * b.w[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    out[i + 4] = static_cast<uint64_t>(carry);
  }
  return out;
}

/// a * b mod 2^256, which is also the two's-complement product.
U256 mul_lo(const U256& a, const U256& b) {
  const auto p = mul_wide(a, b);
  return U256{{p[0], p[1], p[2], p[3]}};
}

/// (k * g + 2^319) >> 320 for k * g < 2^511.
U256 round_shift_320(const U256& k, const U256& g) {
  auto p = mul_wide(k, g);
  Carry c = addc(0, p[4], uint64_t(1) << 63, p[4]);
  for (size_t i = 5; i < 8; ++i) c = addc(c, p[i], 0, p[i]);
  return U256{{p[5], p[6], p[7], 0}};
}

}  // namespace

template void G1::batch_to_affine(std::span<const G1>, std::span<G1Affine>);
template G1 detail::msm_straus<G1Curve>(std::span<const G1Affine>,
                                        std::span<const U256>);

const Fp& G1Curve::glv_beta() { return glv().beta; }
const Fr& G1Curve::glv_lambda() { return glv().lambda; }

GlvSplit G1Curve::glv_split(const U256& k) {
  const Glv& g = glv();
  const U256 c1 = round_shift_320(k, g.g1), c2 = round_shift_320(k, g.g2);
  // (k1, k2) = (k, 0) - c1 * v1 - c2 * v2. Both halves lie in
  // (-2^128, 2^128), so arithmetic mod 2^256 gives them exactly.
  U256 k1 = k, k2;
  U256::sub(k1, mul_lo(c1, g.a1), k1);
  U256::sub(k1, mul_lo(c2, g.a2), k1);
  U256::sub(k2, mul_lo(c1, g.b1), k2);
  U256::sub(k2, mul_lo(c2, g.b2), k2);
  GlvSplit s;
  s.k1_neg = (k1.w[3] >> 63) != 0;
  s.k2_neg = (k2.w[3] >> 63) != 0;
  s.k1 = s.k1_neg ? negated(k1) : k1;
  s.k2 = s.k2_neg ? negated(k2) : k2;
  return s;
}

void g1_serialize(const G1Affine& p, ByteWriter& w) {
  if (p.infinity) {
    w.u8(0);
    std::array<uint8_t, 32> zero{};
    w.raw(zero);
    return;
  }
  w.u8(p.y.is_odd() ? 3 : 2);
  w.raw(p.x.to_bytes_be());
}

G1Affine g1_deserialize(ByteReader& r) {
  uint8_t tag = r.u8();
  auto xbytes = r.raw(32);
  if (tag == 0) {
    // The identity has exactly one encoding: tag 0 and 32 zero bytes.
    for (uint8_t b : xbytes)
      if (b != 0) throw std::invalid_argument("g1_deserialize: bad identity");
    return G1Affine::identity();
  }
  if (tag != 2 && tag != 3)
    throw std::invalid_argument("g1_deserialize: bad tag");
  Fp x = Fp::from_bytes_be(xbytes);
  Fp rhs = x.squared() * x + G1Curve::coeff_b();
  auto y = rhs.sqrt();
  if (!y) throw std::invalid_argument("g1_deserialize: x not on curve");
  Fp yy = *y;
  if (yy.is_odd() != (tag == 3)) yy = -yy;
  return G1Affine::from_xy(x, yy);
}

Bytes g1_to_bytes(const G1Affine& p) {
  ByteWriter w;
  g1_serialize(p, w);
  return w.take();
}

G1Affine g1_from_bytes(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  return g1_deserialize(r);
}

}  // namespace bnr
