#include "curve/g1.hpp"

#include <stdexcept>

namespace bnr {

G1Affine G1Curve::generator_affine() {
  static const G1Affine gen =
      G1Affine::from_xy(Fp::from_u64(1), Fp::from_u64(2));
  return gen;
}

namespace {

U256 negated(const U256& x) {
  U256 out;
  U256::sub(U256::zero(), x, out);
  return out;
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
template G1 detail::msm_pippenger<G1Curve>(std::span<const G1Affine>,
                                           std::span<const U256>);

const Fp& G1Curve::glv_beta() {
  static const Fp beta = Fp::from_u256(
      U256{{0xe4bd44e5607cfd48ull, 0xc28f069fbb966e3dull,
            0x5e6dd9e7e0acccb0ull, 0x30644e72e131a029ull}});
  return beta;
}

const Fr& G1Curve::glv_lambda() {
  static const Fr lambda = Fr::from_u256(
      U256{{0xb8ca0b2d36636f23ull, 0xcc37a73fec2bc5e9ull,
            0x048b6e193fd84104ull, 0x30644e72e131a029ull}});
  return lambda;
}

GlvSplit G1Curve::glv_split(const U256& k) {
  // b1 < 0 < b2, so Babai's c1 = round(k * b2 / r) and
  // c2 = round(-k * b1 / r) are both (k * g + 2^319) >> 320. For
  // k < r < 2^254 the shifted product is within 2^254 / 2^321 = 2^-67 of
  // k * |b| / r, so |k1| <= (1/2 + 2^-67)(a1 + a2) and
  // |k2| <= (1/2 + 2^-67)(|b1| + |b2|). |b| < 2^128 keeps g below 2^195.
  const GlvBasis& g = kGlvBasis;
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
