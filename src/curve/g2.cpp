#include "curve/g2.hpp"

#include "bn/biguint.hpp"

namespace bnr {

Fp2 G2Curve::coeff_b() {
  static const Fp2 b =
      Fp2::from_fp(Fp::from_u64(3)) * Fp2::xi().inverse();
  return b;
}

template void G2::batch_to_affine(std::span<const G2>, std::span<G2Affine>);
template G2 detail::msm_straus<G2Curve>(std::span<const G2Affine>,
                                        std::span<const U256>);

G2Affine G2Curve::generator_affine() {
  // Standard BN254 G2 generator (EIP-197 encoding order: (x_c0, x_c1, y_c0, y_c1)).
  static const G2Affine gen = G2Affine::from_xy(
      Fp2{Fp::from_dec("10857046999023057135944570762232829481370756359578518"
                       "086990519993285655852781"),
          Fp::from_dec("11559732032986387107991004021392285783925812861821192"
                       "530917403151452391805634")},
      Fp2{Fp::from_dec("84956539231234314176049732474892724384181905872636001"
                       "48770280649306958101930"),
          Fp::from_dec("40823678758634336813322034031454355683168513275934012"
                       "08105741076214120093531")});
  return gen;
}

namespace {
const std::vector<uint64_t>& cofactor_limbs() {
  static const std::vector<uint64_t> limbs = [] {
    BigUint p(FpTag::kModulus);
    BigUint r(FrTag::kModulus);
    BigUint h = (p << 1) - r;  // 2p - r
    return std::vector<uint64_t>(h.limbs().begin(), h.limbs().end());
  }();
  return limbs;
}
}  // namespace

G2 g2_clear_cofactor(const G2& p) { return p.mul_limbs(cofactor_limbs()); }

bool g2_in_subgroup(const G2Affine& p) {
  if (p.infinity) return true;
  if (!p.on_curve()) return false;
  return G2::from_affine(p).mul(FrTag::kModulus).is_identity();
}

void g2_serialize(const G2Affine& p, ByteWriter& w) {
  if (p.infinity) {
    w.u8(0);
    std::array<uint8_t, 64> zero{};
    w.raw(zero);
    return;
  }
  // Sign bit: parity of y.c0, or of y.c1 when y.c0 == 0.
  bool odd = p.y.c0.is_zero() ? p.y.c1.is_odd() : p.y.c0.is_odd();
  w.u8(odd ? 3 : 2);
  w.raw(p.x.c0.to_bytes_be());
  w.raw(p.x.c1.to_bytes_be());
}

G2Affine g2_deserialize(ByteReader& r) {
  uint8_t tag = r.u8();
  auto c0 = r.raw(32);
  auto c1 = r.raw(32);
  if (tag == 0) {
    // The identity has exactly one encoding: tag 0 and 64 zero bytes.
    for (auto half : {c0, c1})
      for (uint8_t b : half)
        if (b != 0)
          throw std::invalid_argument("g2_deserialize: bad identity");
    return G2Affine::identity();
  }
  if (tag != 2 && tag != 3)
    throw std::invalid_argument("g2_deserialize: bad tag");
  Fp2 x{Fp::from_bytes_be(c0), Fp::from_bytes_be(c1)};
  Fp2 rhs = x.squared() * x + G2Curve::coeff_b();
  auto y = rhs.sqrt();
  if (!y) throw std::invalid_argument("g2_deserialize: x not on curve");
  Fp2 yy = *y;
  bool odd = yy.c0.is_zero() ? yy.c1.is_odd() : yy.c0.is_odd();
  if (odd != (tag == 3)) yy = -yy;
  return G2Affine::from_xy(x, yy);
}

Bytes g2_to_bytes(const G2Affine& p) {
  ByteWriter w;
  g2_serialize(p, w);
  return w.take();
}

G2Affine g2_from_bytes(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  return g2_deserialize(r);
}

}  // namespace bnr
