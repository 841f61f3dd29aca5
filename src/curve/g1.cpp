#include "curve/g1.hpp"

namespace bnr {

G1Affine G1Curve::generator_affine() {
  static const G1Affine gen =
      G1Affine::from_xy(Fp::from_u64(1), Fp::from_u64(2));
  return gen;
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
