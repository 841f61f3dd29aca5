// G1 = E(Fp), E: y^2 = x^3 + 3 (BN254 / alt_bn128). Cofactor 1, so every
// curve point is in the r-order group.
#pragma once

#include "common/serde.hpp"
#include "curve/point.hpp"

namespace bnr {

struct G1Curve {
  using Field = Fp;
  static Fp coeff_b() { return Fp::from_u64(3); }
  static AffinePoint<G1Curve> generator_affine();
};

using G1Affine = AffinePoint<G1Curve>;
using G1 = JacobianPoint<G1Curve>;

/// Compressed: 1 tag byte (0 = infinity, 2|3 = y parity) + 32-byte x; the
/// infinity's x bytes must be zero.
constexpr size_t kG1CompressedSize = 33;

void g1_serialize(const G1Affine& p, ByteWriter& w);
G1Affine g1_deserialize(ByteReader& r);
Bytes g1_to_bytes(const G1Affine& p);
inline Bytes g1_to_bytes(const G1& p) { return g1_to_bytes(p.to_affine()); }
G1Affine g1_from_bytes(std::span<const uint8_t> bytes);

}  // namespace bnr
