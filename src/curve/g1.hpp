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

  // msm's GLV hook (detail::GlvCurve in point.hpp). With beta a cube root
  // of unity in Fp, phi(x, y) = (beta * x, y) is a group endomorphism, so
  // on a prime-order group it multiplies every point by one cube root of
  // unity lambda mod r. beta, lambda and the lattice reduction below are
  // derived once, at first use, not transcribed.

  /// beta, paired with glv_lambda() so that phi(G) = lambda * G.
  static const Fp& glv_beta();
  static const Fr& glv_lambda();
  /// k = k1 + k2 * lambda (mod r) for k < r, with |k1|, |k2| < 2^128: k
  /// minus the lattice vector nearest (k, 0) by Babai rounding, in a
  /// reduced basis of {(a, b) : a + b * lambda = 0 (mod r)}.
  static GlvSplit glv_split(const U256& k);
};

using G1Affine = AffinePoint<G1Curve>;
using G1 = JacobianPoint<G1Curve>;

// batch_to_affine and msm's small-MSM path are compiled once, in g1.cpp,
// not in every caller.
extern template void G1::batch_to_affine(std::span<const G1>,
                                         std::span<G1Affine>);
extern template G1 detail::msm_straus<G1Curve>(std::span<const G1Affine>,
                                               std::span<const U256>);

/// Compressed: 1 tag byte (0 = infinity, 2|3 = y parity) + 32-byte x; the
/// infinity's x bytes must be zero.
constexpr size_t kG1CompressedSize = 33;

void g1_serialize(const G1Affine& p, ByteWriter& w);
G1Affine g1_deserialize(ByteReader& r);
Bytes g1_to_bytes(const G1Affine& p);
inline Bytes g1_to_bytes(const G1& p) { return g1_to_bytes(p.to_affine()); }
G1Affine g1_from_bytes(std::span<const uint8_t> bytes);

}  // namespace bnr
