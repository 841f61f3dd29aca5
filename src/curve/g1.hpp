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
  // unity lambda mod r. The constants below were printed once from their
  // derivation (cube roots of unity, then extended Euclid on (r, lambda));
  // tests/test_curve.cpp (Glv.*) checks every property glv_split uses.

  /// beta, paired with glv_lambda() so that phi(G) = lambda * G.
  static const Fp& glv_beta();
  static const Fr& glv_lambda();

  /// A reduced basis v1 = (a1, b1), v2 = (a2, b2) of the lattice
  /// {(a, b) : a + b * lambda = 0 (mod r)}, with a1 * b2 - a2 * b1 = r,
  /// b1 < 0 < b2 (two's complement mod 2^256) and |a1| + |a2|,
  /// |b1| + |b2| < 2^128; and Babai's rounding constants
  /// g1 = round(b2 * 2^320 / r), g2 = round(-b1 * 2^320 / r).
  struct GlvBasis {
    U256 a1, b1, a2, b2, g1, g2;
  };
  static constexpr GlvBasis kGlvBasis{
      U256{{0x8211bbeb7d4f1128ull, 0x6f4d8248eeb859fcull, 0, 0}},
      U256{{0x762cda976b2dec1dull, ~0ull, ~0ull, ~0ull}},
      U256{{0x89d3256894d213e3ull, 0, 0, 0}},
      U256{{0x0be4e1541221250bull, 0x6f4d8248eeb859fdull, 0, 0}},
      U256{{0x149d540fd5e495ccull, 0x5398fd0300ff6565ull,
            0x4ccef014a773d2d2ull, 0x0000000000000002ull}},
      U256{{0x6eb9c714773a6ef3ull, 0xd91d232ec7e0b3d7ull,
            0x0000000000000002ull, 0}},
  };

  /// k = k1 + k2 * lambda (mod r) for k < r, with |k1|, |k2| < 2^128: k
  /// minus the lattice vector nearest (k, 0) by Babai rounding in
  /// kGlvBasis.
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
