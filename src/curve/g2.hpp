// G2: the r-order subgroup of E'(Fp2), E': y^2 = x^3 + 3/(9+u) — the sextic
// D-twist of BN254. The twist cofactor is 2p - r.
#pragma once

#include "common/serde.hpp"
#include "curve/point.hpp"
#include "field/tower.hpp"

namespace bnr {

struct G2Curve {
  using Field = Fp2;
  static Fp2 coeff_b();
  static AffinePoint<G2Curve> generator_affine();
};

using G2Affine = AffinePoint<G2Curve>;
using G2 = JacobianPoint<G2Curve>;

// batch_to_affine and both of msm's paths are compiled once, in g2.cpp,
// not in every caller.
extern template void G2::batch_to_affine(std::span<const G2>,
                                         std::span<G2Affine>);
extern template G2 detail::msm_straus<G2Curve>(std::span<const G2Affine>,
                                               std::span<const U256>);
extern template G2 detail::msm_pippenger<G2Curve>(std::span<const G2Affine>,
                                                  std::span<const U256>);

/// Compressed: 1 tag byte + 64-byte x (c0 || c1); the infinity's (tag 0) x
/// bytes must be zero.
constexpr size_t kG2CompressedSize = 65;

void g2_serialize(const G2Affine& p, ByteWriter& w);
G2Affine g2_deserialize(ByteReader& r);
Bytes g2_to_bytes(const G2Affine& p);
inline Bytes g2_to_bytes(const G2& p) { return g2_to_bytes(p.to_affine()); }
G2Affine g2_from_bytes(std::span<const uint8_t> bytes);

/// Multiplies a twist-curve point by the G2 cofactor 2p - r.
G2 g2_clear_cofactor(const G2& p);

/// True iff p lies in the r-order subgroup (r * p == identity).
bool g2_in_subgroup(const G2Affine& p);

}  // namespace bnr
