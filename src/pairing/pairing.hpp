// Optimal ate pairing e : G1 x G2 -> GT for BN254.
//
// Two Miller-loop implementations share the NAF(6u+2) schedule and the two
// Frobenius end-steps:
//
//  * the REFERENCE path (`miller_loop(p, q)`): affine line computation, one
//    Fp2 inversion per doubling/addition step and a dense Fp12 multiply per
//    line. Kept as the cross-check oracle and the E5 ablation baseline.
//  * the PREPARED path: `G2Prepared` precomputes every line coefficient for
//    a fixed G2 point with projective doubling/addition steps, then divides
//    each line by its y_P coefficient (one batched Fp2 inversion per table).
//    Evaluating a pairing against a prepared point is then a per-step
//    scaling by (x_P/y_P, 1/y_P) (one batched Fp inversion per product)
//    folded in with the sparse `Fp12::mul_by_34`. Projective and divided
//    lines differ from affine ones by Fp2 factors, which the final
//    exponentiation kills (Fp2* has order dividing p^6 - 1).
//
// `multi_pairing` routes through the prepared path (preparing on the fly)
// and additionally shares the Fp12 squaring chain and the final
// exponentiation across all terms — exactly the "product of four pairings"
// the paper's verifier computes (§3.1); experiment E5 quantifies the saving.
//
// Final exponentiation (p^12 - 1)/r is split into the easy part (conjugate /
// inverse / Frobenius^2) and the hard part (p^4 - p^2 + 1)/r, computed by
// the BN addition chain (three cyclotomic exponentiations by u, each a
// 62-squaring, 17-multiply addition chain, + Frobenius combines). The full
// hard-part exponent is still derived from (p, r, u) as a BigUint at
// startup and drives the ladder/generic reference paths that cross-check
// the chain.
#pragma once

#include <utility>
#include <vector>

#include "curve/g1.hpp"
#include "curve/g2.hpp"

namespace bnr {

/// GT: the r-order subgroup of Fp12*. Thin wrapper so callers do not mix
/// arbitrary Fp12 values with pairing outputs.
struct GT {
  Fp12 value = Fp12::one();

  static GT identity() { return {}; }
  bool is_identity() const { return value.is_one(); }
  bool operator==(const GT& o) const { return value == o.value; }
  bool operator!=(const GT& o) const { return !(*this == o); }
  GT operator*(const GT& o) const { return {value * o.value}; }
  GT inverse() const { return {value.inverse()}; }
  GT pow(const Fr& s) const { return {value.pow(s.to_u256())}; }
  GT pow(const U256& s) const { return {value.pow(s)}; }
};

/// One pairing pair; Q may be the identity (contributes 1 to the product).
struct PairingTerm {
  G1Affine p;
  G2Affine q;
};

/// One Miller-loop line c0*y_P + c3*x_P*w + c4*w^3 divided by c0*y_P, so
/// that it reads 1 + a*(x_P/y_P)*w + b*(1/y_P)*w^3: a = c3/c0 and b = c4/c0
/// are the P-independent coefficients stored, and the P-scaling is deferred
/// to evaluation time.
struct EllCoeffs {
  Fp2 a, b;
};

/// All Miller-loop line coefficients of a fixed G2 point, precomputed once
/// with projective steps and one batched Fp2 inversion (88 lines of 2 Fp2 on
/// BN254, 11,264 B). Pairing against a G2Prepared skips every per-step G2
/// operation; only the line *evaluations* at P remain. This is the
/// cacheable half of the verifier: g^_z, g^_r, public keys and verification
/// keys are all fixed key material. Construction throws if a line
/// degenerates (c0 = 0), which no point of G2 causes.
class G2Prepared {
 public:
  G2Prepared() = default;  // identity: contributes 1 to any product
  explicit G2Prepared(const G2Affine& q);

  bool infinity() const { return infinity_; }
  const std::vector<EllCoeffs>& coeffs() const { return coeffs_; }

  /// Heap bytes held by the line table (the dominant cost of caching a
  /// prepared point; the key-cache manager budgets on this).
  size_t line_bytes() const { return coeffs_.capacity() * sizeof(EllCoeffs); }
  /// Total resident footprint of a standalone prepared point.
  size_t footprint_bytes() const { return sizeof(*this) + line_bytes(); }

 private:
  std::vector<EllCoeffs> coeffs_;
  bool infinity_ = true;
};

/// One prepared pairing pair. `q` is non-owning; the caller (typically a
/// cached verifier object) keeps the G2Prepared alive for the call.
struct PreparedTerm {
  G1Affine p;
  const G2Prepared* q = nullptr;
};

/// Reference Miller loop (affine lines, dense Fp12 multiplies) without final
/// exponentiation. Oracle for the prepared fast path.
Fp12 miller_loop(const G1Affine& p, const G2Affine& q);

/// Prepared Miller loop: consumes precomputed line coefficients.
Fp12 miller_loop(const G1Affine& p, const G2Prepared& q);

/// Multi-Miller loop over prepared terms, sharing one Fp12 squaring chain
/// across all terms per NAF step. Terms with an identity side contribute 1;
/// the others' y_P are inverted together, so a y_P of 0 (no point of G1
/// has one) throws.
Fp12 miller_loop(std::span<const PreparedTerm> terms);

/// Final exponentiation f -> f^{(p^12-1)/r}. The hard part runs the BN
/// vectorial addition chain (three cyclotomic exponentiations by u plus
/// Frobenius combines) — exact, cross-checked against the generic path.
Fp12 final_exponentiation(const Fp12& f);

/// Ablation midpoint: cyclotomic square-and-multiply over the full
/// hard-part exponent (the previous default).
Fp12 final_exponentiation_ladder(const Fp12& f);

/// Reference implementation with generic Fp12 squarings throughout the hard
/// part; used by tests to cross-check both fast paths and by the E5
/// ablation bench.
Fp12 final_exponentiation_generic(const Fp12& f);

/// e(P, Q).
GT pairing(const G1Affine& p, const G2Affine& q);
inline GT pairing(const G1& p, const G2& q) {
  return pairing(p.to_affine(), q.to_affine());
}
GT pairing(const G1Affine& p, const G2Prepared& q);

/// prod_i e(P_i, Q_i), sharing a single final exponentiation. Prepares each
/// Q_i on the fly and runs the prepared multi-Miller loop.
GT multi_pairing(std::span<const PairingTerm> terms);
GT multi_pairing(std::span<const PreparedTerm> terms);

/// Reference evaluation of the product via the affine/dense path (per-term
/// reference Miller loops, one shared final exponentiation). Used by tests
/// to cross-check the prepared engine and by E5 as the seed baseline.
GT multi_pairing_reference(std::span<const PairingTerm> terms);

/// Convenience: true iff prod_i e(P_i, Q_i) == 1. This is the shape of every
/// verification equation in the paper.
bool pairing_product_is_one(std::span<const PairingTerm> terms);
bool pairing_product_is_one(std::span<const PreparedTerm> terms);

/// The Miller-loop scalar 6u+2 in non-adjacent form (exposed for tests).
const std::vector<int8_t>& ate_loop_naf();

}  // namespace bnr
