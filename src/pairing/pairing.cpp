#include "pairing/pairing.hpp"

#include <stdexcept>

#include "bn/biguint.hpp"

namespace bnr {

namespace {

// BN254 curve parameter: p = 36u^4+36u^3+24u^2+6u+1, r = 36u^4+36u^3+18u^2+6u+1.
constexpr uint64_t kBnU = 4965661367192848881ull;

std::vector<int8_t> compute_naf(unsigned __int128 s) {
  std::vector<int8_t> digits;
  while (s != 0) {
    if (s & 1) {
      int8_t d = static_cast<int8_t>(2 - static_cast<int>(s & 3));  // +-1
      digits.push_back(d);
      if (d == 1)
        s -= 1;
      else
        s += 1;
    } else {
      digits.push_back(0);
    }
    s >>= 1;
  }
  return digits;  // LSB first
}

// Sparse line value a + b*w + c*w^3 (a in Fp embedded in Fp2).
struct Line {
  Fp2 a, b, c;

  Fp12 to_fp12() const {
    return Fp12{Fp6{a, Fp2::zero(), Fp2::zero()}, Fp6{b, c, Fp2::zero()}};
  }
};

struct G2AffineXY {
  Fp2 x, y;
};

// Doubling step: updates T <- 2T, returns the tangent line evaluated at P.
Line line_double(G2AffineXY& t, const G1Affine& p) {
  Fp2 xx = t.x.squared();
  Fp2 slope = (xx + xx + xx) * (t.y + t.y).inverse();  // 3x^2 / 2y
  Fp2 x3 = slope.squared() - t.x - t.x;
  Fp2 y3 = slope * (t.x - x3) - t.y;
  Line l;
  l.a = Fp2::from_fp(p.y);
  l.b = -(slope.mul_fp(p.x));
  l.c = slope * t.x - t.y;
  t.x = x3;
  t.y = y3;
  return l;
}

// Addition step: updates T <- T + Q, returns the chord line evaluated at P.
Line line_add(G2AffineXY& t, const G2AffineXY& q, const G1Affine& p) {
  if (t.x == q.x) throw std::logic_error("miller loop: degenerate addition");
  Fp2 slope = (q.y - t.y) * (q.x - t.x).inverse();
  Fp2 x3 = slope.squared() - t.x - q.x;
  Fp2 y3 = slope * (t.x - x3) - t.y;
  Line l;
  l.a = Fp2::from_fp(p.y);
  l.b = -(slope.mul_fp(p.x));
  l.c = slope * t.x - t.y;
  t.x = x3;
  t.y = y3;
  return l;
}

const std::vector<uint64_t>& hard_part_exponent() {
  static const std::vector<uint64_t> limbs = [] {
    BigUint p(FpTag::kModulus);
    BigUint r(FrTag::kModulus);
    BigUint p2 = p * p;
    BigUint p4 = p2 * p2;
    BigUint phi12 = p4 - p2 + BigUint(1);
    auto [d, rem] = BigUint::divmod(phi12, r);
    if (!rem.is_zero())
      throw std::logic_error("pairing: r does not divide p^4 - p^2 + 1");
    return std::vector<uint64_t>(d.limbs().begin(), d.limbs().end());
  }();
  return limbs;
}

}  // namespace

const std::vector<int8_t>& ate_loop_naf() {
  static const std::vector<int8_t> naf =
      compute_naf(6 * static_cast<unsigned __int128>(kBnU) + 2);
  return naf;
}

Fp12 miller_loop(const G1Affine& p, const G2Affine& q) {
  if (p.infinity || q.infinity) return Fp12::one();
  const auto& naf = ate_loop_naf();
  const auto& fc = frobenius_constants();

  G2AffineXY base{q.x, q.y};
  G2AffineXY neg_base{q.x, -q.y};
  G2AffineXY t = base;
  Fp12 f = Fp12::one();

  for (size_t i = naf.size() - 1; i-- > 0;) {
    f = f.squared() * line_double(t, p).to_fp12();
    if (naf[i] == 1)
      f = f * line_add(t, base, p).to_fp12();
    else if (naf[i] == -1)
      f = f * line_add(t, neg_base, p).to_fp12();
  }

  // Frobenius end-steps: Q1 = pi(Q), Q2 = pi^2(Q); f *= l_{T,Q1} * l_{T+Q1,-Q2}.
  G2AffineXY q1{q.x.conjugate() * fc.twist_x, q.y.conjugate() * fc.twist_y};
  G2AffineXY q2{q.x.mul_fp(fc.twist2_x), q.y.mul_fp(fc.twist2_y)};
  G2AffineXY neg_q2{q2.x, -q2.y};
  f = f * line_add(t, q1, p).to_fp12();
  f = f * line_add(t, neg_q2, p).to_fp12();
  return f;
}

// ---------------------------------------------------------------------------
// Prepared path: projective line precomputation + sparse evaluation.

namespace {

// Homogeneous projective G2 accumulator (x = X/Z, y = Y/Z).
struct G2Projective {
  Fp2 x, y, z;
};

const Fp& half() {
  static const Fp h = Fp::from_u64(2).inverse();
  return h;
}

// Doubling step T <- 2T with the tangent-line coefficients; formulas of
// Costello-Lange-Naehrig for y^2 = x^3 + b' in homogeneous coordinates.
// The line is the affine tangent scaled by a nonzero Fp2 factor.
EllCoeffs step_double(G2Projective& t) {
  static const Fp2 twist_b = G2Curve::coeff_b();
  Fp2 a = (t.x * t.y).mul_fp(half());
  Fp2 b = t.y.squared();
  Fp2 c = t.z.squared();
  Fp2 e = twist_b * (c + c + c);
  Fp2 f = e + e + e;
  Fp2 g = (b + f).mul_fp(half());
  Fp2 h = (t.y + t.z).squared() - (b + c);
  Fp2 i = e - b;
  Fp2 j = t.x.squared();
  Fp2 e2 = e.squared();
  t.x = a * (b - f);
  t.y = g.squared() - (e2 + e2 + e2);
  t.z = b * h;
  return {-h, j + j + j, i};
}

// Addition step T <- T + Q (Q affine) with the chord-line coefficients.
EllCoeffs step_add(G2Projective& t, const Fp2& qx, const Fp2& qy) {
  Fp2 theta = t.y - qy * t.z;
  Fp2 lambda = t.x - qx * t.z;
  Fp2 c = theta.squared();
  Fp2 d = lambda.squared();
  Fp2 e = lambda * d;
  Fp2 f = t.z * c;
  Fp2 g = t.x * d;
  Fp2 h = e + f - (g + g);
  t.x = lambda * h;
  t.y = theta * (g - h) - e * t.y;
  t.z = t.z * e;
  return {lambda, -theta, theta * qx - lambda * qy};
}

// Evaluates a stored line at P and folds it into f with the sparse multiply.
inline Fp12 fold_line(const Fp12& f, const EllCoeffs& l, const G1Affine& p) {
  return f.mul_by_034(l.c0.mul_fp(p.y), l.c3.mul_fp(p.x), l.c4);
}

}  // namespace

G2Prepared::G2Prepared(const G2Affine& q) {
  if (q.infinity) return;
  infinity_ = false;
  const auto& naf = ate_loop_naf();
  const auto& fc = frobenius_constants();
  G2Projective t{q.x, q.y, Fp2::one()};
  Fp2 neg_qy = -q.y;
  coeffs_.reserve(2 * naf.size());
  for (size_t i = naf.size() - 1; i-- > 0;) {
    coeffs_.push_back(step_double(t));
    if (naf[i] == 1)
      coeffs_.push_back(step_add(t, q.x, q.y));
    else if (naf[i] == -1)
      coeffs_.push_back(step_add(t, q.x, neg_qy));
  }
  // Frobenius end-steps, as in the reference loop.
  Fp2 q1x = q.x.conjugate() * fc.twist_x;
  Fp2 q1y = q.y.conjugate() * fc.twist_y;
  Fp2 q2x = q.x.mul_fp(fc.twist2_x);
  Fp2 q2y = q.y.mul_fp(fc.twist2_y);
  coeffs_.push_back(step_add(t, q1x, q1y));
  coeffs_.push_back(step_add(t, q2x, -q2y));
  // Prepared points are long-lived cached key material budgeted by
  // line_bytes(); the worst-case reserve above would otherwise strand ~30%
  // of every key-cache byte budget as vector slack.
  coeffs_.shrink_to_fit();
}

Fp12 miller_loop(std::span<const PreparedTerm> terms) {
  // Every non-identity G2Prepared stores coefficients in the same schedule
  // (one per doubling, one per NAF add, two end-steps), so all terms consume
  // the shared cursor `k` in lockstep while the Fp12 squaring chain is paid
  // once for the whole product.
  const auto& naf = ate_loop_naf();
  Fp12 f = Fp12::one();
  bool any = false;
  for (const auto& term : terms)
    any = any || (!term.p.infinity && term.q && !term.q->infinity());
  if (!any) return f;

  auto live = [](const PreparedTerm& t) {
    return !t.p.infinity && t.q && !t.q->infinity();
  };
  size_t k = 0;
  for (size_t i = naf.size() - 1; i-- > 0;) {
    f = f.squared();
    for (const auto& term : terms)
      if (live(term)) f = fold_line(f, term.q->coeffs()[k], term.p);
    ++k;
    if (naf[i] != 0) {
      for (const auto& term : terms)
        if (live(term)) f = fold_line(f, term.q->coeffs()[k], term.p);
      ++k;
    }
  }
  for (int s = 0; s < 2; ++s) {
    for (const auto& term : terms)
      if (live(term)) f = fold_line(f, term.q->coeffs()[k], term.p);
    ++k;
  }
  return f;
}

Fp12 miller_loop(const G1Affine& p, const G2Prepared& q) {
  PreparedTerm term{p, &q};
  return miller_loop(std::span<const PreparedTerm>(&term, 1));
}

namespace {
Fp12 easy_part(const Fp12& f) {
  if (f.is_zero()) throw std::domain_error("final_exponentiation: zero");
  // f^{(p^6-1)(p^2+1)}; the result lies in the cyclotomic subgroup.
  Fp12 t = f.conjugate() * f.inverse();
  return t.frobenius2() * t;
}
}  // namespace

namespace {
// Exponentiation by the BN parameter u along its NAF (weight 24, against 28
// set bits), valid after the easy part: cyclotomic squarings, and a multiply
// by f for a +1 digit or by its conjugate, the inverse in the cyclotomic
// subgroup, for a -1 digit. No table to build, unlike pow_cyclotomic's
// 4-bit window.
Fp12 pow_u(const Fp12& f) {
  static const std::vector<int8_t> naf = compute_naf(kBnU);
  const Fp12 f_inv = f.conjugate();
  Fp12 r = f;  // the top NAF digit is +1
  for (size_t i = naf.size() - 1; i-- > 0;) {
    r = r.cyclotomic_squared();
    if (naf[i] == 1)
      r = r * f;
    else if (naf[i] == -1)
      r = r * f_inv;
  }
  return r;
}
}  // namespace

Fp12 final_exponentiation(const Fp12& f) {
  // Hard part m^{(p^4-p^2+1)/r} via the BN vectorial addition chain
  // (Devegili et al.; Beuchat et al. 2010): three exponentiations by u plus
  // Frobenius combines, ~4x cheaper than the generic square-and-multiply
  // ladder over the full ~762-bit exponent. Exact — cross-checked against
  // `final_exponentiation_generic` in tests. Inversions are conjugations
  // (free) because m lives in the cyclotomic subgroup, and u > 0 for this
  // curve so no sign fix-ups are needed.
  Fp12 m = easy_part(f);
  Fp12 fu = pow_u(m);
  Fp12 fu2 = pow_u(fu);
  Fp12 fu3 = pow_u(fu2);
  Fp12 y0 = m.frobenius() * m.frobenius2() * m.frobenius3();
  Fp12 y1 = m.conjugate();
  Fp12 y2 = fu2.frobenius2();
  Fp12 y3 = fu.frobenius().conjugate();
  Fp12 y4 = (fu * fu2.frobenius()).conjugate();
  Fp12 y5 = fu2.conjugate();
  Fp12 y6 = (fu3 * fu3.frobenius()).conjugate();
  Fp12 t0 = y6.cyclotomic_squared() * y4 * y5;
  Fp12 t1 = y3 * y5 * t0;
  t0 = t0 * y2;
  t1 = t1.cyclotomic_squared() * t0;
  t1 = t1.cyclotomic_squared();
  t0 = t1 * y1;
  t1 = t1 * y0;
  t0 = t0.cyclotomic_squared();
  return t0 * t1;
}

Fp12 final_exponentiation_ladder(const Fp12& f) {
  // Previous default: cyclotomic square-and-multiply over the full
  // hard-part exponent. Kept for the E5 ablation ladder and as a second
  // oracle for the addition chain.
  return easy_part(f).pow_cyclotomic(hard_part_exponent());
}

Fp12 final_exponentiation_generic(const Fp12& f) {
  return easy_part(f).pow(hard_part_exponent());
}

GT pairing(const G1Affine& p, const G2Affine& q) {
  if (p.infinity || q.infinity) return GT::identity();
  return {final_exponentiation(miller_loop(p, G2Prepared(q)))};
}

GT pairing(const G1Affine& p, const G2Prepared& q) {
  return {final_exponentiation(miller_loop(p, q))};
}

GT multi_pairing(std::span<const PreparedTerm> terms) {
  return {final_exponentiation(miller_loop(terms))};
}

GT multi_pairing(std::span<const PairingTerm> terms) {
  std::vector<G2Prepared> prepared;
  prepared.reserve(terms.size());
  std::vector<PreparedTerm> pts;
  pts.reserve(terms.size());
  for (const auto& term : terms) {
    prepared.emplace_back(term.q);
    pts.push_back({term.p, &prepared.back()});
  }
  return multi_pairing(pts);
}

GT multi_pairing_reference(std::span<const PairingTerm> terms) {
  Fp12 f = Fp12::one();
  for (const auto& term : terms) f = f * miller_loop(term.p, term.q);
  return {final_exponentiation(f)};
}

bool pairing_product_is_one(std::span<const PairingTerm> terms) {
  return multi_pairing(terms).is_identity();
}

bool pairing_product_is_one(std::span<const PreparedTerm> terms) {
  return multi_pairing(terms).is_identity();
}

}  // namespace bnr
