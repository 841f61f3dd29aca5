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

// One step's line c0*y_P + c3*x_P*w + c4*w^3 as the projective formulas give
// it, before G2Prepared divides it by c0.
struct ProjectiveLine {
  Fp2 c0, c3, c4;
};

const Fp& half() {
  static const Fp h = Fp::from_u64(2).inverse();
  return h;
}

// Doubling step T <- 2T with the tangent-line coefficients; formulas of
// Costello-Lange-Naehrig for y^2 = x^3 + b' in homogeneous coordinates.
// The line is the affine tangent scaled by a nonzero Fp2 factor.
ProjectiveLine step_double(G2Projective& t) {
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
ProjectiveLine step_add(G2Projective& t, const Fp2& qx, const Fp2& qy) {
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

// Inverts every element of v with one field inversion (Montgomery's trick).
// Throws, as Mont::inverse does, if any element is zero.
template <class F>
void batch_invert(std::vector<F>& v) {
  std::vector<F> prefix(v.size());
  F acc = F::one();
  for (size_t i = 0; i < v.size(); ++i) {
    prefix[i] = acc;
    acc = acc * v[i];
  }
  F inv = acc.inverse();
  for (size_t i = v.size(); i-- > 0;) {
    const F vi = v[i];
    v[i] = inv * prefix[i];
    inv = inv * vi;
  }
}

}  // namespace

G2Prepared::G2Prepared(const G2Affine& q) {
  if (q.infinity) return;
  infinity_ = false;
  const auto& naf = ate_loop_naf();
  const auto& fc = frobenius_constants();
  G2Projective t{q.x, q.y, Fp2::one()};
  Fp2 neg_qy = -q.y;
  std::vector<ProjectiveLine> lines;
  lines.reserve(2 * naf.size());
  for (size_t i = naf.size() - 1; i-- > 0;) {
    lines.push_back(step_double(t));
    if (naf[i] == 1)
      lines.push_back(step_add(t, q.x, q.y));
    else if (naf[i] == -1)
      lines.push_back(step_add(t, q.x, neg_qy));
  }
  // Frobenius end-steps, as in the reference loop.
  Fp2 q1x = q.x.conjugate() * fc.twist_x;
  Fp2 q1y = q.y.conjugate() * fc.twist_y;
  Fp2 q2x = q.x.mul_fp(fc.twist2_x);
  Fp2 q2y = q.y.mul_fp(fc.twist2_y);
  lines.push_back(step_add(t, q1x, q1y));
  lines.push_back(step_add(t, q2x, -q2y));

  // Divide each line by its y_P coefficient c0, an Fp2 factor that the
  // final exponentiation kills. c0 is zero only on a degenerate step (T of
  // order 2, or T = +-Q), which no point of G2 reaches; batch_invert then
  // throws rather than store a line that would fold in as 1.
  std::vector<Fp2> inv_c0(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) inv_c0[i] = lines[i].c0;
  batch_invert(inv_c0);
  // Sized exactly: prepared points are long-lived cached key material
  // budgeted by line_bytes().
  coeffs_.reserve(lines.size());
  for (size_t i = 0; i < lines.size(); ++i)
    coeffs_.push_back({lines[i].c3 * inv_c0[i], lines[i].c4 * inv_c0[i]});
}

Fp12 miller_loop(std::span<const PreparedTerm> terms) {
  // Every non-identity G2Prepared stores lines in the same schedule (one per
  // doubling, one per NAF add, two end-steps), so all live terms consume
  // the shared cursor `k` in lockstep while the Fp12 squaring chain is paid
  // once for the whole product. A stored line is c0*y_P + c3*x_P*w +
  // c4*w^3 divided by c0*y_P, so each term evaluates it at (x_P/y_P, 1/y_P):
  // one Fp inversion for the whole product.
  struct Live {
    const EllCoeffs* lines;
    Fp x_over_y;
  };
  std::vector<Live> live;
  std::vector<Fp> inv_y;
  live.reserve(terms.size());
  inv_y.reserve(terms.size());
  for (const auto& term : terms) {
    if (term.p.infinity || !term.q || term.q->infinity()) continue;
    live.push_back({term.q->coeffs().data(), term.p.x});
    inv_y.push_back(term.p.y);
  }
  Fp12 f = Fp12::one();
  if (live.empty()) return f;
  batch_invert(inv_y);  // throws on y_P = 0, which no point of G1 has
  for (size_t j = 0; j < live.size(); ++j)
    live[j].x_over_y = live[j].x_over_y * inv_y[j];

  const auto& naf = ate_loop_naf();
  size_t k = 0;
  auto fold_lines = [&] {
    for (size_t j = 0; j < live.size(); ++j) {
      const EllCoeffs& l = live[j].lines[k];
      f = f.mul_by_34(l.a.mul_fp(live[j].x_over_y), l.b.mul_fp(inv_y[j]));
    }
    ++k;
  };
  for (size_t i = naf.size() - 1; i-- > 0;) {
    f = f.squared();
    fold_lines();
    if (naf[i] != 0) fold_lines();
  }
  fold_lines();  // the two Frobenius end-steps
  fold_lines();
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
// Exponentiation by the BN parameter u, valid after the easy part (every
// squaring is cyclotomic): gnark-crypto's BN254 addition chain, 62
// squarings and 17 multiplies against the 23 of a walk over u's NAF. Each
// xB below is x raised to the binary number B.
Fp12 pow_u(const Fp12& x) {
  auto sqr_n = [](Fp12 a, int n) {
    while (n-- > 0) a = a.cyclotomic_squared();
    return a;
  };
  const Fp12 x10 = x.cyclotomic_squared();
  const Fp12 x100 = x10.cyclotomic_squared();
  const Fp12 x1000 = x100.cyclotomic_squared();
  const Fp12 x10001 = x1000.cyclotomic_squared() * x;
  const Fp12 x10011 = x10001 * x10;
  const Fp12 x10100 = x10011 * x;
  const Fp12 x11001 = x10001 * x1000;
  const Fp12 x100111 = x10011 * x10100;
  const Fp12 x101001 = x100111 * x10;
  Fp12 r = sqr_n(x10001.cyclotomic_squared(), 6) * x100 * x11001;
  r = sqr_n(r, 7) * x11001;
  r = sqr_n(r, 8) * x101001 * x10;
  r = sqr_n(r, 6) * x10001;
  r = sqr_n(r, 8) * x101001;
  r = sqr_n(r, 6) * x101001;
  r = sqr_n(sqr_n(r, 10) * x100111, 6);
  return r * x101001 * x1000;  // u = 0x44e992b44a6909f1
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
