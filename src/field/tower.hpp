// The BN254 extension-field tower:
//   Fp2  = Fp[u]/(u^2 + 1)            (p = 3 mod 4, so -1 is a non-residue)
//   Fp6  = Fp2[v]/(v^3 - xi),  xi = 9 + u
//   Fp12 = Fp6[w]/(w^2 - v)
// Frobenius coefficients are derived at runtime from xi (see tower.cpp), so
// no tower constant beyond xi itself is transcribed from the literature.
#pragma once

#include <optional>

#include "field/fp.hpp"

namespace bnr {

// ---------------------------------------------------------------------------
// Fp2

struct Fp2 {
  Fp c0, c1;  // c0 + c1*u

  static Fp2 zero() { return {}; }
  static Fp2 one() { return {Fp::one(), Fp::zero()}; }
  static Fp2 from_fp(const Fp& a) { return {a, Fp::zero()}; }
  static Fp2 random(Rng& rng) { return {Fp::random(rng), Fp::random(rng)}; }
  /// xi = 9 + u, the Fp6 cubic non-residue.
  static Fp2 xi() { return {Fp::from_u64(9), Fp::one()}; }

  bool is_zero() const { return c0.is_zero() && c1.is_zero(); }
  bool operator==(const Fp2& o) const { return c0 == o.c0 && c1 == o.c1; }
  bool operator!=(const Fp2& o) const { return !(*this == o); }

  Fp2 operator+(const Fp2& o) const { return {c0 + o.c0, c1 + o.c1}; }
  Fp2 operator-(const Fp2& o) const { return {c0 - o.c0, c1 - o.c1}; }
  Fp2 operator-() const { return {-c0, -c1}; }

  Fp2 operator*(const Fp2& o) const {
    // Karatsuba: (a0 + a1 u)(b0 + b1 u) = a0b0 - a1b1 + ((a0+a1)(b0+b1) - a0b0 - a1b1) u
    Fp t0 = c0 * o.c0;
    Fp t1 = c1 * o.c1;
    Fp mid = (c0 + c1) * (o.c0 + o.c1);
    return {t0 - t1, mid - t0 - t1};
  }
  Fp2 squared() const {
    // (a+bu)^2 = (a+b)(a-b) + 2ab u
    Fp t = c0 * c1;
    return {(c0 + c1) * (c0 - c1), t + t};
  }
  Fp2 mul_fp(const Fp& s) const { return {c0 * s, c1 * s}; }
  Fp2 doubled() const { return {c0 + c0, c1 + c1}; }
  Fp2 conjugate() const { return {c0, -c1}; }

  Fp2 inverse() const {
    // (a + bu)^{-1} = (a - bu) / (a^2 + b^2)
    Fp norm = c0.squared() + c1.squared();
    Fp ninv = norm.inverse();
    return {c0 * ninv, -(c1 * ninv)};
  }

  /// Multiplication by xi = 9 + u.
  Fp2 mul_by_xi() const {
    // (a + bu)(9 + u) = (9a - b) + (a + 9b)u
    Fp nine_a = scale9(c0);
    Fp nine_b = scale9(c1);
    return {nine_a - c1, c0 + nine_b};
  }

  /// Square root in Fp2 for p = 3 (mod 4) (Adj & Rodriguez-Henriquez).
  std::optional<Fp2> sqrt() const;

  Fp2 pow(std::span<const uint64_t> exp) const { return field_pow(*this, exp); }

 private:
  static Fp scale9(const Fp& a) {
    Fp t2 = a + a;
    Fp t4 = t2 + t2;
    Fp t8 = t4 + t4;
    return t8 + a;
  }
};

// ---------------------------------------------------------------------------
// Fp6

struct Fp6 {
  Fp2 c0, c1, c2;  // c0 + c1*v + c2*v^2

  static Fp6 zero() { return {}; }
  static Fp6 one() { return {Fp2::one(), Fp2::zero(), Fp2::zero()}; }
  static Fp6 from_fp2(const Fp2& a) { return {a, Fp2::zero(), Fp2::zero()}; }

  bool is_zero() const { return c0.is_zero() && c1.is_zero() && c2.is_zero(); }
  bool operator==(const Fp6& o) const {
    return c0 == o.c0 && c1 == o.c1 && c2 == o.c2;
  }

  Fp6 operator+(const Fp6& o) const {
    return {c0 + o.c0, c1 + o.c1, c2 + o.c2};
  }
  Fp6 operator-(const Fp6& o) const {
    return {c0 - o.c0, c1 - o.c1, c2 - o.c2};
  }
  Fp6 operator-() const { return {-c0, -c1, -c2}; }

  Fp6 operator*(const Fp6& o) const {
    // Toom-style interpolation, 6 Fp2 multiplications.
    Fp2 v0 = c0 * o.c0;
    Fp2 v1 = c1 * o.c1;
    Fp2 v2 = c2 * o.c2;
    Fp2 t0 = ((c1 + c2) * (o.c1 + o.c2) - v1 - v2).mul_by_xi() + v0;
    Fp2 t1 = (c0 + c1) * (o.c0 + o.c1) - v0 - v1 + v2.mul_by_xi();
    Fp2 t2 = (c0 + c2) * (o.c0 + o.c2) - v0 - v2 + v1;
    return {t0, t1, t2};
  }
  Fp6 squared() const { return *this * *this; }

  /// Sparse multiplication by b0 + b1*v (b2 = 0): 5 Fp2 muls instead of 6.
  Fp6 mul_by_01(const Fp2& b0, const Fp2& b1) const {
    Fp2 v0 = c0 * b0;
    Fp2 v1 = c1 * b1;
    Fp2 t0 = ((c1 + c2) * b1 - v1).mul_by_xi() + v0;  // a0b0 + xi*a2b1
    Fp2 t1 = (c0 + c1) * (b0 + b1) - v0 - v1;         // a0b1 + a1b0
    Fp2 t2 = (c0 + c2) * b0 - v0 + v1;                // a2b0 + a1b1
    return {t0, t1, t2};
  }

  /// Multiplication by v (the Fp12 quadratic non-residue).
  Fp6 mul_by_v() const { return {c2.mul_by_xi(), c0, c1}; }

  Fp6 inverse() const {
    Fp2 a = c0.squared() - (c1 * c2).mul_by_xi();
    Fp2 b = c2.squared().mul_by_xi() - c0 * c1;
    Fp2 c = c1.squared() - c0 * c2;
    Fp2 f = (c0 * a) + (c2 * b).mul_by_xi() + (c1 * c).mul_by_xi();
    Fp2 finv = f.inverse();
    return {a * finv, b * finv, c * finv};
  }
};

// ---------------------------------------------------------------------------
// Fp12

struct Fp12 {
  Fp6 c0, c1;  // c0 + c1*w

  static Fp12 zero() { return {}; }
  static Fp12 one() { return {Fp6::one(), Fp6::zero()}; }

  bool is_zero() const { return c0.is_zero() && c1.is_zero(); }
  bool is_one() const { return *this == one(); }
  bool operator==(const Fp12& o) const { return c0 == o.c0 && c1 == o.c1; }
  bool operator!=(const Fp12& o) const { return !(*this == o); }

  Fp12 operator*(const Fp12& o) const {
    Fp6 v0 = c0 * o.c0;
    Fp6 v1 = c1 * o.c1;
    Fp6 t1 = (c0 + c1) * (o.c0 + o.c1) - v0 - v1;
    return {v0 + v1.mul_by_v(), t1};
  }
  Fp12 squared() const {
    // Complex squaring: c0' = (c0+c1)(c0+v*c1) - t - v*t,  c1' = 2t, t = c0*c1.
    Fp6 t = c0 * c1;
    Fp6 a = (c0 + c1) * (c0 + c1.mul_by_v()) - t - t.mul_by_v();
    return {a, t + t};
  }

  /// Sparse multiplication by 1 + d3*w + d4*w^3 — the shape of a Miller-loop
  /// line on the D-twist divided by its y_P coefficient (positions 0, 3, 4
  /// of the Fp2 basis {1, v, v^2, w, vw, v^2w}, with a one at position 0).
  /// 10 Fp2 muls instead of the dense 18.
  Fp12 mul_by_34(const Fp2& d3, const Fp2& d4) const {
    // (c0 + c1 w)(1 + B w) = (c0 + c1 B v) + (c1 + c0 B) w, B = d3 + d4 v.
    Fp6 t0 = c0.mul_by_01(d3, d4);
    Fp6 t1 = c1.mul_by_01(d3, d4);
    return {c0 + t1.mul_by_v(), c1 + t0};
  }
  Fp12 inverse() const {
    Fp6 denom = (c0.squared() - c1.squared().mul_by_v()).inverse();
    return {c0 * denom, -(c1 * denom)};
  }
  /// Conjugation over Fp6 = exponentiation by p^6 (free inverse for elements
  /// in the cyclotomic subgroup, i.e. after the easy final-exp part).
  Fp12 conjugate() const { return {c0, -c1}; }

  Fp12 frobenius() const;   // f -> f^p
  Fp12 frobenius2() const;  // f -> f^{p^2}
  Fp12 frobenius3() const;  // f -> f^{p^3}

  /// Granger-Scott squaring, valid ONLY for elements of the cyclotomic
  /// subgroup G_{Phi12}(p) (e.g. anything after the easy part of the final
  /// exponentiation). ~4x cheaper than a generic squaring.
  Fp12 cyclotomic_squared() const;

  /// Square-and-multiply using cyclotomic squarings; same precondition.
  Fp12 pow_cyclotomic(std::span<const uint64_t> exp) const;

  Fp12 pow(std::span<const uint64_t> exp) const { return field_pow(*this, exp); }
  Fp12 pow(const U256& exp) const {
    return pow(std::span<const uint64_t>(exp.w.data(), 4));
  }
};

/// Frobenius coefficients gamma1_i = xi^{i(p-1)/6} (and derived gamma2/3),
/// computed once at startup.
struct FrobeniusConstants {
  std::array<Fp2, 6> g1;
  std::array<Fp, 6> g2;
  std::array<Fp2, 6> g3;
  /// Twist endomorphism constants: pi(x,y) = (conj(x)*tw_x, conj(y)*tw_y).
  Fp2 twist_x;  // xi^{(p-1)/3}
  Fp2 twist_y;  // xi^{(p-1)/2}
  Fp twist2_x;  // xi^{(p^2-1)/3} (in Fp)
  Fp twist2_y;  // xi^{(p^2-1)/2} (in Fp)
};

const FrobeniusConstants& frobenius_constants();

}  // namespace bnr
