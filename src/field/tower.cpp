#include "field/tower.hpp"

#include <stdexcept>

#include "bn/biguint.hpp"

namespace bnr {

namespace {

std::vector<uint64_t> to_limbs(const BigUint& v) {
  return std::vector<uint64_t>(v.limbs().begin(), v.limbs().end());
}

struct SqrtExponents {
  std::vector<uint64_t> p_minus_3_over_4;
  std::vector<uint64_t> p_minus_1_over_2;
};

const SqrtExponents& sqrt_exponents() {
  static const SqrtExponents e = [] {
    BigUint p(FpTag::kModulus);
    SqrtExponents out;
    out.p_minus_3_over_4 = to_limbs((p - BigUint(3)) >> 2);
    out.p_minus_1_over_2 = to_limbs((p - BigUint(1)) >> 1);
    return out;
  }();
  return e;
}

}  // namespace

std::optional<Fp2> Fp2::sqrt() const {
  if (is_zero()) return Fp2::zero();
  const auto& e = sqrt_exponents();
  // Adj & Rodriguez-Henriquez, "Square root computation over even extension
  // fields", for p = 3 (mod 4).
  Fp2 a1 = pow(e.p_minus_3_over_4);
  Fp2 alpha = a1.squared() * *this;  // a^((p-1)/2)
  Fp2 a0 = alpha.conjugate() * alpha;  // alpha^(p+1), the norm
  Fp2 minus_one = -Fp2::one();
  if (a0 == minus_one) return std::nullopt;
  Fp2 x0 = a1 * *this;  // a^((p+1)/4)
  Fp2 x;
  if (alpha == minus_one) {
    // x = u * x0 (u is a square root of -1 since u^2 = -1)
    x = Fp2{-x0.c1, x0.c0};
  } else {
    Fp2 b = (Fp2::one() + alpha).pow(e.p_minus_1_over_2);
    x = b * x0;
  }
  if (!(x.squared() == *this)) return std::nullopt;
  return x;
}

const FrobeniusConstants& frobenius_constants() {
  static const FrobeniusConstants consts = [] {
    FrobeniusConstants c;
    BigUint p(FpTag::kModulus);
    BigUint e = (p - BigUint(1)) / BigUint(6);
    auto e_limbs = to_limbs(e);

    Fp2 g1_1 = Fp2::xi().pow(e_limbs);  // xi^((p-1)/6)
    c.g1[0] = Fp2::one();
    for (int i = 1; i < 6; ++i) c.g1[i] = c.g1[i - 1] * g1_1;
    for (int i = 0; i < 6; ++i) {
      Fp2 norm = c.g1[i] * c.g1[i].conjugate();  // gamma1_i^(p+1) in Fp
      if (!norm.c1.is_zero())
        throw std::logic_error("frobenius: gamma2 not in Fp");
      c.g2[i] = norm.c0;
      c.g3[i] = c.g1[i].mul_fp(c.g2[i]);
    }
    c.twist_x = c.g1[2];   // xi^((p-1)/3)
    c.twist_y = c.g1[3];   // xi^((p-1)/2)
    c.twist2_x = c.g2[2];  // xi^((p^2-1)/3)
    c.twist2_y = c.g2[3];  // xi^((p^2-1)/2)
    return c;
  }();
  return consts;
}

Fp6 Fp6::operator*(const Fp6& o) const {
  // Karatsuba over v^3 = xi: 18 double-width products, then the sums,
  // differences and xi modulo p 2^256, and 6 reductions.
  const Fp2Wide v0 = Fp2::mul_wide(c0, o.c0);
  const Fp2Wide v1 = Fp2::mul_wide(c1, o.c1);
  const Fp2Wide v2 = Fp2::mul_wide(c2, o.c2);
  const Fp2Wide t0 =
      (Fp2::mul_wide(c1 + c2, o.c1 + o.c2) - v1 - v2).mul_by_xi() + v0;
  const Fp2Wide t1 =
      Fp2::mul_wide(c0 + c1, o.c0 + o.c1) - v0 - v1 + v2.mul_by_xi();
  const Fp2Wide t2 = Fp2::mul_wide(c0 + c2, o.c0 + o.c2) - v0 - v2 + v1;
  return {Fp2::reduce(t0), Fp2::reduce(t1), Fp2::reduce(t2)};
}

Fp6 Fp6::mul_by_01(const Fp2& b0, const Fp2& b1) const {
  // 15 double-width products and 6 reductions. Only the middle term needs
  // Karatsuba: a2b1 and a2b0 are products of their own.
  const Fp2Wide v0 = Fp2::mul_wide(c0, b0);
  const Fp2Wide v1 = Fp2::mul_wide(c1, b1);
  const Fp2Wide t0 = Fp2::mul_wide(c2, b1).mul_by_xi() + v0;  // a0b0 + xi a2b1
  const Fp2Wide t1 = Fp2::mul_wide(c0 + c1, b0 + b1) - v0 - v1;  // a0b1 + a1b0
  const Fp2Wide t2 = Fp2::mul_wide(c2, b0) + v1;                 // a2b0 + a1b1
  return {Fp2::reduce(t0), Fp2::reduce(t1), Fp2::reduce(t2)};
}

// Coefficient view: an Fp12 element (c0 + c1 w) with c0 = (h0, h1, h2),
// c1 = (k0, k1, k2) over Fp2 has w-expansion
//   h0 + k0 w + h1 w^2 + k1 w^3 + h2 w^4 + k2 w^5.

Fp12 Fp12::frobenius() const {
  const auto& fc = frobenius_constants();
  return {
      Fp6{c0.c0.conjugate(),
          c0.c1.conjugate() * fc.g1[2],
          c0.c2.conjugate() * fc.g1[4]},
      Fp6{c1.c0.conjugate() * fc.g1[1],
          c1.c1.conjugate() * fc.g1[3],
          c1.c2.conjugate() * fc.g1[5]},
  };
}

Fp12 Fp12::frobenius2() const {
  const auto& fc = frobenius_constants();
  return {
      Fp6{c0.c0, c0.c1.mul_fp(fc.g2[2]), c0.c2.mul_fp(fc.g2[4])},
      Fp6{c1.c0.mul_fp(fc.g2[1]), c1.c1.mul_fp(fc.g2[3]),
          c1.c2.mul_fp(fc.g2[5])},
  };
}

Fp12 Fp12::cyclotomic_squared() const {
  // Granger-Scott (eprint 2009/565) over the w-basis coefficients
  // (x0..x5) = (c0.c0, c0.c1, c0.c2, c1.c0, c1.c1, c1.c2).
  const Fp2& x0 = c0.c0;
  const Fp2& x1 = c0.c1;
  const Fp2& x2 = c0.c2;
  const Fp2& x3 = c1.c0;
  const Fp2& x4 = c1.c1;
  const Fp2& x5 = c1.c2;

  // The nine Fp2 squarings stay double-width (18 products), t0..t8 are
  // formed modulo p 2^256, and the six that the output reads are reduced
  // once each (12 reductions).
  const Fp2Wide s0 = x4.squared_wide();
  const Fp2Wide s1 = x0.squared_wide();
  const Fp2Wide s2 = x2.squared_wide();
  const Fp2Wide s3 = x3.squared_wide();
  const Fp2Wide s4 = x5.squared_wide();
  const Fp2Wide s5 = x1.squared_wide();
  const Fp2 t6 = Fp2::reduce((x4 + x0).squared_wide() - s0 - s1);  // 2 x4 x0
  const Fp2 t7 = Fp2::reduce((x2 + x3).squared_wide() - s2 - s3);  // 2 x2 x3
  const Fp2 t8 = Fp2::reduce(
      ((x5 + x1).squared_wide() - s4 - s5).mul_by_xi());  // 2 x5 x1 xi
  const Fp2 t0 = Fp2::reduce(s0.mul_by_xi() + s1);  // x4^2 xi + x0^2
  const Fp2 t2 = Fp2::reduce(s2.mul_by_xi() + s3);  // x2^2 xi + x3^2
  const Fp2 t4 = Fp2::reduce(s4.mul_by_xi() + s5);  // x5^2 xi + x1^2

  Fp12 z;
  z.c0.c0 = (t0 - x0).doubled() + t0;
  z.c0.c1 = (t2 - x1).doubled() + t2;
  z.c0.c2 = (t4 - x2).doubled() + t4;
  z.c1.c0 = (t8 + x3).doubled() + t8;
  z.c1.c1 = (t6 + x4).doubled() + t6;
  z.c1.c2 = (t7 + x5).doubled() + t7;
  return z;
}

Fp12 Fp12::pow_cyclotomic(std::span<const uint64_t> exp) const {
  // 4-bit fixed window over cyclotomic squarings: ~bits/4 multiplications
  // less than square-and-multiply, and every squaring is Granger-Scott.
  std::array<Fp12, 16> table;
  table[0] = Fp12::one();
  for (size_t i = 1; i < 16; ++i) table[i] = table[i - 1] * *this;
  Fp12 result = Fp12::one();
  bool any = false;
  for (size_t i = exp.size(); i-- > 0;) {
    for (int nib = 15; nib >= 0; --nib) {
      if (any)
        for (int s = 0; s < 4; ++s) result = result.cyclotomic_squared();
      uint64_t d = (exp[i] >> (4 * nib)) & 0xf;
      if (d != 0) {
        result = result * table[d];
        any = true;
      }
    }
  }
  return result;
}

Fp12 Fp12::frobenius3() const {
  const auto& fc = frobenius_constants();
  return {
      Fp6{c0.c0.conjugate(),
          c0.c1.conjugate() * fc.g3[2],
          c0.c2.conjugate() * fc.g3[4]},
      Fp6{c1.c0.conjugate() * fc.g3[1],
          c1.c1.conjugate() * fc.g3[3],
          c1.c2.conjugate() * fc.g3[5]},
  };
}

}  // namespace bnr
