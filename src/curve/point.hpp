// Generic short-Weierstrass (a = 0) group arithmetic in Jacobian coordinates,
// shared by G1 (over Fp) and G2 (over Fp2, the sextic twist).
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <span>
#include <stdexcept>
#include <vector>

#include "field/fp.hpp"

namespace bnr {

/// Curve: provides `using Field`, `static Field coeff_b()`,
/// `static AffinePoint<Curve> generator_affine()`.
template <class Curve>
struct AffinePoint {
  using Field = typename Curve::Field;

  Field x{};
  Field y{};
  bool infinity = true;

  static AffinePoint identity() { return {}; }
  static AffinePoint from_xy(const Field& x, const Field& y) {
    AffinePoint p;
    p.x = x;
    p.y = y;
    p.infinity = false;
    if (!p.on_curve()) throw std::invalid_argument("point not on curve");
    return p;
  }

  bool on_curve() const {
    if (infinity) return true;
    return y.squared() == x.squared() * x + Curve::coeff_b();
  }

  AffinePoint operator-() const {
    AffinePoint p = *this;
    if (!p.infinity) p.y = -p.y;
    return p;
  }

  bool operator==(const AffinePoint& o) const {
    if (infinity || o.infinity) return infinity == o.infinity;
    return x == o.x && y == o.y;
  }
};

namespace detail {

/// Width-w NAF digits of k, LSB first, into `out`, which must hold
/// k.bit_length() + 1 entries; returns the number of digits (the last one
/// is nonzero). Every nonzero digit is odd and below 2^(w-1) in magnitude,
/// and is followed by at least w-1 zeros. Reads k as bits plus a carry
/// instead of rewriting it, so a run of zeros costs one bit test each.
inline size_t wnaf(const U256& k, size_t w, std::span<int8_t> out) {
  const size_t bits = k.bit_length();
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(bits + 1),
            int8_t{0});
  size_t len = 0;
  uint64_t carry = 0;  // +1 owed to the current bit by a negative digit
  for (size_t pos = 0; pos < bits || carry != 0;) {
    const uint64_t bit = pos < 256 ? uint64_t(k.bit(pos)) : 0;
    if (bit == carry) {  // (k >> pos) + carry is even: a zero digit
      ++pos;
      continue;
    }
    // An odd word below 2^w: its top bit makes the digit negative and
    // carries into the window above.
    const uint64_t word = (pos < 256 ? k.bits(pos, w) : 0) + carry;
    carry = word >> (w - 1);
    out[pos] = static_cast<int8_t>(static_cast<int64_t>(word) -
                                   static_cast<int64_t>(carry << w));
    len = pos + 1;
    pos += w;
  }
  return len;
}

}  // namespace detail

template <class Curve>
class JacobianPoint {
 public:
  using Field = typename Curve::Field;
  using Affine = AffinePoint<Curve>;

  JacobianPoint() = default;  // identity (Z = 0)

  static JacobianPoint identity() { return {}; }
  static JacobianPoint generator() {
    return from_affine(Curve::generator_affine());
  }
  static JacobianPoint from_affine(const Affine& a) {
    JacobianPoint p;
    if (a.infinity) return p;
    p.x_ = a.x;
    p.y_ = a.y;
    p.z_ = Field::one();
    return p;
  }

  bool is_identity() const { return z_.is_zero(); }

  Affine to_affine() const {
    if (is_identity()) return Affine::identity();
    Field zinv = z_.inverse();
    Field zinv2 = zinv.squared();
    Affine a;
    a.x = x_ * zinv2;
    a.y = y_ * zinv2 * zinv;
    a.infinity = false;
    return a;
  }

  /// Normalizes many Jacobian points with ONE field inversion (Montgomery's
  /// trick): prefix-multiply the Z coordinates, invert the total, unwind.
  /// Identities pass through as affine identities. `out` holds pts.size()
  /// entries; the prefix products wait in their x coordinates. Defined
  /// below the class, so g1.cpp and g2.cpp can compile it once per curve.
  static void batch_to_affine(std::span<const JacobianPoint> pts,
                              std::span<Affine> out);
  static std::vector<Affine> batch_to_affine(std::span<const JacobianPoint> pts) {
    std::vector<Affine> out(pts.size());
    batch_to_affine(pts, out);
    return out;
  }

  JacobianPoint dbl() const {
    if (is_identity()) return *this;
    // dbl-2009-l (a = 0)
    Field a = x_.squared();
    Field b = y_.squared();
    Field c = b.squared();
    Field d = ((x_ + b).squared() - a - c).doubled();
    Field e = a + a + a;
    Field f = e.squared();
    JacobianPoint r;
    r.x_ = f - d - d;
    r.y_ = e * (d - r.x_) - oct(c);
    r.z_ = (y_ * z_).doubled();
    if (r.z_.is_zero()) return identity();
    return r;
  }

  JacobianPoint operator+(const JacobianPoint& o) const {
    if (is_identity()) return o;
    if (o.is_identity()) return *this;
    // add-2007-bl
    Field z1z1 = z_.squared();
    Field z2z2 = o.z_.squared();
    Field u1 = x_ * z2z2;
    Field u2 = o.x_ * z1z1;
    Field s1 = y_ * o.z_ * z2z2;
    Field s2 = o.y_ * z_ * z1z1;
    Field h = u2 - u1;
    Field rr = (s2 - s1).doubled();
    if (h.is_zero()) {
      if (rr.is_zero()) return dbl();
      return identity();
    }
    Field i = h.doubled().squared();
    Field j = h * i;
    Field v = u1 * i;
    JacobianPoint r;
    r.x_ = rr.squared() - j - v - v;
    r.y_ = rr * (v - r.x_) - (s1 * j).doubled();
    r.z_ = ((z_ + o.z_).squared() - z1z1 - z2z2) * h;
    return r;
  }

  /// Mixed addition, madd-2007-bl (7M+4S against add-2007-bl's 11M+5S):
  /// the affine operand's Z = 1 drops its Z products.
  JacobianPoint operator+(const Affine& o) const {
    if (o.infinity) return *this;
    if (is_identity()) return from_affine(o);
    Field z1z1 = z_.squared();
    Field u2 = o.x * z1z1;
    Field s2 = o.y * z_ * z1z1;
    Field h = u2 - x_;
    Field rr = (s2 - y_).doubled();
    if (h.is_zero()) {
      if (rr.is_zero()) return dbl();
      return identity();
    }
    Field hh = h.squared();
    Field i = hh.doubled().doubled();
    Field j = h * i;
    Field v = x_ * i;
    JacobianPoint r;
    r.x_ = rr.squared() - j - v - v;
    r.y_ = rr * (v - r.x_) - (y_ * j).doubled();
    r.z_ = (z_ + h).squared() - z1z1 - hh;
    return r;
  }
  JacobianPoint operator-() const {
    JacobianPoint p = *this;
    p.y_ = -p.y_;
    return p;
  }
  JacobianPoint operator-(const JacobianPoint& o) const { return *this + (-o); }

  bool operator==(const JacobianPoint& o) const {
    // Compare in the projective sense.
    if (is_identity() || o.is_identity())
      return is_identity() == o.is_identity();
    Field z1z1 = z_.squared();
    Field z2z2 = o.z_.squared();
    return x_ * z2z2 == o.x_ * z1z1 &&
           y_ * o.z_ * z2z2 == o.y_ * z_ * z1z1;
  }

  /// Plain MSB-first double-and-add over the limbs of the (canonical,
  /// non-Montgomery) scalar. Reference path; `mul` uses wNAF when the
  /// scalar is large enough to benefit.
  JacobianPoint mul_binary(std::span<const uint64_t> exp) const {
    JacobianPoint acc;
    bool any = false;
    for (size_t i = exp.size(); i-- > 0;) {
      for (int b = 63; b >= 0; --b) {
        if (any) acc = acc.dbl();
        if ((exp[i] >> b) & 1) {
          acc = acc + *this;
          any = true;
        }
      }
    }
    return acc;
  }

  /// Width-4 wNAF multiplication: ~bits/5 additions instead of ~bits/2
  /// (negation is free on curves, so signed digits halve the table).
  JacobianPoint mul_wnaf(const U256& scalar) const {
    constexpr int kWindow = 4;
    auto digits = wnaf_digits(scalar, kWindow);
    if (digits.empty()) return identity();
    // Odd multiples 1P, 3P, ..., 15P.
    std::array<JacobianPoint, 1 << (kWindow - 1)> table;
    table[0] = *this;
    JacobianPoint twice = dbl();
    for (size_t i = 1; i < table.size(); ++i) table[i] = table[i - 1] + twice;
    JacobianPoint acc;
    for (size_t i = digits.size(); i-- > 0;) {
      acc = acc.dbl();
      int8_t d = digits[i];
      if (d > 0)
        acc = acc + table[(d - 1) / 2];
      else if (d < 0)
        acc = acc + (-table[(-d - 1) / 2]);
    }
    return acc;
  }

  JacobianPoint mul_limbs(std::span<const uint64_t> exp) const {
    if (exp.size() <= 4) {
      U256 s;
      for (size_t i = 0; i < exp.size(); ++i) s.w[i] = exp[i];
      return mul(s);
    }
    return mul_binary(exp);
  }
  JacobianPoint mul(const U256& scalar) const {
    // Small scalars (DKG Horner steps, indices) do not amortize the wNAF
    // table; fall back to the plain ladder.
    if (scalar.bit_length() < 32)
      return mul_binary(std::span<const uint64_t>(scalar.w.data(), 1));
    return mul_wnaf(scalar);
  }
  JacobianPoint mul(const Fr& scalar) const { return mul(scalar.to_u256()); }

  /// Signed digits of `scalar` in width-w NAF form (LSB first); exposed for
  /// tests.
  static std::vector<int8_t> wnaf_digits(const U256& k, int window) {
    std::vector<int8_t> digits(k.bit_length() + 1);
    digits.resize(detail::wnaf(k, static_cast<size_t>(window), digits));
    return digits;
  }

 private:
  static Field oct(const Field& f) {
    Field t = f.doubled();
    t = t.doubled();
    return t.doubled();
  }

  Field x_{};
  Field y_ = Field::one();
  Field z_{};  // zero => identity
};

template <class Curve>
void JacobianPoint<Curve>::batch_to_affine(std::span<const JacobianPoint> pts,
                                           std::span<Affine> out) {
  Field acc = Field::one();
  bool any = false;
  for (size_t i = 0; i < pts.size(); ++i) {
    out[i] = Affine::identity();
    if (pts[i].is_identity()) continue;
    out[i].x = acc;  // product of all earlier non-identity Zs
    acc = acc * pts[i].z_;
    any = true;
  }
  if (!any) return;  // all identities
  Field tail_inv = acc.inverse();
  for (size_t i = pts.size(); i-- > 0;) {
    if (pts[i].is_identity()) continue;
    Field zinv = tail_inv * out[i].x;
    tail_inv = tail_inv * pts[i].z_;
    Field zinv2 = zinv.squared();
    out[i].x = pts[i].x_ * zinv2;
    out[i].y = pts[i].y_ * zinv2 * zinv;
    out[i].infinity = false;
  }
}

/// Naive multi-scalar multiplication: sum_i points[i] * scalars[i], one wNAF
/// ladder per point. The test oracle for `msm`.
template <class Point>
Point msm_naive(std::span<const Point> points, std::span<const Fr> scalars) {
  if (points.size() != scalars.size())
    throw std::invalid_argument("msm: size mismatch");
  Point acc;
  for (size_t i = 0; i < points.size(); ++i)
    acc = acc + points[i].mul(scalars[i]);
  return acc;
}

/// A scalar k as a curve's GLV hook splits it: k = k1 + k2 * lambda (mod r),
/// each half a sign and a magnitude below 2^128.
struct GlvSplit {
  U256 k1, k2;
  bool k1_neg = false, k2_neg = false;
};

namespace detail {

/// Signed (Booth) digit of window w of k, in [-2^(c-1), 2^(c-1)]: the
/// window's c bits, plus the bit just below it, minus 2^c when the window's
/// top bit is set (that bit is instead carried into the window above as
/// its "bit below"). The digits of windows 0..bits/c sum back to k.
inline int64_t booth_digit(const U256& k, size_t w, size_t c) {
  const size_t pos = w * c;
  const uint64_t v = k.bits(pos, c);
  const uint64_t below = pos == 0 ? 0 : uint64_t(k.bit(pos - 1));
  return static_cast<int64_t>(v + below) -
         static_cast<int64_t>((v >> (c - 1)) << c);
}

/// The GLV hook (Gallant-Lambert-Vanstone, CRYPTO 2001): a curve on whose
/// points phi(x, y) = (glv_beta() * x, y) multiplies by one lambda, and
/// whose glv_split(k), for k < r, gives k's halves as GlvSplit describes.
/// G1 has one (its cofactor is 1); G2 does not.
template <class Curve>
concept GlvCurve = requires(const U256& k) {
  { Curve::glv_split(k) } -> std::same_as<GlvSplit>;
  { Curve::glv_beta() } -> std::same_as<const typename Curve::Field&>;
};

/// The most points msm hands to msm_straus; Pippenger takes more.
inline constexpr size_t kStrausMaxPoints = 7;

/// sum_i points[i] * ks[i] (ks[i] < r) by Straus's interleaving: one shared
/// doubling per bit for all points, and per point a width-5 wNAF with the
/// odd multiples P, 3P, ..., 15P as its table. All tables come out affine
/// from one batched inversion, so every addition in the loop is a mixed
/// one. On a GlvCurve a scalar wider than 128 bits runs as two lanes of at
/// most 128 bits, the second over phi of the first lane's table, which
/// halves the doublings. Fixed-size storage only, at most 14 lanes of 8
/// entries, and no more of it than one stack frame. Variable time: public
/// inputs only.
template <class Curve>
JacobianPoint<Curve> msm_straus(std::span<const AffinePoint<Curve>> points,
                                std::span<const U256> ks) {
  using Point = JacobianPoint<Curve>;
  using Affine = AffinePoint<Curve>;
  using Field = typename Curve::Field;
  constexpr bool kGlv = GlvCurve<Curve>;
  constexpr size_t kW = 5;
  constexpr size_t kOdd = size_t(1) << (kW - 2);  // P, 3P, ..., 15P
  constexpr size_t kTables = kStrausMaxPoints * kOdd;
  // On a GlvCurve no lane is wider than 128 bits.
  constexpr size_t kMaxDigits = kGlv ? 129 : 257;
  struct Lane {
    const Affine* table;
    const Field* phi_x;  // x coordinates of phi(table), or null
    size_t len;
    std::array<int8_t, kMaxDigits> digits;
  };
  if (points.size() > kStrausMaxPoints || ks.size() != points.size())
    throw std::invalid_argument("msm_straus: bad sizes");

  std::array<Point, kTables> jac;
  std::array<Affine, kTables> table;
  std::array<Field, kGlv ? kTables : 0> phi_x;  // beta * x, y unchanged
  std::array<bool, kStrausMaxPoints> split{};
  std::array<Lane, kStrausMaxPoints * (kGlv ? 2 : 1)> lanes;
  size_t n_tables = 0, n_lanes = 0;
  auto add_lane = [&](size_t at, const Field* phi, const U256& k,
                      bool negative) {
    if (k.is_zero()) return;
    if (k.bit_length() >= kMaxDigits)
      throw std::logic_error("msm_straus: lane too wide");
    Lane& lane = lanes[n_lanes++];
    lane.table = &table[at];
    lane.phi_x = phi;
    lane.len = wnaf(k, kW, lane.digits);
    if (negative)
      for (size_t i = 0; i < lane.len; ++i)
        lane.digits[i] = static_cast<int8_t>(-lane.digits[i]);
  };
  for (size_t i = 0; i < points.size(); ++i) {
    if (points[i].infinity || ks[i].is_zero()) continue;
    const size_t at = n_tables * kOdd;
    jac[at] = Point::from_affine(points[i]);
    const Point twice = jac[at].dbl();
    jac[at + 1] = twice + points[i];
    for (size_t j = 2; j < kOdd; ++j) jac[at + j] = jac[at + j - 1] + twice;
    if constexpr (kGlv) {
      if (ks[i].bit_length() > 128) {
        const GlvSplit s = Curve::glv_split(ks[i]);
        add_lane(at, nullptr, s.k1, s.k1_neg);
        add_lane(at, &phi_x[at], s.k2, s.k2_neg);
        split[n_tables++] = true;
        continue;
      }
    }
    add_lane(at, nullptr, ks[i], false);
    ++n_tables;
  }
  const size_t used = n_tables * kOdd;
  Point::batch_to_affine(std::span<const Point>(jac.data(), used),
                         std::span<Affine>(table.data(), used));
  if constexpr (kGlv) {
    const Field& beta = Curve::glv_beta();
    for (size_t j = 0; j < used; ++j)
      if (split[j / kOdd]) phi_x[j] = table[j].x * beta;
  }

  size_t top = 0;
  for (size_t l = 0; l < n_lanes; ++l) top = std::max(top, lanes[l].len);
  Point acc;
  for (size_t i = top; i-- > 0;) {
    acc = acc.dbl();
    for (size_t l = 0; l < n_lanes; ++l) {
      const Lane& lane = lanes[l];
      if (i >= lane.len || lane.digits[i] == 0) continue;
      const int d = lane.digits[i];
      const size_t j = static_cast<size_t>(d > 0 ? d : -d) / 2;
      Affine q = lane.table[j];
      if (lane.phi_x != nullptr) q.x = lane.phi_x[j];
      if (d < 0) q.y = -q.y;
      acc = acc + q;
    }
  }
  return acc;
}

/// msm_pippenger's window width c for `lanes` scalar lanes: the fastest c
/// in a sweep over 16 to 4,096 lanes of 64 and of 128 bits on G1. At 128
/// lanes of 64 bits (64 drawn coefficients) c = 5; c = 4 costs 8% more and
/// c = 6 13%. A window costs about 6 multiplies per lane digit and 27 per
/// bucket, so c grows with log2(lanes).
inline size_t pippenger_window(size_t lanes) {
  return lanes < 32     ? 3
         : lanes < 64   ? 4
         : lanes < 224  ? 5
         : lanes < 1024 ? 6
         : lanes < 1536 ? 7
         : lanes < 4096 ? 8
         : lanes < 8192 ? 9
                        : 10;
}

/// Above this many lane digits msm_pippenger runs its windows in two
/// groups, one tree each: the tree's scratch halves for about 5 more
/// inversions. At a 64-point fold's 127 lanes of 64 bits (1,651 digits)
/// that keeps the scratch near 51 KB (86 KB in one group), and the serving
/// daemon's peak RSS flat: its workers each keep what they touched.
inline constexpr size_t kPippengerGroupDigits = 1024;

/// sum_i points[i] * ks[i] (ks[i] < r) by Pippenger's bucket method, msm's
/// path from 8 points on. On a GlvCurve a scalar wider than 128 bits runs
/// as two lanes, as in msm_straus: P with k1 and phi(P) = (beta x, y) with
/// k2. Each lane's signed (Booth) digit d in window w puts its point, as P
/// or -P (negation is free), in bin (w, |d|), so a c-bit window needs
/// 2^(c-1) bins. Bins hold signed lane references, not point copies.
/// Every bin is summed in affine coordinates by a pairwise tree: a tree
/// level adds all pairs of all bins of all windows (of a group, see
/// kPippengerGroupDigits) with ONE batched inversion (Montgomery's trick),
/// so an addition costs about 6 multiplies where a mixed one costs 11. A
/// pair that coincides is doubled (slope denominator 2y) and a pair that
/// cancels is dropped, so no zero enters an inversion. Each window's
/// buckets then fold by a running sum of mixed additions, and the windows
/// by c doublings each. Variable time: public inputs only.
template <class Curve>
JacobianPoint<Curve> msm_pippenger(std::span<const AffinePoint<Curve>> points,
                                   std::span<const U256> ks) {
  using Point = JacobianPoint<Curve>;
  using Affine = AffinePoint<Curve>;
  using Field = typename Curve::Field;
  constexpr bool kGlv = GlvCurve<Curve>;
  const size_t n = points.size();
  if (ks.size() != n || n >= (size_t(1) << 30))
    throw std::invalid_argument("msm_pippenger: bad sizes");

  // A lane is a scalar and a reference to its point: the point's index,
  // then a bit for phi and a bit for the sign.
  struct Lane {
    U256 k;
    uint32_t ref;
  };
  std::vector<Lane> lanes;
  lanes.reserve(kGlv ? 2 * n : n);
  std::vector<Field> phi_x(kGlv ? n : 0);  // beta * x, y unchanged
  size_t max_bits = 0;
  auto add_lane = [&](const U256& k, uint32_t ref) {
    if (k.is_zero()) return;
    lanes.push_back({k, ref});
    max_bits = std::max(max_bits, k.bit_length());
  };
  for (size_t i = 0; i < n; ++i) {
    if (points[i].infinity || ks[i].is_zero()) continue;
    const uint32_t ref = static_cast<uint32_t>(i) << 2;
    if constexpr (kGlv) {
      if (ks[i].bit_length() > 128) {
        const GlvSplit s = Curve::glv_split(ks[i]);
        phi_x[i] = points[i].x * Curve::glv_beta();
        add_lane(s.k1, ref | uint32_t(s.k1_neg));
        add_lane(s.k2, ref | 2 | uint32_t(s.k2_neg));
        continue;
      }
    }
    add_lane(ks[i], ref);
  }
  if (lanes.empty()) return Point();

  const size_t c = pippenger_window(lanes.size());
  const size_t half = size_t(1) << (c - 1);
  // The top window's digit absorbs the carry out of the one below it.
  const size_t windows = max_bits / c + 1;
  std::vector<int16_t> digit(lanes.size() * windows);
  for (size_t l = 0; l < lanes.size(); ++l)
    for (size_t w = 0; w < windows; ++w)
      digit[l * windows + w] =
          static_cast<int16_t>(booth_digit(lanes[l].k, w, c));
  // The windows run from the top, in two groups past the digit budget.
  const size_t groups = windows * lanes.size() > kPippengerGroupDigits ? 2 : 1;
  const size_t per_group = (windows + groups - 1) / groups;

  struct XY {
    Field x, y;
  };
  std::vector<uint32_t> count, start, base, refs;
  std::vector<XY> pts;
  std::vector<Field> inv;  // a tree level's slope inverses, above the leaves
  Point result;
  for (size_t hi = windows; hi > 0;) {
    const size_t lo = hi > per_group ? hi - per_group : 0;
    const size_t bins = (hi - lo) * half;
    // Counting sort of the group's nonzero digits: window w's digit d goes
    // to bin (w - lo) * half + |d| - 1.
    auto for_each_digit = [&](auto&& visit) {
      for (size_t l = 0; l < lanes.size(); ++l)
        for (size_t w = lo; w < hi; ++w)
          if (const int d = digit[l * windows + w]; d != 0)
            visit((w - lo) * half + size_t(d > 0 ? d : -d) - 1,
                  lanes[l].ref ^ uint32_t(d < 0));
    };
    count.assign(bins, 0);
    for_each_digit([&](size_t b, uint32_t) { ++count[b]; });
    start.assign(bins + 1, 0);
    for (size_t b = 0; b < bins; ++b) start[b + 1] = start[b] + count[b];
    refs.resize(start[bins]);
    base.assign(start.begin(), start.end() - 1);  // fill cursors
    for_each_digit([&](size_t b, uint32_t ref) { refs[base[b]++] = ref; });

    // Each tree level leaves bin b's count[b] points at pts[base[b]...].
    size_t slots = 0;
    for (size_t b = 0; b < bins; ++b) {
      base[b] = static_cast<uint32_t>(slots);
      slots += (count[b] + 1) / 2;
    }
    pts.resize(slots);
    bool leaves = true;  // the level's inputs are refs, not pts
    auto x_of = [&](size_t b, size_t i) -> const Field& {
      if (!leaves) return pts[base[b] + i].x;
      const uint32_t ref = refs[start[b] + i];
      return (ref & 2) != 0 ? phi_x[ref >> 2] : points[ref >> 2].x;
    };
    auto y_of = [&](size_t b, size_t i) -> Field {
      if (!leaves) return pts[base[b] + i].y;
      const uint32_t ref = refs[start[b] + i];
      return (ref & 1) != 0 ? -points[ref >> 2].y : points[ref >> 2].y;
    };
    // The denominator of the slope of pair j of bin b: x_v - x_u, or 2 y_u
    // when v = u; zero when v = -u, where the pair cancels.
    auto slope_den = [&](size_t b, size_t j) {
      const Field& xu = x_of(b, 2 * j);
      const Field& xv = x_of(b, 2 * j + 1);
      if (xu != xv) return xv - xu;
      const Field yu = y_of(b, 2 * j);
      return yu == y_of(b, 2 * j + 1) ? yu.doubled() : Field::zero();
    };
    for (;;) {
      size_t pairs = 0;
      for (size_t b = 0; b < bins; ++b) pairs += count[b] / 2;
      if (pairs == 0 && !leaves) break;
      if (!leaves) inv.resize(pairs);
      // Pair j of bin b, the level's p-th, keeps its inverse here. At the
      // leaves that is the x of the pair's own output slot, which no
      // output is written to before the pair's own.
      auto inverse_of = [&](size_t b, size_t j, size_t p) -> Field& {
        return leaves ? pts[base[b] + j].x : inv[p];
      };
      // Montgomery's trick: prefix products forward, one inversion, and
      // each inverse unwound backward.
      Field acc = Field::one();
      bool any = false;
      for (size_t b = 0, p = 0; b < bins; ++b)
        for (size_t j = 0; j < count[b] / 2; ++j, ++p) {
          const Field d = slope_den(b, j);
          if (d.is_zero()) continue;
          inverse_of(b, j, p) = acc;
          acc = acc * d;
          any = true;
        }
      if (any) {
        Field acc_inv = acc.inverse();
        for (size_t b = bins, p = pairs; b-- > 0;)
          for (size_t j = count[b] / 2; j-- > 0;) {
            --p;
            const Field d = slope_den(b, j);
            if (d.is_zero()) continue;
            Field& slot = inverse_of(b, j, p);
            slot = slot * acc_inv;
            acc_inv = acc_inv * d;
          }
      }
      for (size_t b = 0, p = 0; b < bins; ++b) {
        size_t out = 0;
        for (size_t j = 0; j < count[b] / 2; ++j, ++p) {
          const Field xu = x_of(b, 2 * j), xv = x_of(b, 2 * j + 1);
          const Field yu = y_of(b, 2 * j), yv = y_of(b, 2 * j + 1);
          Field num;
          if (xu != xv) {
            num = yv - yu;
          } else if (yu == yv) {
            const Field xx = xu.squared();
            num = xx + xx + xx;
          } else {
            continue;  // v = -u
          }
          const Field lambda = num * inverse_of(b, j, p);
          XY& o = pts[base[b] + out++];
          o.x = lambda.squared() - xu - xv;
          o.y = lambda * (xu - o.x) - yu;
        }
        if (count[b] % 2 != 0) {
          const size_t last = count[b] - 1;
          const XY carry{x_of(b, last), y_of(b, last)};
          pts[base[b] + out++] = carry;
        }
        count[b] = static_cast<uint32_t>(out);
      }
      leaves = false;
    }

    // sum_d d * bucket[w][d] by the running-sum trick, then Horner over w.
    Affine bucket;
    bucket.infinity = false;
    for (size_t w = hi; w-- > lo;) {
      for (size_t s = 0; s < c; ++s) result = result.dbl();
      Point running, sum;
      for (size_t b = (w - lo + 1) * half; b-- > (w - lo) * half;) {
        if (count[b] != 0) {
          bucket.x = pts[base[b]].x;
          bucket.y = pts[base[b]].y;
          running = running + bucket;
        }
        sum = sum + running;
      }
      result = result + sum;
    }
    hi = lo;
  }
  return result;
}

}  // namespace detail

/// Multi-scalar multiplication sum_i points[i] * scalars[i] over affine
/// points. Up to 7 points run detail::msm_straus, or one ladder per point
/// when the scalars are all below 32 bits; from 8 points on,
/// detail::msm_pippenger. On G1 both split every scalar wider than 128
/// bits into two GLV lanes, so a batch-RLC coefficient (two 64-bit halves,
/// threshold/params.hpp) costs two 64-bit lanes, and windows above the
/// widest lane are skipped. Variable time: public inputs only.
template <class Point>
Point msm(std::span<const typename Point::Affine> points,
          std::span<const Fr> scalars) {
  if (points.size() != scalars.size())
    throw std::invalid_argument("msm: size mismatch");
  const size_t n = points.size();
  Point result;
  if (n <= detail::kStrausMaxPoints) {  // too few points to fill buckets
    std::array<U256, detail::kStrausMaxPoints> ks;
    size_t max_bits = 0;
    for (size_t i = 0; i < n; ++i) {
      ks[i] = scalars[i].to_u256();
      max_bits = std::max(max_bits, ks[i].bit_length());
    }
    // Scalars all below 32 bits (DKG commitments at powers of an index)
    // do not pay for 8-entry affine tables: one ladder per point, which
    // `mul` runs binary below 32 bits.
    if (max_bits < 32) {
      for (size_t i = 0; i < n; ++i)
        result = result + Point::from_affine(points[i]).mul(ks[i]);
      return result;
    }
    return detail::msm_straus(points, std::span<const U256>(ks.data(), n));
  }

  std::vector<U256> ks(n);
  for (size_t i = 0; i < n; ++i) ks[i] = scalars[i].to_u256();
  return detail::msm_pippenger(points, std::span<const U256>(ks));
}

/// `msm` over Jacobian points: one batched inversion normalizes them first.
template <class Point>
Point msm(std::span<const Point> points, std::span<const Fr> scalars) {
  const auto affine = Point::batch_to_affine(points);
  return msm<Point>(std::span<const typename Point::Affine>(affine), scalars);
}

/// batch_to_affine as a free function, matching the msm call style.
template <class Curve>
std::vector<AffinePoint<Curve>> batch_to_affine(
    std::span<const JacobianPoint<Curve>> pts) {
  return JacobianPoint<Curve>::batch_to_affine(pts);
}

}  // namespace bnr
