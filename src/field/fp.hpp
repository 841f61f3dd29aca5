// Montgomery-form prime fields for BN254 (alt_bn128):
//   Fp — base field, p = 36u^4 + 36u^3 + 24u^2 + 6u + 1
//   Fr — scalar field, r = 36u^4 + 36u^3 + 18u^2 + 6u + 1
// with the standard curve parameter u = 4965661367192848881.
//
// All Montgomery constants (R, R^2, -p^{-1} mod 2^64) are computed at compile
// time from the modulus, so only p and r themselves are transcribed.
//
// The Montgomery multiply has two kernels: a portable carry chain, and on
// x86-64 a mulx/adcx/adox one in GNU extended asm (GCC and Clang), taken
// where cpuid reports bmi2 and adx. So do the double-width product and the
// separate Montgomery reduction that the tower (tower.hpp) builds its lazy
// reduction on. This file holds the tree's only inline asm (bnr_lint rule
// BNR-L008).
#pragma once

#include <array>
#include <bit>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "bn/u256.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define BNR_MONT_MULX 1
#endif

namespace bnr {

class Rng;

namespace detail {

#if BNR_MONT_MULX
/// True when this CPU has bmi2 and adx: read from cpuid once, while the
/// library's static objects are initialised (fp.cpp), and never written
/// after. It reads false before that, so a multiply that runs during static
/// initialisation takes the portable kernel, which gives the same bytes.
extern const bool mont_use_mulx;
#endif

constexpr uint64_t mont_inv64(const U256& mod) {
  // Newton iteration for mod^{-1} mod 2^64 (mod odd), then negate.
  uint64_t x = mod.w[0];
  for (int i = 0; i < 6; ++i) x *= 2 - mod.w[0] * x;
  return ~x + 1;
}

constexpr U256 double_mod(const U256& a, const U256& mod) {
  // Valid for a < mod < 2^255: the doubled value fits 256 bits.
  U256 d;
  U256::add(a, a, d);
  if (d >= mod) {
    U256 t;
    U256::sub(d, mod, t);
    d = t;
  }
  return d;
}

constexpr U256 mont_r(const U256& mod) {
  U256 r = U256::one();
  for (int i = 0; i < 256; ++i) r = double_mod(r, mod);
  return r;
}

constexpr U256 mont_r2(const U256& mod) {
  U256 r = U256::one();
  for (int i = 0; i < 512; ++i) r = double_mod(r, mod);
  return r;
}

}  // namespace detail

struct FpTag {
  static constexpr const char* kName = "Fp";
  // p = 21888242871839275222246405745257275088696311157297823662689037894645226208583
  static constexpr U256 kModulus{{0x3c208c16d87cfd47ull, 0x97816a916871ca8dull,
                                  0xb85045b68181585dull, 0x30644e72e131a029ull}};
};

struct FrTag {
  static constexpr const char* kName = "Fr";
  // r = 21888242871839275222246405745257275088548364400416034343698204186575808495617
  static constexpr U256 kModulus{{0x43e1f593f0000001ull, 0x2833e84879b97091ull,
                                  0xb85045b68181585dull, 0x30644e72e131a029ull}};
};

template <class Tag>
class Mont {
 public:
  static constexpr U256 kMod = Tag::kModulus;
  // With the top bit clear, a sum of two elements never carries out of the
  // top limb, which the add kernel's correction relies on.
  static_assert((kMod.w[3] >> 63) == 0, "Mont needs a modulus below 2^255");
  static constexpr uint64_t kInv = detail::mont_inv64(kMod);
  static constexpr U256 kR = detail::mont_r(kMod);
  static constexpr U256 kR2 = detail::mont_r2(kMod);

  constexpr Mont() = default;

  static Mont zero() { return Mont(); }
  static Mont one() {
    Mont m;
    m.v_ = kR;
    return m;
  }
  static Mont from_u64(uint64_t v) {
    Mont m;
    m.v_ = mul_redc(U256::from_u64(v), kR2);
    return m;
  }
  /// Requires v < modulus.
  static Mont from_u256(const U256& v) {
    if (!(v < kMod)) throw std::invalid_argument("Mont::from_u256: v >= mod");
    Mont m;
    m.v_ = mul_redc(v, kR2);
    return m;
  }
  /// Reduces an arbitrary 256-bit value mod the modulus.
  static Mont from_u256_reduce(U256 v) {
    while (!(v < kMod)) {
      U256 t;
      U256::sub(v, kMod, t);
      v = t;
    }
    return from_u256(v);
  }
  static Mont from_dec(std::string_view s) {
    return from_u256_reduce(U256::from_dec(s));
  }
  static Mont from_bytes_be(std::span<const uint8_t> bytes) {
    return from_u256(U256::from_bytes_be(bytes));
  }
  /// Interprets 32 hash output bytes as a field element (with reduction).
  static Mont from_hash_bytes(std::span<const uint8_t> bytes) {
    return from_u256_reduce(U256::from_bytes_be(bytes));
  }
  /// Uniform random element (rejection sampling).
  static Mont random(Rng& rng);

  bool is_zero() const { return v_.is_zero(); }
  bool operator==(const Mont& o) const { return v_ == o.v_; }
  bool operator!=(const Mont& o) const { return !(v_ == o.v_); }

  Mont operator+(const Mont& o) const {
    Mont r;
    r.v_ = add_mod(v_, o.v_);
    return r;
  }
  Mont operator-(const Mont& o) const {
    Mont r;
    r.v_ = sub_mod(v_, o.v_);
    return r;
  }
  Mont operator-() const { return zero() - *this; }
  [[gnu::always_inline]] Mont operator*(const Mont& o) const {
    Mont r;
    r.v_ = mul_redc(v_, o.v_);
    return r;
  }
  Mont squared() const { return *this * *this; }
  Mont doubled() const { return *this + *this; }

  /// The multiply kernels by name, for the tests that compare them:
  /// operator* takes mul_mulx where the CPU has bmi2 and adx, and
  /// mul_portable everywhere else.
  static Mont mul_portable(const Mont& a, const Mont& b) {
    Mont r;
    r.v_ = mul_redc_portable(a.v_, b.v_);
    return r;
  }
#if BNR_MONT_MULX
  /// Requires bmi2 and adx.
  static Mont mul_mulx(const Mont& a, const Mont& b) {
    Mont r;
    r.v_ = mul_redc_mulx(a.v_, b.v_);
    return r;
  }
#endif

  // Double-width arithmetic, for the tower's lazy reduction: products of
  // Montgomery words stay 512 bits wide through their sums and differences,
  // and one reduction per output coefficient ends them. With p < 2^254, a
  // product of two words below 2p is below 4p^2 < p 2^256, the bound redc
  // takes, so an unreduced sum of two elements may feed mul_wide.
  static_assert((kMod.w[3] >> 62) == 0, "the wide kernels need p < 2^254");

  /// A double-width value below p 2^256, little-endian limbs: a product of
  /// two words, or a sum or difference of such products modulo p 2^256.
  /// redc maps t to the element whose word is t / 2^256 mod p.
  struct Wide {
    std::array<uint64_t, 8> w{};
    bool operator==(const Wide&) const = default;
  };

  /// The Montgomery word (below p): what mul_wide multiplies.
  const U256& word() const { return v_; }
  /// a + b unreduced: a word below 2p, which cannot carry (p < 2^255).
  static U256 add_lazy(const Mont& a, const Mont& b) {
    U256 s;
    U256::add(a.v_, b.v_, s);
    return s;
  }
  /// a - b + p unreduced: a word in (0, 2p), congruent to a - b.
  static U256 sub_lazy(const Mont& a, const Mont& b) {
    U256 s;
    U256::add(a.v_, kMod, s);
    U256::sub(s, b.v_, s);
    return s;
  }

  /// The full product a * b of two words below 2p, by the kernel selected
  /// for this CPU (as mul_redc chooses); both give the same limbs.
  [[gnu::always_inline]] static Wide mul_wide(const U256& a, const U256& b) {
#if BNR_MONT_MULX
    if (detail::mont_use_mulx) return mul_wide_mulx(a, b);
#endif
    return mul_wide_portable(a, b);
  }
  /// The canonical element t / 2^256 mod p for t < p 2^256, by the kernel
  /// selected for this CPU.
  [[gnu::always_inline]] static Mont redc(const Wide& t) {
#if BNR_MONT_MULX
    if (detail::mont_use_mulx) return redc_mulx(t);
#endif
    return redc_portable(t);
  }

  /// (a + b) mod p 2^256 for a, b < p 2^256. The sum is below
  /// 2p 2^256 < 2^511, so it cannot carry out, and it reaches p 2^256
  /// exactly when its high half reaches p, since the low half of p 2^256 is
  /// zero: p comes off the high half, masked by that subtraction's borrow.
  static Wide add_wide(const Wide& a, const Wide& b) {
    Wide s;
    Carry c = 0;
    for (int i = 0; i < 8; ++i) c = addc(c, a.w[i], b.w[i], s.w[i]);
    const U256 hi{{s.w[4], s.w[5], s.w[6], s.w[7]}};
    U256 d;
    const uint64_t borrow = U256::sub(hi, kMod, d);
    const U256 r = select(0 - borrow, hi, d);
    for (int i = 0; i < 4; ++i) s.w[4 + i] = r.w[i];
    return s;
  }
  /// (a - b) mod p 2^256 for a, b < p 2^256. A borrow out leaves
  /// a - b + 2^512; adding p to the high half, masked by the borrow, makes
  /// it a - b + p 2^256 once the carry out of the top limb drops.
  static Wide sub_wide(const Wide& a, const Wide& b) {
    Wide d;
    Carry c = 0;
    for (int i = 0; i < 8; ++i) c = subb(c, a.w[i], b.w[i], d.w[i]);
    const uint64_t mask = 0 - uint64_t(c);
    Carry k = 0;
    for (int i = 0; i < 4; ++i)
      k = addc(k, d.w[4 + i], kMod.w[i] & mask, d.w[4 + i]);
    return d;
  }
  /// a - b with no correction, for a >= b: the caller writes the bound.
  static Wide sub_wide_plain(const Wide& a, const Wide& b) {
    Wide d;
    Carry c = 0;
    for (int i = 0; i < 8; ++i) c = subb(c, a.w[i], b.w[i], d.w[i]);
    return d;
  }

  /// The double-width kernels by name, for the tests that compare them.
  /// Schoolbook rows on mul_add_row: row i adds a_i * b to the window and
  /// retires its low limb. A window holds the running sum shifted down by
  /// the retired limbs, below 2^256 before a row, and a row adds
  /// a_i * b < 2^320 - 2^256, so five limbs hold it and no row carries out.
  static Wide mul_wide_portable(const U256& a, const U256& b) {
    Wide r;
    uint64_t t[5] = {0, 0, 0, 0, 0};
    for (int i = 0; i < 4; ++i) {
      mul_add_row(t, a.w[i], b);
      r.w[i] = t[0];
      for (int j = 0; j < 4; ++j) t[j] = t[j + 1];
      t[4] = 0;
    }
    for (int j = 0; j < 4; ++j) r.w[4 + j] = t[j];
    return r;
  }
  /// Four m * p rows over the low half L of t, as in mul_redc_portable:
  /// each clears the window's low limb and retires it. The window stays
  /// below 2^256 before a row (L < 2^256, then (2^256 + 2^64 p) / 2^64 <
  /// 2^256), so no row carries out, and the rows leave
  /// u = (L + M p) / 2^256 < (2^256 + 2^256 p) / 2^256, so u <= p, for the
  /// M < 2^256 they add. redc_finish adds the high half.
  static Mont redc_portable(const Wide& t) {
    uint64_t w[5] = {t.w[0], t.w[1], t.w[2], t.w[3], 0};
    for (int i = 0; i < 4; ++i) {
      mul_add_row(w, w[0] * kInv, kMod);  // w[0] is now zero
      for (int j = 0; j < 4; ++j) w[j] = w[j + 1];
      w[4] = 0;
    }
    return redc_finish(U256{{w[0], w[1], w[2], w[3]}}, t);
  }

  /// Multiplicative inverse via binary extended GCD. Throws on zero.
  Mont inverse() const {
    if (is_zero()) throw std::domain_error("Mont::inverse: zero");
    U256 plain_inv = binary_inverse(v_);
    Mont r;
    r.v_ = mul_redc(mul_redc(plain_inv, kR2), kR2);
    return r;
  }

  /// True iff the element is a square (zero included): the binary Jacobi
  /// symbol of the Montgomery representation, which has the same symbol
  /// because R = 2^256 is a square. A fraction of the cost of sqrt().
  /// Variable time: public inputs only.
  bool is_square() const {
    U256 a = v_, n = kMod;
    bool negated = false;
    while (!a.is_zero()) {
      // Strip all factors of two at once; (2/n) = -1 iff n = 3, 5 (mod 8).
      const unsigned twos = a.countr_zero();
      a = a.shr(twos);
      const uint64_t n8 = n.w[0] & 7;
      if ((twos & 1) && (n8 == 3 || n8 == 5)) negated = !negated;
      // Both odd: reciprocity flips the sign iff both are 3 (mod 4).
      if (a < n) {
        std::swap(a, n);
        if ((a.w[0] & n.w[0] & 3) == 3) negated = !negated;
      }
      U256::sub(a, n, a);
    }
    return !negated;
  }

  /// Square root for moduli with p = 3 (mod 4); nullopt if non-residue.
  /// Raises to the constant (p+1)/4 through fixed width-5 windows over the
  /// odd powers x, x^3, ..., x^31: about 250 squarings and 65 multiplies.
  std::optional<Mont> sqrt() const {
    static_assert((kMod.w[0] & 3) == 3, "sqrt() requires p = 3 (mod 4)");
    constexpr U256 kExp = [] {
      U256 e;
      U256::add(kMod, U256::one(), e);
      return e.shr2();
    }();
    constexpr size_t kW = 5;
    std::array<Mont, size_t(1) << (kW - 1)> odd;  // odd[i] = x^(2i+1)
    odd[0] = *this;
    const Mont x2 = squared();
    for (size_t i = 1; i < odd.size(); ++i) odd[i] = odd[i - 1] * x2;
    // A window digit d = m * 2^z with m odd multiplies by x^m z squarings
    // before the window ends. The top window is nonzero by construction.
    size_t w = (kExp.bit_length() + kW - 1) / kW - 1;
    uint64_t d = kExp.bits(w * kW, kW);
    unsigned z = static_cast<unsigned>(std::countr_zero(d));
    Mont s = odd[d >> (z + 1)];
    for (unsigned i = 0; i < z; ++i) s = s.squared();
    while (w-- > 0) {
      d = kExp.bits(w * kW, kW);
      z = d == 0 ? kW : static_cast<unsigned>(std::countr_zero(d));
      for (unsigned i = 0; i < kW - z; ++i) s = s.squared();
      if (d != 0) s = s * odd[d >> (z + 1)];
      for (unsigned i = 0; i < z; ++i) s = s.squared();
    }
    if (s.squared() == *this) return s;
    return std::nullopt;
  }

  Mont pow(const U256& exp) const {
    return pow_limbs(std::span<const uint64_t>(exp.w.data(), 4));
  }
  Mont pow_limbs(std::span<const uint64_t> exp) const;

  /// Canonical (non-Montgomery) value.
  U256 to_u256() const { return mul_redc(v_, U256::one()); }
  std::array<uint8_t, 32> to_bytes_be() const { return to_u256().to_bytes_be(); }
  uint64_t to_u64() const {
    U256 v = to_u256();
    if (v.w[1] || v.w[2] || v.w[3]) throw std::overflow_error("Mont::to_u64");
    return v.w[0];
  }

  /// True if the canonical value is odd (used for point-compression signs).
  bool is_odd() const { return (to_u256().w[0] & 1) != 0; }

 private:
  // The kernels below are carry chains (bn/u256.hpp addc/subb, or adcx/adox
  // in the mulx multiply) followed by a correction chosen by mask
  // arithmetic: they compare nothing and take no branch on the data. The
  // multiply's dispatch branches on the CPU, never on the operands. That is
  // not yet a constant-time signing path: pow, inverse and the curve's
  // scalar multiplication still branch.

  /// a where `keep_a` is all ones, b where it is zero. One expression per
  /// limb: GCC 12 vectorizes the same select written as a loop over the
  /// limbs through a stack round trip that costs more than an add.
  static U256 select(uint64_t keep_a, const U256& a, const U256& b) {
    auto pick = [&](int i) { return b.w[i] ^ ((a.w[i] ^ b.w[i]) & keep_a); };
    return U256{{pick(0), pick(1), pick(2), pick(3)}};
  }

  /// (a + b) mod p for a, b < p. The sum cannot carry out of the top limb
  /// (p < 2^255), so it is s when s - p borrows and s - p otherwise.
  static U256 add_mod(const U256& a, const U256& b) {
    U256 s, d;
    U256::add(a, b, s);
    const uint64_t borrow = U256::sub(s, kMod, d);
    return select(0 - borrow, s, d);
  }

  /// (a - b) mod p for a, b < p: adds back p masked by the borrow.
  static U256 sub_mod(const U256& a, const U256& b) {
    U256 d, p;
    const uint64_t mask = 0 - U256::sub(a, b, d);
    for (int i = 0; i < 4; ++i) p.w[i] = kMod.w[i] & mask;
    U256::add(d, p, d);
    return d;
  }

  /// t[0..4] += x * y: the low halves of the four 64x64 products on one
  /// carry chain, the high halves one limb up on a second. Returns the
  /// carry out of t[4].
  static uint64_t mul_add_row(uint64_t (&t)[5], uint64_t x, const U256& y) {
    uint64_t lo[4], hi[4];
    for (int j = 0; j < 4; ++j) {
      const unsigned __int128 prod = (unsigned __int128)x * y.w[j];
      lo[j] = static_cast<uint64_t>(prod);
      hi[j] = static_cast<uint64_t>(prod >> 64);
    }
    Carry cl = 0, ch = 0;
    for (int j = 0; j < 4; ++j) cl = addc(cl, t[j], lo[j], t[j]);
    cl = addc(cl, t[4], 0, t[4]);
    for (int j = 0; j < 4; ++j) ch = addc(ch, t[j + 1], hi[j], t[j + 1]);
    return uint64_t(cl) + ch;
  }

  /// Montgomery product a * b / 2^256 mod p, by the kernel selected for
  /// this CPU; both give the same bytes. Always inlined, as are operator*
  /// and the mulx kernel: GCC prices an asm block by its line count, and
  /// without the attribute it stops inlining the multiply into the tower
  /// and curve code, which then pays a call and a 32-byte result through
  /// memory per product (about 8% of perfbench's combine throughput on a
  /// 4-vCPU x86-64 VM).
  [[gnu::always_inline]] static U256 mul_redc(const U256& a, const U256& b) {
#if BNR_MONT_MULX
    if (detail::mont_use_mulx) return mul_redc_mulx(a, b);
#endif
    return mul_redc_portable(a, b);
  }

  /// Montgomery product a * b / 2^256 mod p (CIOS): per limb of a, add
  /// a_i * b, then m * p with m chosen to clear the low limb, and shift down
  /// a limb. The result lies in [0, 2p); one masked subtraction ends it.
  static U256 mul_redc_portable(const U256& a, const U256& b) {
    uint64_t t[5] = {0, 0, 0, 0, 0};
    for (int i = 0; i < 4; ++i) {
      uint64_t top = mul_add_row(t, a.w[i], b);
      const uint64_t m = t[0] * kInv;
      top += mul_add_row(t, m, kMod);  // t[0] is now zero
      for (int j = 0; j < 4; ++j) t[j] = t[j + 1];
      t[4] = top;
    }
    // t - p over all five limbs borrows iff t < p.
    const U256 r{{t[0], t[1], t[2], t[3]}};
    U256 d;
    uint64_t high;
    Carry borrow = 0;
    for (int j = 0; j < 4; ++j)
      borrow = subb(borrow, r.w[j], kMod.w[j], d.w[j]);
    borrow = subb(borrow, t[4], 0, high);
    return select(0 - uint64_t(borrow), r, d);
  }

#if BNR_MONT_MULX
  // One round of mul_redc_mulx over the window W0..W4 of the running sum:
  // the row a_i * b with rdx = a_i, then the row m * p with rdx = m. Each
  // row's products put their low halves on the adox (OF) chain and their
  // high halves, one limb up, on the adcx (CF) chain. The xor before each
  // row clears CF and OF, which the bound below says are clear already (and
  // imul is not flag-free), so a row need not wait for the last flags of the
  // row before it. mul_wide_mulx runs the first row alone, and redc_mulx
  // the second.
#define BNR_MULX_ROW_AB(i, W0, W1, W2, W3, W4) \
  "xorl %k[lo], %k[lo]\n\t"                    \
  "movq 8*" #i "(%[a]), %%rdx\n\t"             \
  "mulxq (%[b]), %[lo], %[hi]\n\t"             \
  "adoxq %[lo], %[" #W0 "]\n\t"                \
  "adcxq %[hi], %[" #W1 "]\n\t"                \
  "mulxq 8(%[b]), %[lo], %[hi]\n\t"            \
  "adoxq %[lo], %[" #W1 "]\n\t"                \
  "adcxq %[hi], %[" #W2 "]\n\t"                \
  "mulxq 16(%[b]), %[lo], %[hi]\n\t"           \
  "adoxq %[lo], %[" #W2 "]\n\t"                \
  "adcxq %[hi], %[" #W3 "]\n\t"                \
  "mulxq 24(%[b]), %[lo], %[hi]\n\t"           \
  "adoxq %[lo], %[" #W3 "]\n\t"                \
  "adcxq %[" #W4 "], %[hi]\n\t"                \
  "adoxq %[hi], %[" #W4 "]\n\t"
#define BNR_MULX_ROW_MP(W0, W1, W2, W3, W4) \
  "movabsq %[inv], %%rdx\n\t"                \
  "imulq %[" #W0 "], %%rdx\n\t"              \
  "xorl %k[lo], %k[lo]\n\t"                  \
  "mulxq (%[p]), %[lo], %[hi]\n\t"           \
  "adoxq %[lo], %[" #W0 "]\n\t"              \
  "adcxq %[hi], %[" #W1 "]\n\t"              \
  "mulxq 8(%[p]), %[lo], %[hi]\n\t"          \
  "adoxq %[lo], %[" #W1 "]\n\t"              \
  "adcxq %[hi], %[" #W2 "]\n\t"              \
  "mulxq 16(%[p]), %[lo], %[hi]\n\t"         \
  "adoxq %[lo], %[" #W2 "]\n\t"              \
  "adcxq %[hi], %[" #W3 "]\n\t"              \
  "mulxq 24(%[p]), %[lo], %[hi]\n\t"         \
  "adoxq %[lo], %[" #W3 "]\n\t"              \
  "adcxq %[hi], %[" #W4 "]\n\t"              \
  "adoxq %[" #W0 "], %[" #W4 "]\n\t"
#define BNR_MULX_ROUND(i, W0, W1, W2, W3, W4) \
  BNR_MULX_ROW_AB(i, W0, W1, W2, W3, W4)      \
  BNR_MULX_ROW_MP(W0, W1, W2, W3, W4)

  /// mul_redc_portable's CIOS with mulx, adcx and adox (bmi2 and adx).
  /// mulx multiplies by rdx without touching the flags, and adcx and adox
  /// carry through CF and OF alone, so a row's two chains interleave with
  /// its products and nothing spills. In the portable kernel every 64x64
  /// mul clobbers the carry flag both chains need, and GCC 12 compiles it
  /// with ~90 stack references per multiply. It is asm, not intrinsics:
  /// GCC 12 lowers `_addcarryx_u64` to plain adc, and a function built with
  /// target("bmi2,adx") cannot inline into the untargeted tower code.
  ///
  /// Why five limbs suffice and neither chain carries out: a round starts
  /// from t < 2p (t = 0 before the first) and adds a_i * b and m * p, each
  /// below 2^64 p, so the sum stays below 2^65 p < 2^320 (p < 2^255 is
  /// asserted above). A chain that carried out of the top limb would put
  /// the total at 2^320 or more, so none does, and nothing is lost.
  /// m = t_0 * (-p^-1) mod 2^64 clears the low limb, and dropping it leaves
  /// the sum / 2^64 < 2p < 2^256 for the next round, so the last round ends
  /// in [0, 2p) in four limbs, and one masked subtraction finishes.
  ///
  /// The four rounds are unrolled over five registers that rotate instead
  /// of shifting: the limb a round clears becomes the next round's top
  /// limb, which must start at zero. They also stand in for a zero
  /// register: in the row a_i * b the top limb, still zero, carries CF
  /// into the top, and in the row m * p the cleared low limb carries OF.
  /// The memory operands name what the asm reads through a and b; p is a
  /// constant nothing writes.
  [[gnu::always_inline]] static U256 mul_redc_mulx(const U256& a,
                                                   const U256& b) {
    uint64_t t0, t1, t2, t3, t4, lo, hi;
    asm("xorl %k[t0], %k[t0]\n\t"
        "xorl %k[t1], %k[t1]\n\t"
        "xorl %k[t2], %k[t2]\n\t"
        "xorl %k[t3], %k[t3]\n\t"
        "xorl %k[t4], %k[t4]\n\t"
        BNR_MULX_ROUND(0, t0, t1, t2, t3, t4)
        BNR_MULX_ROUND(1, t1, t2, t3, t4, t0)
        BNR_MULX_ROUND(2, t2, t3, t4, t0, t1)
        BNR_MULX_ROUND(3, t3, t4, t0, t1, t2)
        : [t0] "=&r"(t0), [t1] "=&r"(t1), [t2] "=&r"(t2), [t3] "=&r"(t3),
          [t4] "=&r"(t4), [lo] "=&r"(lo), [hi] "=&r"(hi)
        : [a] "r"(a.w.data()), [b] "r"(b.w.data()), [p] "r"(kMod.w.data()),
          [inv] "i"(kInv), "m"(a), "m"(b)
        : "rdx", "cc");
    // After round 3 the window is (t4, t0, t1, t2), and t3 is the zero.
    const U256 r{{t4, t0, t1, t2}};
    U256 d;
    const uint64_t borrow = U256::sub(r, kMod, d);
    return select(0 - borrow, r, d);
  }

 public:
  /// mul_wide_portable with mulx, adcx and adox: the a_i * b rows of
  /// mul_redc_mulx alone (requires bmi2 and adx). Each row starts from a
  /// window below 2^256 whose top limb is zero and adds a_i * b <
  /// 2^320 - 2^256, so neither chain carries out, as in mul_redc_mulx. The
  /// low limb a row completes is stored and zeroed, and becomes the next
  /// row's top limb; after the last row the window is the high half.
  [[gnu::always_inline]] static Wide mul_wide_mulx(const U256& a,
                                                   const U256& b) {
    Wide r;
    uint64_t t0, t1, t2, t3, t4, lo, hi;
    asm("xorl %k[t0], %k[t0]\n\t"
        "xorl %k[t1], %k[t1]\n\t"
        "xorl %k[t2], %k[t2]\n\t"
        "xorl %k[t3], %k[t3]\n\t"
        "xorl %k[t4], %k[t4]\n\t"
        BNR_MULX_ROW_AB(0, t0, t1, t2, t3, t4)
        "movq %[t0], (%[r])\n\t"
        "xorl %k[t0], %k[t0]\n\t"
        BNR_MULX_ROW_AB(1, t1, t2, t3, t4, t0)
        "movq %[t1], 8(%[r])\n\t"
        "xorl %k[t1], %k[t1]\n\t"
        BNR_MULX_ROW_AB(2, t2, t3, t4, t0, t1)
        "movq %[t2], 16(%[r])\n\t"
        "xorl %k[t2], %k[t2]\n\t"
        BNR_MULX_ROW_AB(3, t3, t4, t0, t1, t2)
        "movq %[t3], 24(%[r])\n\t"
        : [t0] "=&r"(t0), [t1] "=&r"(t1), [t2] "=&r"(t2), [t3] "=&r"(t3),
          [t4] "=&r"(t4), [lo] "=&r"(lo), [hi] "=&r"(hi), "=m"(r)
        : [a] "r"(a.w.data()), [b] "r"(b.w.data()), [r] "r"(r.w.data()),
          "m"(a), "m"(b)
        : "rdx", "cc");
    r.w[4] = t4;
    r.w[5] = t0;
    r.w[6] = t1;
    r.w[7] = t2;
    return r;
  }
  /// redc_portable with mulx, adcx and adox: the four m * p rows of
  /// mul_redc_mulx alone over the low half (requires bmi2 and adx), on the
  /// same rotating window and within redc_portable's bound.
  [[gnu::always_inline]] static Mont redc_mulx(const Wide& t) {
    uint64_t t0 = t.w[0], t1 = t.w[1], t2 = t.w[2], t3 = t.w[3], t4, lo, hi;
    asm("xorl %k[t4], %k[t4]\n\t"
        BNR_MULX_ROW_MP(t0, t1, t2, t3, t4)
        BNR_MULX_ROW_MP(t1, t2, t3, t4, t0)
        BNR_MULX_ROW_MP(t2, t3, t4, t0, t1)
        BNR_MULX_ROW_MP(t3, t4, t0, t1, t2)
        : [t0] "+r"(t0), [t1] "+r"(t1), [t2] "+r"(t2), [t3] "+r"(t3),
          [t4] "=&r"(t4), [lo] "=&r"(lo), [hi] "=&r"(hi)
        : [p] "r"(kMod.w.data()), [inv] "i"(kInv)
        : "rdx", "cc");
    return redc_finish(U256{{t4, t0, t1, t2}}, t);
  }

 private:
#undef BNR_MULX_ROUND
#undef BNR_MULX_ROW_MP
#undef BNR_MULX_ROW_AB
#endif

  /// Ends a reduction: u <= p from the m * p rows, plus the high half of
  /// t (below p, as t < p 2^256), is below 2p < 2^255; one masked
  /// subtraction makes it canonical.
  static Mont redc_finish(U256 u, const Wide& t) {
    U256::add(u, U256{{t.w[4], t.w[5], t.w[6], t.w[7]}}, u);
    U256 d;
    const uint64_t borrow = U256::sub(u, kMod, d);
    Mont m;
    m.v_ = select(0 - borrow, u, d);
    return m;
  }

  static U256 half_mod(const U256& x) {
    // x/2 mod p for odd p: if x even then x>>1 else (x+p)>>1.
    if (x.is_even()) return x.shr1();
    U256 t;
    uint64_t carry = U256::add(x, kMod, t);
    U256 h = t.shr1();
    if (carry) h.w[3] |= (uint64_t(1) << 63);
    return h;
  }

  static U256 binary_inverse(U256 x) {
    U256 u = x, v = kMod;
    U256 x1 = U256::one(), x2 = U256::zero();
    while (!(u == U256::one()) && !(v == U256::one())) {
      while (u.is_even()) {
        u = u.shr1();
        x1 = half_mod(x1);
      }
      while (v.is_even()) {
        v = v.shr1();
        x2 = half_mod(x2);
      }
      if (u >= v) {
        U256 t;
        U256::sub(u, v, t);
        u = t;
        x1 = sub_mod(x1, x2);
      } else {
        U256 t;
        U256::sub(v, u, t);
        v = t;
        x2 = sub_mod(x2, x1);
      }
    }
    return u == U256::one() ? x1 : x2;
  }

  U256 v_{};  // Montgomery representation
};

using Fp = Mont<FpTag>;
using Fr = Mont<FrTag>;

/// Generic MSB-first square-and-multiply; works for any multiplicative type
/// exposing one(), squared(), operator*.
template <class F>
F field_pow(const F& base, std::span<const uint64_t> exp) {
  F result = F::one();
  bool any = false;
  for (size_t i = exp.size(); i-- > 0;) {
    for (int b = 63; b >= 0; --b) {
      if (any) result = result.squared();
      if ((exp[i] >> b) & 1) {
        result = result * base;
        any = true;
      }
    }
  }
  return result;
}

template <class Tag>
Mont<Tag> Mont<Tag>::pow_limbs(std::span<const uint64_t> exp) const {
  return field_pow(*this, exp);
}

}  // namespace bnr
