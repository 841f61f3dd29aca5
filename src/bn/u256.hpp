// Fixed-width 256-bit unsigned integer: the representation under the
// Montgomery fields in src/field. Little-endian 64-bit limbs.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/bytes.hpp"

namespace bnr {

/// Carry (or borrow) bit threaded through a multi-limb chain: 0 or 1.
using Carry = unsigned char;

/// out = a + b + c; returns the carry out. One link of an add-with-carry
/// chain: on x86-64 the `_addcarry_u64` intrinsic, which GCC and Clang
/// chain into adc; elsewhere 128-bit arithmetic. Constant evaluation (the
/// compile-time Montgomery constants) takes the 128-bit formula, since the
/// intrinsic is not constexpr.
constexpr Carry addc(Carry c, uint64_t a, uint64_t b, uint64_t& out) {
#if defined(__x86_64__)
  if (!std::is_constant_evaluated()) {
    unsigned long long r;
    c = _addcarry_u64(c, a, b, &r);
    out = r;
    return c;
  }
#endif
  const unsigned __int128 s = (unsigned __int128)a + b + c;
  out = static_cast<uint64_t>(s);
  return static_cast<Carry>(s >> 64);
}

/// out = a - b - c; returns the borrow out. The sbb counterpart of addc.
constexpr Carry subb(Carry c, uint64_t a, uint64_t b, uint64_t& out) {
#if defined(__x86_64__)
  if (!std::is_constant_evaluated()) {
    unsigned long long r;
    c = _subborrow_u64(c, a, b, &r);
    out = r;
    return c;
  }
#endif
  const unsigned __int128 d = (unsigned __int128)a - b - c;
  out = static_cast<uint64_t>(d);
  return static_cast<Carry>((d >> 64) & 1);
}

struct U256 {
  // w[0] is the least significant limb.
  std::array<uint64_t, 4> w{0, 0, 0, 0};

  constexpr bool operator==(const U256&) const = default;

  static constexpr U256 zero() { return U256{}; }
  static constexpr U256 one() { return U256{{1, 0, 0, 0}}; }
  static constexpr U256 from_u64(uint64_t v) { return U256{{v, 0, 0, 0}}; }

  constexpr bool is_zero() const {
    return w[0] == 0 && w[1] == 0 && w[2] == 0 && w[3] == 0;
  }
  constexpr bool is_even() const { return (w[0] & 1) == 0; }

  constexpr bool bit(size_t i) const {
    return (w[i / 64] >> (i % 64)) & 1;
  }

  /// The `count` (< 64) bits starting at bit `pos` (< 256), crossing limb
  /// boundaries; bits above 255 read as zero.
  constexpr uint64_t bits(size_t pos, size_t count) const {
    const size_t limb = pos / 64, off = pos % 64;
    uint64_t d = w[limb] >> off;
    if (off + count > 64 && limb + 1 < 4) d |= w[limb + 1] << (64 - off);
    return d & ((uint64_t(1) << count) - 1);
  }

  /// Number of trailing zero bits (256 for zero).
  constexpr unsigned countr_zero() const {
    for (unsigned i = 0; i < 4; ++i)
      if (w[i] != 0)
        return 64 * i + static_cast<unsigned>(std::countr_zero(w[i]));
    return 256;
  }

  /// Number of significant bits (0 for zero).
  constexpr size_t bit_length() const {
    for (int i = 3; i >= 0; --i) {
      if (w[i] != 0) {
        size_t top = 64;
        uint64_t v = w[i];
        while (!(v >> 63)) {
          v <<= 1;
          --top;
        }
        return static_cast<size_t>(i) * 64 + top;
      }
    }
    return 0;
  }

  /// -1, 0, +1 comparison.
  static constexpr int cmp(const U256& a, const U256& b) {
    for (int i = 3; i >= 0; --i) {
      if (a.w[i] < b.w[i]) return -1;
      if (a.w[i] > b.w[i]) return 1;
    }
    return 0;
  }
  constexpr bool operator<(const U256& o) const { return cmp(*this, o) < 0; }
  constexpr bool operator>=(const U256& o) const { return cmp(*this, o) >= 0; }

  /// out = a + b; returns carry. `out` may alias either input.
  static constexpr uint64_t add(const U256& a, const U256& b, U256& out) {
    Carry c = 0;
    for (int i = 0; i < 4; ++i) c = addc(c, a.w[i], b.w[i], out.w[i]);
    return c;
  }

  /// out = a - b; returns borrow. `out` may alias either input.
  static constexpr uint64_t sub(const U256& a, const U256& b, U256& out) {
    Carry c = 0;
    for (int i = 0; i < 4; ++i) c = subb(c, a.w[i], b.w[i], out.w[i]);
    return c;
  }

  constexpr U256 shr1() const {
    U256 r;
    for (int i = 0; i < 4; ++i) {
      r.w[i] = w[i] >> 1;
      if (i < 3) r.w[i] |= w[i + 1] << 63;
    }
    return r;
  }

  constexpr U256 shr2() const { return shr1().shr1(); }

  /// this >> s for s < 256.
  constexpr U256 shr(unsigned s) const {
    const unsigned limbs = s / 64, off = s % 64;
    U256 r;
    for (unsigned i = 0; i + limbs < 4; ++i) {
      r.w[i] = w[i + limbs] >> off;
      if (off != 0 && i + limbs + 1 < 4)
        r.w[i] |= w[i + limbs + 1] << (64 - off);
    }
    return r;
  }

  /// this * m + a, where the result must fit 256 bits (throws otherwise).
  U256 small_mul_add(uint64_t m, uint64_t a) const {
    U256 r;
    unsigned __int128 carry = a;
    for (int i = 0; i < 4; ++i) {
      unsigned __int128 cur = (unsigned __int128)w[i] * m + carry;
      r.w[i] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    if (carry != 0) throw std::overflow_error("U256::small_mul_add overflow");
    return r;
  }

  /// Parses a decimal string. Throws on malformed input or overflow.
  static U256 from_dec(std::string_view s) {
    if (s.empty()) throw std::invalid_argument("U256::from_dec: empty");
    U256 r;
    for (char c : s) {
      if (c < '0' || c > '9')
        throw std::invalid_argument("U256::from_dec: bad digit");
      r = r.small_mul_add(10, static_cast<uint64_t>(c - '0'));
    }
    return r;
  }

  /// Parses a hex string (optionally 0x-prefixed).
  static U256 from_hex(std::string_view s) {
    if (s.substr(0, 2) == "0x" || s.substr(0, 2) == "0X") s.remove_prefix(2);
    U256 r;
    for (char c : s) {
      int n;
      if (c >= '0' && c <= '9')
        n = c - '0';
      else if (c >= 'a' && c <= 'f')
        n = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F')
        n = c - 'A' + 10;
      else
        throw std::invalid_argument("U256::from_hex: bad digit");
      r = r.small_mul_add(16, static_cast<uint64_t>(n));
    }
    return r;
  }

  /// 32-byte big-endian encoding.
  std::array<uint8_t, 32> to_bytes_be() const {
    std::array<uint8_t, 32> out;
    for (int i = 0; i < 4; ++i) {
      uint64_t limb = w[3 - i];
      for (int j = 0; j < 8; ++j)
        out[8 * i + j] = static_cast<uint8_t>(limb >> (56 - 8 * j));
    }
    return out;
  }

  static U256 from_bytes_be(std::span<const uint8_t> in) {
    if (in.size() != 32)
      throw std::invalid_argument("U256::from_bytes_be: need 32 bytes");
    U256 r;
    for (int i = 0; i < 4; ++i) {
      uint64_t limb = 0;
      for (int j = 0; j < 8; ++j) limb = (limb << 8) | in[8 * i + j];
      r.w[3 - i] = limb;
    }
    return r;
  }

  std::string to_hex() const {
    auto b = to_bytes_be();
    return bnr::to_hex(b);
  }
};

}  // namespace bnr
