#include "curve/hash_to_curve.hpp"

#include "common/sha256.hpp"

namespace bnr {

namespace {

Sha256::Digest labeled_hash(std::string_view dst, std::span<const uint8_t> msg,
                            uint32_t counter, uint8_t slot) {
  Sha256 h;
  Bytes prefix;
  append_u32_be(prefix, static_cast<uint32_t>(dst.size()));
  h.update(prefix);
  h.update(dst);
  h.update(msg);
  Bytes suffix;
  append_u32_be(suffix, counter);
  suffix.push_back(slot);
  h.update(suffix);
  return h.finalize();
}

}  // namespace

G1Affine hash_to_g1(std::string_view dst, std::span<const uint8_t> msg) {
  for (uint32_t counter = 0;; ++counter) {
    auto digest = labeled_hash(dst, msg, counter, 0);
    Fp x = Fp::from_hash_bytes(digest);
    Fp rhs = x.squared() * x + G1Curve::coeff_b();
    // About half the candidates are non-squares: the Jacobi symbol rejects
    // them without paying for a sqrt.
    if (!rhs.is_square()) continue;
    // Pick the sign from an independent hash bit so the output is uniform
    // over both roots.
    auto sign_digest = labeled_hash(dst, msg, counter, 1);
    Fp yy = *rhs.sqrt();
    if ((sign_digest[0] & 1) != (yy.is_odd() ? 1 : 0)) yy = -yy;
    return G1Affine::from_xy(x, yy);
  }
}

G1Affine hash_to_g1(std::string_view dst, std::string_view msg) {
  return hash_to_g1(dst, std::span<const uint8_t>(
                             reinterpret_cast<const uint8_t*>(msg.data()),
                             msg.size()));
}

G2Affine hash_to_g2(std::string_view dst, std::span<const uint8_t> msg) {
  for (uint32_t counter = 0;; ++counter) {
    auto d0 = labeled_hash(dst, msg, counter, 0);
    auto d1 = labeled_hash(dst, msg, counter, 1);
    Fp2 x{Fp::from_hash_bytes(d0), Fp::from_hash_bytes(d1)};
    Fp2 rhs = x.squared() * x + G2Curve::coeff_b();
    auto y = rhs.sqrt();
    if (!y) continue;
    auto sign_digest = labeled_hash(dst, msg, counter, 2);
    Fp2 yy = *y;
    bool odd = yy.c0.is_zero() ? yy.c1.is_odd() : yy.c0.is_odd();
    if ((sign_digest[0] & 1) != (odd ? 1 : 0)) yy = -yy;
    G2 cleared = g2_clear_cofactor(G2::from_affine(G2Affine::from_xy(x, yy)));
    if (cleared.is_identity()) continue;  // astronomically unlikely
    return cleared.to_affine();
  }
}

G2Affine hash_to_g2(std::string_view dst, std::string_view msg) {
  return hash_to_g2(dst, std::span<const uint8_t>(
                             reinterpret_cast<const uint8_t*>(msg.data()),
                             msg.size()));
}

std::vector<G1Affine> hash_to_g1_vector(std::string_view dst,
                                        std::span<const uint8_t> msg,
                                        size_t n) {
  std::vector<G1Affine> out;
  out.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    std::string sub_dst = std::string(dst) + "/vec" + std::to_string(k);
    out.push_back(hash_to_g1(sub_dst, msg));
  }
  return out;
}

}  // namespace bnr
