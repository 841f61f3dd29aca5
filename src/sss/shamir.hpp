// Shamir secret sharing over Fr and Lagrange interpolation, including the
// "interpolation in the exponent" used by Combine (Delta_{i,S}(0) weights).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/secret.hpp"
#include "curve/point.hpp"
#include "sss/polynomial.hpp"

namespace bnr {

struct Share {
  uint32_t index;  // player index, 1-based (x-coordinate)
  Secret<Fr> value;
};

/// Splits `secret` into n shares with threshold t (any t+1 reconstruct).
std::vector<Share> shamir_share(Rng& rng, const Fr& secret, size_t t, size_t n);

/// Lagrange coefficients Delta_{i,S}(x) for the index set S = `indices`,
/// evaluated at `x`. Indices must be distinct and nonzero.
std::vector<Fr> lagrange_coefficients(std::span<const uint32_t> indices,
                                      const Fr& x);

inline std::vector<Fr> lagrange_at_zero(std::span<const uint32_t> indices) {
  return lagrange_coefficients(indices, Fr::zero());
}

/// Interpolates the polynomial through `shares` at x = 0.
Fr shamir_reconstruct(std::span<const Share> shares);

/// Interpolates at arbitrary x (used by share recovery, §3.3).
Fr shamir_interpolate_at(std::span<const Share> shares, const Fr& x);

/// "Lagrange in the exponent": prod_i points[i]^{Delta_{i,S}(0)}, one msm.
/// `Point` is G1 or G2.
template <class Point>
Point combine_in_exponent(std::span<const Point> points,
                          std::span<const uint32_t> indices) {
  const auto coeffs = lagrange_at_zero(indices);
  return msm<Point>(points, coeffs);
}

}  // namespace bnr
