#include "sss/shamir.hpp"

#include <stdexcept>
#include <unordered_set>

#include "common/rng.hpp"

namespace bnr {

std::vector<Share> shamir_share(Rng& rng, const Fr& secret, size_t t,
                                size_t n) {
  if (n < t + 1) throw std::invalid_argument("shamir_share: n < t+1");
  Polynomial poly = Polynomial::random_with_constant(rng, t, secret);
  std::vector<Share> shares;
  shares.reserve(n);
  for (uint32_t i = 1; i <= n; ++i)
    shares.push_back({i, Secret<Fr>(poly.evaluate_at_index(i))});
  return shares;
}

std::vector<Fr> lagrange_coefficients(std::span<const uint32_t> indices,
                                      const Fr& x) {
  std::unordered_set<uint32_t> seen;
  for (uint32_t i : indices) {
    if (i == 0) throw std::invalid_argument("lagrange: zero index");
    if (!seen.insert(i).second)
      throw std::invalid_argument("lagrange: duplicate index");
  }
  // Delta_i = num_i / den_i with every den_i inverted by ONE inversion of
  // their product (Montgomery's trick); the indices are public. Distinct
  // indices below 2^32 < r keep every den_i nonzero.
  const size_t m = indices.size();
  std::vector<Fr> out(m), den(m), prefix(m);
  Fr acc = Fr::one();
  for (size_t a = 0; a < m; ++a) {
    Fr num = Fr::one(), d = Fr::one();
    const Fr xi = Fr::from_u64(indices[a]);
    for (uint32_t j : indices) {
      if (j == indices[a]) continue;
      const Fr xj = Fr::from_u64(j);
      num = num * (x - xj);
      d = d * (xi - xj);
    }
    out[a] = num;
    den[a] = d;
    prefix[a] = acc;  // product of den_0 .. den_{a-1}
    acc = acc * d;
  }
  Fr inv = acc.inverse();
  for (size_t a = m; a-- > 0;) {  // inv = 1 / (den_0 ... den_a) here
    out[a] = out[a] * inv * prefix[a];
    inv = inv * den[a];
  }
  return out;
}

Fr shamir_interpolate_at(std::span<const Share> shares, const Fr& x) {
  std::vector<uint32_t> indices;
  indices.reserve(shares.size());
  for (const auto& s : shares) indices.push_back(s.index);
  auto coeffs = lagrange_coefficients(indices, x);
  Fr acc = Fr::zero();
  for (size_t i = 0; i < shares.size(); ++i)
    acc = acc + shares[i].value.reveal() * coeffs[i];
  return acc;
}

Fr shamir_reconstruct(std::span<const Share> shares) {
  return shamir_interpolate_at(shares, Fr::zero());
}

}  // namespace bnr
