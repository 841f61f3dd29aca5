// Shamir sharing / Lagrange interpolation tests, including the parameterized
// (t, n) sweep used to validate thresholds across configurations.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "curve/g1.hpp"
#include "sss/shamir.hpp"

namespace bnr {
namespace {

TEST(Polynomial, EvaluateHorner) {
  // p(x) = 3 + 2x + x^2
  Polynomial p({Fr::from_u64(3), Fr::from_u64(2), Fr::from_u64(1)});
  EXPECT_EQ(p.evaluate(Fr::from_u64(0)), Fr::from_u64(3));
  EXPECT_EQ(p.evaluate(Fr::from_u64(1)), Fr::from_u64(6));
  EXPECT_EQ(p.evaluate(Fr::from_u64(10)), Fr::from_u64(123));
}

TEST(Polynomial, RandomWithConstant) {
  Rng rng("poly");
  Fr secret = Fr::from_u64(42);
  Polynomial p = Polynomial::random_with_constant(rng, 5, secret);
  EXPECT_EQ(p.degree(), 5u);
  EXPECT_EQ(p.constant_term(), secret);
  EXPECT_EQ(p.evaluate(Fr::zero()), secret);
}

TEST(Polynomial, Addition) {
  Rng rng("poly-add");
  Polynomial a = Polynomial::random(rng, 3);
  Polynomial b = Polynomial::random(rng, 3);
  Polynomial sum = a + b;
  Fr x = Fr::random(rng);
  EXPECT_EQ(sum.evaluate(x), a.evaluate(x) + b.evaluate(x));
}

struct TnCase {
  size_t t, n;
};

class ShamirTnTest : public ::testing::TestWithParam<TnCase> {};

TEST_P(ShamirTnTest, ShareAndReconstruct) {
  auto [t, n] = GetParam();
  Rng rng("shamir-tn");
  Fr secret = Fr::random(rng);
  auto shares = shamir_share(rng, secret, t, n);
  ASSERT_EQ(shares.size(), n);

  // Any (t+1)-subset reconstructs; use a few different ones.
  for (size_t start = 0; start + t + 1 <= n; start += t + 1) {
    std::vector<Share> subset(shares.begin() + start,
                              shares.begin() + start + t + 1);
    EXPECT_EQ(shamir_reconstruct(subset), secret);
  }
  // A different (non-contiguous) subset.
  std::vector<Share> subset;
  for (size_t i = 0; i < n && subset.size() < t + 1; i += 2)
    subset.push_back(shares[i]);
  while (subset.size() < t + 1) subset.push_back(shares[1]);
  if (subset.size() == t + 1) {
    // May contain a duplicate if n is tiny; only test when distinct.
    std::set<uint32_t> idx;
    bool distinct = true;
    for (const auto& s : subset) distinct &= idx.insert(s.index).second;
    if (distinct) {
      EXPECT_EQ(shamir_reconstruct(subset), secret);
    }
  }
}

TEST_P(ShamirTnTest, TSharesAreUnderdetermined) {
  // With only t shares, any value at a (t+1)-th index is consistent with the
  // observed shares, so the secret is information-theoretically hidden: t
  // shares plus an arbitrary extra point interpolate to a different secret.
  auto [t, n] = GetParam();
  Rng rng("shamir-hiding");
  Fr secret = Fr::random(rng);
  auto shares = shamir_share(rng, secret, t, n);
  std::vector<Share> partial(shares.begin(), shares.begin() + t);
  for (uint64_t candidate : {7ull, 1234567ull}) {
    std::vector<Share> padded = partial;
    padded.push_back(
        {static_cast<uint32_t>(n + 1), Secret<Fr>(Fr::from_u64(candidate))});
    EXPECT_NE(shamir_reconstruct(padded), secret);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, ShamirTnTest,
    ::testing::Values(TnCase{1, 3}, TnCase{1, 4}, TnCase{2, 5}, TnCase{3, 7},
                      TnCase{5, 11}, TnCase{8, 17}, TnCase{10, 21}),
    [](const ::testing::TestParamInfo<TnCase>& tpi) {
      return "t" + std::to_string(tpi.param.t) + "n" +
             std::to_string(tpi.param.n);
    });

TEST(Lagrange, CoefficientsSumToOneAtZeroForConstantPoly) {
  // For the constant polynomial, every share equals the secret, so the
  // Lagrange weights must sum to 1.
  std::vector<uint32_t> indices = {1, 3, 7, 9};
  auto coeffs = lagrange_at_zero(indices);
  Fr sum = Fr::zero();
  for (const auto& c : coeffs) sum = sum + c;
  EXPECT_EQ(sum, Fr::one());
}

TEST(Lagrange, CoefficientsMatchOneInversionPerIndex) {
  // The batched inversion gives each Delta_{i,S}(x) exactly as
  // num_i * den_i^{-1} does, for index sets of size 1..9 and any x.
  Rng rng("lagrange-batch");
  for (size_t size = 1; size <= 9; ++size) {
    std::vector<uint32_t> indices;
    while (indices.size() < size) {
      const auto i = static_cast<uint32_t>(1 + rng.uniform(40));
      if (std::find(indices.begin(), indices.end(), i) == indices.end())
        indices.push_back(i);
    }
    for (const Fr& x : {Fr::zero(), Fr::random(rng)}) {
      const auto got = lagrange_coefficients(indices, x);
      ASSERT_EQ(got.size(), size);
      for (size_t a = 0; a < size; ++a) {
        Fr num = Fr::one(), den = Fr::one();
        for (uint32_t j : indices) {
          if (j == indices[a]) continue;
          num = num * (x - Fr::from_u64(j));
          den = den * (Fr::from_u64(indices[a]) - Fr::from_u64(j));
        }
        EXPECT_EQ(got[a], num * den.inverse());
      }
    }
  }
}

TEST(Lagrange, RejectsDuplicatesAndZero) {
  std::vector<uint32_t> dup = {1, 2, 2};
  EXPECT_THROW(lagrange_at_zero(dup), std::invalid_argument);
  std::vector<uint32_t> zero = {0, 1, 2};
  EXPECT_THROW(lagrange_at_zero(zero), std::invalid_argument);
}

TEST(Lagrange, InterpolateAtArbitraryPoint) {
  Rng rng("lagrange-x");
  Polynomial p = Polynomial::random(rng, 4);
  std::vector<Share> shares;
  for (uint32_t i = 1; i <= 5; ++i)
    shares.push_back({i, Secret<Fr>(p.evaluate_at_index(i))});
  Fr x = Fr::from_u64(77);
  EXPECT_EQ(shamir_interpolate_at(shares, x), p.evaluate(x));
}

TEST(Lagrange, CombineInExponentMatchesScalarPath) {
  Rng rng("lagrange-exp");
  Fr secret = Fr::random(rng);
  auto shares = shamir_share(rng, secret, 2, 5);
  // g^{A(i)} combined in the exponent == g^{A(0)}.
  std::vector<G1> points;
  std::vector<uint32_t> indices;
  for (size_t i = 0; i < 3; ++i) {
    points.push_back(G1::generator().mul(shares[i].value.reveal()));
    indices.push_back(shares[i].index);
  }
  G1 combined = combine_in_exponent<G1>(points, indices);
  EXPECT_EQ(combined, G1::generator().mul(secret));
}

TEST(Shamir, RejectsBadParameters) {
  Rng rng("shamir-bad");
  EXPECT_THROW(shamir_share(rng, Fr::one(), 3, 3), std::invalid_argument);
}

}  // namespace
}  // namespace bnr
