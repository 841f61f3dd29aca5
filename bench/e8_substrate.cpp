// E8 — substrate microbenchmarks: the BN254 operations underneath every
// scheme-level number (field tower, curve arithmetic, hashing, pairing).
// The tower and inversion rows time dependent chains (each result feeds the
// next call), and every run is written to BENCH_e8.json.
#include "gbench_json.hpp"

#include "common/rng.hpp"
#include "curve/hash_to_curve.hpp"
#include "field/tower.hpp"
#include "pairing/pairing.hpp"
#include "sss/shamir.hpp"
#include "threshold/params.hpp"

using namespace bnr;

namespace {

Rng& rng() {
  static Rng r("e8-substrate");
  return r;
}

void BM_FpMul(benchmark::State& st) {
  Fp a = Fp::random(rng()), b = Fp::random(rng());
  for (auto _ : st) {
    benchmark::DoNotOptimize(a = a * b);
  }
}
// The inversion rows feed each inverse plus a constant into the next call:
// inverting one fixed input would let the branch predictor learn its
// binary GCD.
void BM_FpInverse(benchmark::State& st) {
  Fp a = Fp::random(rng());
  const Fp b = Fp::random(rng());
  for (auto _ : st) benchmark::DoNotOptimize(a = a.inverse() + b);
}
void BM_FpSqrt(benchmark::State& st) {
  Fp a = Fp::random(rng()).squared();
  for (auto _ : st) benchmark::DoNotOptimize(a.sqrt());
}
void BM_Fp2Mul(benchmark::State& st) {
  Fp2 a = Fp2::random(rng()), b = Fp2::random(rng());
  for (auto _ : st) benchmark::DoNotOptimize(a = a * b);
}
void BM_Fp2Square(benchmark::State& st) {
  Fp2 a = Fp2::random(rng());
  for (auto _ : st) benchmark::DoNotOptimize(a = a.squared());
}
Fp6 random_fp6() {
  return {Fp2::random(rng()), Fp2::random(rng()), Fp2::random(rng())};
}
Fp12 random_fp12() { return {random_fp6(), random_fp6()}; }
void BM_Fp6Mul(benchmark::State& st) {
  Fp6 a = random_fp6(), b = random_fp6();
  for (auto _ : st) benchmark::DoNotOptimize(a = a * b);
}
void BM_Fp12Mul(benchmark::State& st) {
  Fp12 a = random_fp12();
  Fp12 b = a;
  for (auto _ : st) benchmark::DoNotOptimize(a = a * b);
}
void BM_Fp12Square(benchmark::State& st) {
  Fp12 a = random_fp12();
  for (auto _ : st) benchmark::DoNotOptimize(a = a.squared());
}
void BM_Fp12MulBy34(benchmark::State& st) {
  // One Miller line per call, as the prepared loop folds them.
  Fp12 a = random_fp12();
  const Fp2 d3 = Fp2::random(rng()), d4 = Fp2::random(rng());
  for (auto _ : st) benchmark::DoNotOptimize(a = a.mul_by_34(d3, d4));
}
void BM_Fp12CyclotomicSquare(benchmark::State& st) {
  // A pairing value lies in the cyclotomic subgroup, and so do its squares.
  Fp12 a = pairing(G1::generator().mul(Fr::random(rng())).to_affine(),
                   G2Curve::generator_affine())
               .value;
  for (auto _ : st) benchmark::DoNotOptimize(a = a.cyclotomic_squared());
}
void BM_G1ScalarMul(benchmark::State& st) {
  G1 g = G1::generator();
  Fr s = Fr::random(rng());
  for (auto _ : st) benchmark::DoNotOptimize(g.mul(s));
}
void BM_G2ScalarMul(benchmark::State& st) {
  G2 g = G2::generator();
  Fr s = Fr::random(rng());
  for (auto _ : st) benchmark::DoNotOptimize(g.mul(s));
}
void BM_G1TwoBaseMultiExp(benchmark::State& st) {
  // The Share-Sign workhorse: z_i = H1^{-a1} * H2^{-a2}.
  G1 h1 = G1::generator().mul(Fr::random(rng()));
  G1 h2 = G1::generator().mul(Fr::random(rng()));
  Fr a1 = Fr::random(rng()), a2 = Fr::random(rng());
  for (auto _ : st) benchmark::DoNotOptimize(h1.mul(a1) + h2.mul(a2));
}
void BM_MsmRlc(benchmark::State& st) {
  // A batch-verification fold's MSM: distinct hashed points, each under a
  // drawn RLC coefficient.
  std::vector<G1Affine> points;
  std::vector<Fr> coeffs;
  for (int64_t i = 0; i < st.range(0); ++i) {
    points.push_back(hash_to_g1("e8-msm", to_bytes("p" + std::to_string(i))));
    coeffs.push_back(threshold::random_rlc_coefficient(rng()));
  }
  for (auto _ : st)
    benchmark::DoNotOptimize(msm<G1>(std::span<const G1Affine>(points), coeffs));
}
void BM_HashToG1(benchmark::State& st) {
  uint64_t ctr = 0;
  for (auto _ : st) {
    Bytes m = to_bytes("m" + std::to_string(ctr++));
    benchmark::DoNotOptimize(hash_to_g1("e8", m));
  }
}
void BM_HashToG2(benchmark::State& st) {
  uint64_t ctr = 0;
  for (auto _ : st) {
    Bytes m = to_bytes("m" + std::to_string(ctr++));
    benchmark::DoNotOptimize(hash_to_g2("e8", m));
  }
}
void BM_Pairing(benchmark::State& st) {
  G1Affine p = G1::generator().mul(Fr::random(rng())).to_affine();
  G2Affine q = G2::generator().mul(Fr::random(rng())).to_affine();
  for (auto _ : st) benchmark::DoNotOptimize(pairing(p, q));
}
void BM_GtExp(benchmark::State& st) {
  GT e = pairing(G1Curve::generator_affine(), G2Curve::generator_affine());
  Fr s = Fr::random(rng());
  for (auto _ : st) benchmark::DoNotOptimize(e.pow(s));
}
void BM_FrInverse(benchmark::State& st) {
  Fr a = Fr::random(rng());
  const Fr b = Fr::random(rng());
  for (auto _ : st) benchmark::DoNotOptimize(a = a.inverse() + b);
}
void BM_LagrangeCoefficients(benchmark::State& st) {
  std::vector<uint32_t> indices;
  for (uint32_t i = 1; i <= st.range(0); ++i) indices.push_back(i);
  for (auto _ : st) benchmark::DoNotOptimize(lagrange_at_zero(indices));
}

}  // namespace

BENCHMARK(BM_FpMul);
BENCHMARK(BM_FpInverse);
BENCHMARK(BM_FpSqrt);
BENCHMARK(BM_Fp2Mul);
BENCHMARK(BM_Fp2Square);
BENCHMARK(BM_Fp6Mul);
BENCHMARK(BM_Fp12Mul);
BENCHMARK(BM_Fp12Square);
BENCHMARK(BM_Fp12MulBy34);
BENCHMARK(BM_Fp12CyclotomicSquare);
BENCHMARK(BM_FrInverse);
BENCHMARK(BM_G1ScalarMul)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_G2ScalarMul)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_G1TwoBaseMultiExp)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MsmRlc)
    ->Arg(1)
    ->Arg(2)
    ->Arg(6)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HashToG1)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HashToG2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Pairing)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GtExp)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LagrangeCoefficients)->Arg(3)->Arg(9)->Arg(17);

int main(int argc, char** argv) {
  return bnr::bench::run_benchmarks_to_json(argc, argv, "BENCH_e8.json");
}
