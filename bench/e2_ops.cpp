// E2 — per-operation latency of every scheme (google-benchmark).
//
// Paper claims (§3.1): each server computes two 2-base multi-exponentiations
// plus two hash-on-curve ops (Share-Sign); the verifier computes a product
// of four pairings (Verify). RSA baselines pay large-modulus
// exponentiations that grow ~cubically with the modulus.
#include "gbench_json.hpp"

#include "baselines/boldyreva.hpp"
#include "baselines/shoup_rsa.hpp"
#include "lhsps/fdh_signature.hpp"
#include "stdmodel/std_scheme.hpp"
#include "threshold/ro_scheme.hpp"

using namespace bnr;

namespace {

constexpr size_t kN = 5, kT = 2;
const Bytes kMsg = to_bytes("benchmark message");

struct RoFix {
  threshold::SystemParams sp = threshold::SystemParams::derive("e2-ro");
  threshold::RoScheme scheme{sp};
  threshold::KeyMaterial km;
  std::vector<threshold::PartialSignature> parts;
  threshold::Signature sig;

  RoFix() {
    Rng rng("e2-ro-rng");
    km = scheme.dist_keygen(kN, kT, rng);
    for (uint32_t i = 1; i <= kT + 1; ++i)
      parts.push_back(scheme.share_sign(km.shares[i - 1], kMsg));
    sig = scheme.combine(km, kMsg, parts);
  }
};
RoFix& ro() {
  static RoFix f;
  return f;
}

struct StdFix {
  stdmodel::StdParams params = stdmodel::StdParams::derive("e2-std", 256);
  stdmodel::StdScheme scheme{params};
  stdmodel::StdKeyMaterial km;
  std::vector<stdmodel::StdPartialSignature> parts;
  stdmodel::StdSignature sig;
  Rng rng{"e2-std-rng"};

  StdFix() {
    km = scheme.dist_keygen(kN, kT, rng);
    for (uint32_t i = 1; i <= kT + 1; ++i)
      parts.push_back(scheme.share_sign(km.shares[i - 1], kMsg, rng));
    sig = scheme.combine(km, kMsg, parts, rng);
  }
};
StdFix& stdf() {
  static StdFix f;
  return f;
}

struct BlsFix {
  threshold::SystemParams sp = threshold::SystemParams::derive("e2-bls");
  baselines::BoldyrevaBls scheme{sp};
  baselines::BlsKeyMaterial km;
  std::vector<baselines::BlsPartialSignature> parts;
  G1Affine sig;

  BlsFix() {
    Rng rng("e2-bls-rng");
    km = scheme.dealer_keygen(kN, kT, rng);
    for (uint32_t i = 1; i <= kT + 1; ++i)
      parts.push_back(scheme.share_sign(km.shares[i - 1], kMsg));
    sig = scheme.combine(km, kMsg, parts);
  }
};
BlsFix& bls() {
  static BlsFix f;
  return f;
}

struct ShoupFix {
  baselines::ShoupKeyMaterial km;
  std::vector<baselines::ShoupPartialSignature> parts;
  BigUint sig;
  Rng rng{"e2-shoup-rng"};

  explicit ShoupFix(size_t bits) {
    km = baselines::ShoupRsa::dealer_keygen(rng, kN, kT, bits);
    for (uint32_t i = 1; i <= kT + 1; ++i)
      parts.push_back(
          baselines::ShoupRsa::share_sign(km, km.shares[i - 1], kMsg, rng));
    sig = baselines::ShoupRsa::combine(km, kMsg, parts);
  }
};
ShoupFix& shoup1024() {
  static ShoupFix f(1024);
  return f;
}

struct FdhFix {
  threshold::SystemParams sp = threshold::SystemParams::derive("e2-fdh");
  lhsps::FdhScheme scheme{1, sp.g_z, sp.g_r, "e2-fdh"};
  lhsps::KeyPair kp;
  lhsps::Signature sig;

  FdhFix() {
    Rng rng("e2-fdh-rng");
    kp = scheme.keygen(rng);
    sig = scheme.sign(kp.sk, kMsg);
  }
};
FdhFix& fdh() {
  static FdhFix f;
  return f;
}

// ---- main RO scheme ----
void BM_Ro_ShareSign(benchmark::State& st) {
  auto& f = ro();
  for (auto _ : st)
    benchmark::DoNotOptimize(f.scheme.share_sign(f.km.shares[0], kMsg));
}
void BM_Ro_ShareVerify(benchmark::State& st) {
  auto& f = ro();
  for (auto _ : st)
    benchmark::DoNotOptimize(
        f.scheme.share_verify(f.km.vks[0], kMsg, f.parts[0]));
}
void BM_Ro_CombineRobust(benchmark::State& st) {
  auto& f = ro();
  for (auto _ : st)
    benchmark::DoNotOptimize(f.scheme.combine(f.km, kMsg, f.parts));
}
void BM_Ro_VerifyCached(benchmark::State& st) {
  auto& f = ro();
  static threshold::RoVerifier verifier(f.scheme, f.km.pk);
  for (auto _ : st)
    benchmark::DoNotOptimize(verifier.verify(kMsg, f.sig));
}
void BM_Ro_CombineUnchecked(benchmark::State& st) {
  auto& f = ro();
  for (auto _ : st)
    benchmark::DoNotOptimize(f.scheme.combine_unchecked(kT, f.parts));
}
void BM_Ro_Verify(benchmark::State& st) {
  auto& f = ro();
  for (auto _ : st)
    benchmark::DoNotOptimize(f.scheme.verify(f.km.pk, kMsg, f.sig));
}

// ---- centralized FDH (the non-threshold version of the same scheme) ----
void BM_Fdh_Sign(benchmark::State& st) {
  auto& f = fdh();
  for (auto _ : st) benchmark::DoNotOptimize(f.scheme.sign(f.kp.sk, kMsg));
}
void BM_Fdh_Verify(benchmark::State& st) {
  auto& f = fdh();
  for (auto _ : st)
    benchmark::DoNotOptimize(f.scheme.verify(f.kp.pk, kMsg, f.sig));
}

// ---- standard-model scheme ----
void BM_Std_ShareSign(benchmark::State& st) {
  auto& f = stdf();
  for (auto _ : st)
    benchmark::DoNotOptimize(f.scheme.share_sign(f.km.shares[0], kMsg, f.rng));
}
void BM_Std_ShareVerify(benchmark::State& st) {
  auto& f = stdf();
  for (auto _ : st)
    benchmark::DoNotOptimize(
        f.scheme.share_verify(f.km.vks[0], kMsg, f.parts[0]));
}
void BM_Std_Combine(benchmark::State& st) {
  auto& f = stdf();
  for (auto _ : st)
    benchmark::DoNotOptimize(f.scheme.combine(f.km, kMsg, f.parts, f.rng));
}
void BM_Std_Verify(benchmark::State& st) {
  auto& f = stdf();
  for (auto _ : st)
    benchmark::DoNotOptimize(f.scheme.verify(f.km.pk, kMsg, f.sig));
}

// ---- Boldyreva BLS baseline ----
void BM_Bls_ShareSign(benchmark::State& st) {
  auto& f = bls();
  for (auto _ : st)
    benchmark::DoNotOptimize(f.scheme.share_sign(f.km.shares[0], kMsg));
}
void BM_Bls_ShareVerify(benchmark::State& st) {
  auto& f = bls();
  for (auto _ : st)
    benchmark::DoNotOptimize(f.scheme.share_verify(f.km.vks[0], kMsg, f.parts[0]));
}
void BM_Bls_Verify(benchmark::State& st) {
  auto& f = bls();
  for (auto _ : st)
    benchmark::DoNotOptimize(f.scheme.verify(f.km.pk, kMsg, f.sig));
}

// ---- Shoup RSA baseline (1024-bit; extrapolate ~cubically to 3072) ----
void BM_Shoup1024_ShareSign(benchmark::State& st) {
  auto& f = shoup1024();
  for (auto _ : st)
    benchmark::DoNotOptimize(
        baselines::ShoupRsa::share_sign(f.km, f.km.shares[0], kMsg, f.rng));
}
void BM_Shoup1024_ShareVerify(benchmark::State& st) {
  auto& f = shoup1024();
  for (auto _ : st)
    benchmark::DoNotOptimize(
        baselines::ShoupRsa::share_verify(f.km, kMsg, f.parts[0]));
}
void BM_Shoup1024_Combine(benchmark::State& st) {
  auto& f = shoup1024();
  for (auto _ : st)
    benchmark::DoNotOptimize(baselines::ShoupRsa::combine(f.km, kMsg, f.parts));
}
void BM_Shoup1024_Verify(benchmark::State& st) {
  auto& f = shoup1024();
  for (auto _ : st)
    benchmark::DoNotOptimize(baselines::ShoupRsa::verify(f.km.pk, kMsg, f.sig));
}

}  // namespace

BENCHMARK(BM_Ro_ShareSign)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ro_ShareVerify)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ro_CombineRobust)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ro_CombineUnchecked)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ro_Verify)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ro_VerifyCached)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fdh_Sign)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fdh_Verify)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Std_ShareSign)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Std_ShareVerify)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Std_Combine)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Std_Verify)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Bls_ShareSign)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Bls_ShareVerify)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Bls_Verify)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Shoup1024_ShareSign)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Shoup1024_ShareVerify)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Shoup1024_Combine)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Shoup1024_Verify)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return bnr::bench::run_benchmarks_to_json(argc, argv, "BENCH_e2.json");
}
