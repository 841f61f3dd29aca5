// E5 — the verification engine ablation. The verifier computes a PRODUCT of
// four pairings (§3.1); this bench walks the whole optimization ladder:
//
//   1. seed reference   affine Miller loops, dense Fp12 line multiplies,
//                       one shared final exponentiation
//   2. prepared         projective line precomputation on the fly + sparse
//                       mul_by_34 evaluation (what multi_pairing now does)
//   3. cached           G2Prepared lines precomputed once per key
//                       (RoVerifier) — only line evaluations remain
//   4. batched          N signatures folded into ONE 4-pairing product via
//                       128-bit random linear combination + Pippenger MSM
//
// Emits BENCH_e5.json records (name, ns/op). field/mul, a chain of
// dependent Fp multiplies timed in the batch's rounds, is the runner-speed
// unit CI measures verify/batch_x64 in.
#include <cstdio>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "pairing/pairing.hpp"
#include "threshold/ro_scheme.hpp"

using namespace bnr;

namespace {

std::vector<PairingTerm> make_terms(size_t k) {
  static Rng rng("e5-verify");
  std::vector<PairingTerm> terms;
  for (size_t i = 0; i < k; ++i)
    terms.push_back({G1::generator().mul(Fr::random(rng)).to_affine(),
                     G2::generator().mul(Fr::random(rng)).to_affine()});
  return terms;
}

volatile bool sink = false;

/// A chain of dependent Fp multiplies through operator*, the unit CI reads
/// the batch cost in: the pairing code above the field kernels can change
/// without moving it.
constexpr int kMulChain = 10000;
Fp mul_chain(Fp a, const Fp& b) {
  for (int i = 0; i < kMulChain; ++i) a = a * b;
  return a;
}

}  // namespace

int main() {
  bench::JsonWriter out("BENCH_e5.json");

  // ---- Pairing-layer ladder, at the verifier's term counts. -------------
  bench::header("pairing product: reference vs prepared");
  for (size_t k : {2, 4, 6, 10}) {
    auto terms = make_terms(k);
    out.bench("multi_pairing_reference/" + std::to_string(k),
              [&] { sink = multi_pairing_reference(terms).is_identity(); });
    out.bench("multi_pairing_prepared_on_the_fly/" + std::to_string(k),
              [&] { sink = multi_pairing(terms).is_identity(); });
    std::vector<G2Prepared> prepared;
    prepared.reserve(terms.size());
    std::vector<PreparedTerm> pts;
    for (const auto& t : terms) {
      prepared.emplace_back(t.q);
      pts.push_back({t.p, &prepared.back()});
    }
    out.bench("multi_pairing_cached/" + std::to_string(k),
              [&] { sink = multi_pairing(pts).is_identity(); });
  }

  bench::header("pairing primitives");
  {
    auto terms = make_terms(1);
    out.bench("miller_loop_reference", [&] {
      Fp12 f = miller_loop(terms[0].p, terms[0].q);
      sink = f.is_zero();
    });
    out.bench("g2_prepare", [&] { sink = G2Prepared(terms[0].q).infinity(); });
    G2Prepared prep(terms[0].q);
    out.bench("miller_loop_prepared", [&] {
      Fp12 f = miller_loop(terms[0].p, prep);
      sink = f.is_zero();
    });
    Fp12 f = miller_loop(terms[0].p, terms[0].q);
    out.bench("final_exp_chain",
              [&] { sink = final_exponentiation(f).is_zero(); });
    out.bench("final_exp_cyclotomic_ladder",
              [&] { sink = final_exponentiation_ladder(f).is_zero(); });
    out.bench("final_exp_generic",
              [&] { sink = final_exponentiation_generic(f).is_zero(); });
  }

  // ---- Scheme layer: single verify, cached verify, batch verify. --------
  bench::header("RoScheme verification");
  threshold::SystemParams sp = threshold::SystemParams::derive("e5-ro");
  threshold::RoScheme scheme(sp);
  Rng rng("e5-ro-rng");
  auto km = scheme.dist_keygen(3, 1, rng);
  threshold::RoVerifier verifier(scheme, km.pk);

  constexpr size_t kBatch = 64;
  std::vector<Bytes> msgs;
  std::vector<threshold::Signature> sigs;
  for (size_t j = 0; j < kBatch; ++j) {
    msgs.push_back(to_bytes("e5 message " + std::to_string(j)));
    std::vector<threshold::PartialSignature> parts;
    for (uint32_t i = 1; i <= km.t + 1; ++i)
      parts.push_back(scheme.share_sign(km.shares[i - 1], msgs.back()));
    sigs.push_back(scheme.combine_unchecked(km.t, parts));
  }

  // The seed's verify: affine/dense reference path on the 4-term product.
  auto verify_seed_path = [&](const Bytes& msg,
                              const threshold::Signature& sig) {
    auto h = scheme.hash_message(msg);
    std::array<PairingTerm, 4> terms = {
        PairingTerm{sig.z, sp.g_z},
        PairingTerm{sig.r, sp.g_r},
        PairingTerm{h[0], km.pk.g[0]},
        PairingTerm{h[1], km.pk.g[1]},
    };
    return multi_pairing_reference(terms).is_identity();
  };

  // The gated readings (seed_reference : cached, and batch_x64 in
  // field/mul units) are timed in alternating rounds, each name recording
  // its median over the rounds.
  constexpr int kRounds = 7;
  const auto single = bench::alternating_ns(
      {[&] { sink = verify_seed_path(msgs[0], sigs[0]); },
       [&] { sink = verifier.verify(msgs[0], sigs[0]); }},
      kRounds, 3, 60.0);
  out.record("verify/seed_reference", single[0]);
  out.bench("verify/unprepared",
            [&] { sink = scheme.verify(km.pk, msgs[0], sigs[0]); }, 5, 200.0);
  out.record("verify/cached", single[1]);

  Rng batch_rng("e5-batch-rlc");
  Rng mul_rng("e5-field-mul");
  const Fp mul_a = Fp::random(mul_rng), mul_b = Fp::random(mul_rng);
  const auto batched = bench::alternating_ns(
      {[&] {
         bool ok = true;
         for (size_t j = 0; j < kBatch; ++j)
           ok = ok && verifier.verify(msgs[j], sigs[j]);
         sink = ok;
       },
       [&] { sink = verifier.batch_verify(msgs, sigs, batch_rng); },
       [&] { sink = mul_chain(mul_a, mul_b).is_zero(); }},
      kRounds, 2, 150.0);
  const double individual_ns = batched[0], batch_ns = batched[1];
  const double mul_ns = batched[2] / kMulChain;
  out.record("verify/individual_x64", individual_ns);
  out.record("verify/batch_x64", batch_ns);
  out.record("field/mul", mul_ns);
  printf("\nbatch_verify(64) speedup over 64 individual verifies: %.2fx\n",
         individual_ns / batch_ns);
  printf("batch_verify(64) in field/mul units: %.0f\n", batch_ns / mul_ns);

  out.flush();
  return 0;
}
