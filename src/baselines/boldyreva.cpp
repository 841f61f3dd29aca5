#include "baselines/boldyreva.hpp"

#include <stdexcept>

#include "pairing/pairing.hpp"
#include "threshold/combine.hpp"
#include "threshold/fold.hpp"

namespace bnr::baselines {

BlsKeyMaterial BoldyrevaBls::dealer_keygen(size_t n, size_t t,
                                           Rng& rng) const {
  BlsKeyMaterial km;
  km.n = n;
  km.t = t;
  Fr x = Fr::random(rng);
  auto shares = shamir_share(rng, x, t, n);
  km.pk.pk = G2::generator().mul(x).to_affine();
  for (const auto& s : shares) {
    km.shares.push_back({s.index, s.value});
    km.vks.push_back(G2::generator().mul(s.value.reveal()).to_affine());
  }
  return km;
}

BlsKeyMaterial BoldyrevaBls::dist_keygen(
    size_t n, size_t t, Rng& rng,
    const std::map<uint32_t, dkg::Behavior>& behaviors,
    SyncNetwork* net) const {
  dkg::Config cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.m = 1;
  cfg.rows = {dkg::VssRow{{{0, G2Curve::generator_affine()}}}};
  auto res = dkg::run_dkg(cfg, rng, behaviors, net);

  BlsKeyMaterial km;
  km.n = n;
  km.t = t;
  uint32_t honest = 1;
  while (behaviors.contains(honest)) ++honest;
  const auto& view = res.outputs[honest - 1];
  km.pk.pk = view.public_key[0];
  for (uint32_t i = 1; i <= n; ++i) {
    km.shares.push_back({i, Secret<Fr>(res.outputs[i - 1].secret_share.reveal()[0])});
    km.vks.push_back(view.verification_keys[i - 1][0]);
  }
  return km;
}

G1Affine BoldyrevaBls::hash_message(std::span<const uint8_t> msg) const {
  return hash_to_g1(params_.hash_dst("bls-H"), msg);
}

BlsPartialSignature BoldyrevaBls::share_sign(
    const BlsKeyShare& share, std::span<const uint8_t> msg) const {
  return {share.index,
          G1::from_affine(hash_message(msg)).mul(share.x.reveal()).to_affine()};
}

bool BoldyrevaBls::share_verify(const G2Affine& vk,
                                std::span<const uint8_t> msg,
                                const BlsPartialSignature& psig) const {
  // e(sigma_i, g2) == e(H, vk_i)  <=>  e(sigma_i, g2) e(H^{-1}, vk_i) == 1.
  return share_verify(vk, -hash_message(msg), psig);
}

bool BoldyrevaBls::share_verify(const G2Affine& vk, const G1Affine& neg_h,
                                const BlsPartialSignature& psig) const {
  // The G2-generator lines come from the params' shared table; only vk is
  // prepared here.
  return BlsShareVerifier(params_, vk).verify(neg_h, psig);
}

G1Affine BoldyrevaBls::combine(const BlsKeyMaterial& km,
                               std::span<const uint8_t> msg,
                               std::span<const BlsPartialSignature> parts,
                               std::vector<uint32_t>* cheaters) const {
  return BlsCombiner(*this, km).combine(msg, parts, cheaters);
}

G1Affine BoldyrevaBls::combine_unchecked(
    size_t t, std::span<const BlsPartialSignature> parts) const {
  if (parts.size() < t + 1)
    throw std::runtime_error("bls combine: fewer than t+1 valid shares");
  std::span<const BlsPartialSignature> valid = parts.first(t + 1);
  std::vector<uint32_t> indices;
  for (const auto& p : valid) indices.push_back(p.index);
  auto lagrange = lagrange_at_zero(indices);
  std::vector<G1Affine> sigmas;
  for (const auto& p : valid) sigmas.push_back(p.sigma);
  return msm<G1>(sigmas, lagrange).to_affine();
}

bool BoldyrevaBls::verify(const BlsPublicKey& pk,
                          std::span<const uint8_t> msg,
                          const G1Affine& sig) const {
  return share_verify(pk.pk, -hash_message(msg), {0, sig});
}

// ---------------------------------------------------------------------------
// Cached verification and Combine

BlsShareVerifier::BlsShareVerifier(const threshold::SystemParams& params,
                                   const G2Affine& vk)
    : gen_(params.tables.get()), vk_(vk) {}

std::array<PreparedTerm, 2> BlsShareVerifier::terms(
    const G1Affine& neg_h, const BlsPartialSignature& psig) const {
  return {PreparedTerm{psig.sigma, &gen_->g2}, PreparedTerm{neg_h, &vk_}};
}

bool BlsShareVerifier::verify(const G1Affine& neg_h,
                              const BlsPartialSignature& psig) const {
  return pairing_product_is_one(terms(neg_h, psig));
}

BlsVerifier::BlsVerifier(const BoldyrevaBls& scheme, const BlsPublicKey& pk)
    : scheme_(scheme), key_(scheme_.params(), pk.pk) {}

bool BlsVerifier::verify(std::span<const uint8_t> msg,
                         const G1Affine& sig) const {
  return key_.verify(-scheme_.hash_message(msg), {0, sig});
}

void BlsVerifier::add_to_fold(threshold::FoldBuilder& fold,
                              std::span<const uint8_t> msg,
                              const G1Affine& sig) const {
  fold.add({key_.terms(-scheme_.hash_message(msg), {0, sig})});
}

bool BlsVerifier::batch_verify(std::span<const Bytes> msgs,
                               std::span<const G1Affine> sigs,
                               Rng& rng) const {
  return threshold::fold_batch(*this, msgs, sigs, rng);
}

BlsCombiner::BlsCombiner(const BoldyrevaBls& scheme, const BlsKeyMaterial& km)
    : BlsCombiner(scheme, km.n, km.t, km.pk, km.vks) {}

BlsCombiner::BlsCombiner(const BoldyrevaBls& scheme, size_t n, size_t t,
                         const BlsPublicKey& pk, std::vector<G2Affine> vks)
    : scheme_(scheme),
      n_(n),
      t_(t),
      key_(scheme_.params(), pk.pk),
      vks_(std::move(vks)) {}

G1Affine BlsCombiner::combine(std::span<const uint8_t> msg,
                              std::span<const BlsPartialSignature> parts,
                              std::vector<uint32_t>* cheaters) const {
  G1Affine neg_h = -scheme_.hash_message(msg);  // hashed ONCE for every check
  return threshold::optimistic_combine(
      n_, t_, parts,
      [&](std::span<const BlsPartialSignature> head) {
        return scheme_.combine_unchecked(t_, head);
      },
      [&](const G1Affine& sig) { return key_.verify(neg_h, {0, sig}); },
      [&](const BlsPartialSignature& p) {
        return scheme_.share_verify(vks_[p.index - 1], neg_h, p);
      },
      cheaters);
}

}  // namespace bnr::baselines
