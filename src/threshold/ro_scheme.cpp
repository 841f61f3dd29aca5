#include "threshold/ro_scheme.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "common/serde.hpp"
#include "pairing/pairing.hpp"
#include "threshold/combine.hpp"
#include "threshold/fold.hpp"

namespace bnr::threshold {

// ---------------------------------------------------------------------------
// Serialization


Bytes PublicKey::serialize() const {
  ByteWriter w;
  for (const auto& gk : g) g2_serialize(gk, w);
  return w.take();
}

PublicKey PublicKey::deserialize(std::span<const uint8_t> data) {
  ByteReader rd(data);
  PublicKey pk;
  pk.g[0] = g2_deserialize(rd);
  pk.g[1] = g2_deserialize(rd);
  expect_done(rd, "PublicKey");
  return pk;
}

Bytes KeyShare::serialize() const {
  ByteWriter w;
  w.u32(index);
  for (const auto& v : a.reveal()) w.raw(v.to_bytes_be());
  for (const auto& v : b.reveal()) w.raw(v.to_bytes_be());
  return w.take();
}

KeyShare KeyShare::deserialize(std::span<const uint8_t> data) {
  ByteReader rd(data);
  KeyShare s;
  s.index = rd.u32();
  for (auto& v : s.a.reveal_mut()) v = Fr::from_bytes_be(rd.raw(32));
  for (auto& v : s.b.reveal_mut()) v = Fr::from_bytes_be(rd.raw(32));
  expect_done(rd, "KeyShare");
  return s;
}

Bytes VerificationKey::serialize() const {
  ByteWriter w;
  for (const auto& vk : v) g2_serialize(vk, w);
  return w.take();
}

VerificationKey VerificationKey::deserialize(std::span<const uint8_t> data) {
  ByteReader rd(data);
  VerificationKey vk;
  vk.v[0] = g2_deserialize(rd);
  vk.v[1] = g2_deserialize(rd);
  expect_done(rd, "VerificationKey");
  return vk;
}

Bytes PartialSignature::serialize() const {
  ByteWriter w;
  w.u32(index);
  g1_serialize(z, w);
  g1_serialize(r, w);
  return w.take();
}

PartialSignature PartialSignature::deserialize(std::span<const uint8_t> data) {
  ByteReader rd(data);
  PartialSignature p;
  p.index = rd.u32();
  p.z = g1_deserialize(rd);
  p.r = g1_deserialize(rd);
  expect_done(rd, "PartialSignature");
  return p;
}

Bytes Signature::serialize() const {
  ByteWriter w;
  g1_serialize(z, w);
  g1_serialize(r, w);
  return w.take();
}

Signature Signature::deserialize(std::span<const uint8_t> data) {
  ByteReader rd(data);
  Signature s;
  s.z = g1_deserialize(rd);
  s.r = g1_deserialize(rd);
  if (!rd.empty()) throw std::invalid_argument("Signature: trailing data");
  return s;
}

// ---------------------------------------------------------------------------
// Keygen

KeyShare RoScheme::to_key_share(uint32_t index, std::span<const Fr> m_vector) {
  if (m_vector.size() != 4)
    throw std::invalid_argument("to_key_share: expected 4 scalars");
  KeyShare s;
  s.index = index;
  s.a = Secret<std::array<Fr, 2>>({m_vector[0], m_vector[2]});
  s.b = Secret<std::array<Fr, 2>>({m_vector[1], m_vector[3]});
  return s;
}

std::vector<Fr> RoScheme::to_m_vector(const KeyShare& share) {
  const auto& a = share.a.reveal();
  const auto& b = share.b.reveal();
  return {a[0], b[0], a[1], b[1]};
}

dkg::Config RoScheme::dkg_config(size_t n, size_t t) const {
  dkg::Config cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.m = 4;  // (A1, B1, A2, B2)
  cfg.rows = {
      dkg::VssRow{{{0, params_.g_z}, {1, params_.g_r}}},  // W^_{i,1,l}
      dkg::VssRow{{{2, params_.g_z}, {3, params_.g_r}}},  // W^_{i,2,l}
  };
  return cfg;
}

KeyMaterial RoScheme::dist_keygen(
    size_t n, size_t t, Rng& rng,
    const std::map<uint32_t, dkg::Behavior>& behaviors,
    SyncNetwork* net) const {
  dkg::Config cfg = dkg_config(n, t);
  KeyMaterial km;
  km.n = n;
  km.t = t;
  km.transcript = dkg::run_dkg(cfg, rng, behaviors, net);
  km.qualified = km.transcript.qualified;

  // Public view from an honest player.
  uint32_t honest = 1;
  while (behaviors.contains(honest)) ++honest;
  const auto& view = km.transcript.outputs[honest - 1];
  km.pk.g = {view.public_key[0], view.public_key[1]};
  km.vks.resize(n);
  km.shares.resize(n);
  for (uint32_t i = 1; i <= n; ++i) {
    km.vks[i - 1].v = {view.verification_keys[i - 1][0],
                       view.verification_keys[i - 1][1]};
    km.shares[i - 1] =
        to_key_share(i, km.transcript.outputs[i - 1].secret_share.reveal());
  }
  return km;
}

// ---------------------------------------------------------------------------
// Signing

std::array<G1Affine, 2> RoScheme::hash_message(
    std::span<const uint8_t> msg) const {
  auto vec = hash_to_g1_vector(params_.hash_dst("H"), msg, 2);
  return {vec[0], vec[1]};
}

PartialSignature RoScheme::share_sign(const KeyShare& share,
                                      std::span<const uint8_t> msg) const {
  auto h = hash_message(msg);
  G1 h1 = G1::from_affine(h[0]), h2 = G1::from_affine(h[1]);
  PartialSignature out;
  out.index = share.index;
  const auto& a = share.a.reveal();
  const auto& b = share.b.reveal();
  out.z = (h1.mul(-a[0]) + h2.mul(-a[1])).to_affine();
  out.r = (h1.mul(-b[0]) + h2.mul(-b[1])).to_affine();
  return out;
}

bool RoScheme::share_verify(const VerificationKey& vk,
                            std::span<const uint8_t> msg,
                            const PartialSignature& sig) const {
  return share_verify(vk, hash_message(msg), sig);
}

bool RoScheme::share_verify(const VerificationKey& vk,
                            const std::array<G1Affine, 2>& h,
                            const PartialSignature& sig) const {
  std::array<PairingTerm, 4> terms = {
      PairingTerm{sig.z, params_.g_z},
      PairingTerm{sig.r, params_.g_r},
      PairingTerm{h[0], vk.v[0]},
      PairingTerm{h[1], vk.v[1]},
  };
  return pairing_product_is_one(terms);
}

Signature RoScheme::combine_unchecked(
    size_t t, std::span<const PartialSignature> parts) const {
  if (parts.size() < t + 1)
    throw std::runtime_error("combine: need t+1 partial signatures");
  std::vector<uint32_t> indices;
  for (size_t i = 0; i < t + 1; ++i) indices.push_back(parts[i].index);
  auto lagrange = lagrange_at_zero(indices);
  std::vector<G1Affine> zs, rs;
  zs.reserve(t + 1);
  rs.reserve(t + 1);
  for (size_t i = 0; i < t + 1; ++i) {
    zs.push_back(parts[i].z);
    rs.push_back(parts[i].r);
  }
  return {msm<G1>(zs, lagrange).to_affine(), msm<G1>(rs, lagrange).to_affine()};
}

Signature RoScheme::combine(const KeyMaterial& km,
                            std::span<const uint8_t> msg,
                            std::span<const PartialSignature> parts) const {
  auto h = hash_message(msg);  // hashed ONCE for every check
  const VerificationKey key{km.pk.g};
  return optimistic_combine(
      km.n, km.t, parts,
      [&](std::span<const PartialSignature> head) {
        return combine_unchecked(km.t, head);
      },
      [&](const Signature& s) { return share_verify(key, h, {0, s.z, s.r}); },
      [&](const PartialSignature& p) {
        return share_verify(km.vks[p.index - 1], h, p);
      });
}

bool RoScheme::verify(const PublicKey& pk, std::span<const uint8_t> msg,
                      const Signature& sig) const {
  auto h = hash_message(msg);
  std::array<PairingTerm, 4> terms = {
      PairingTerm{sig.z, params_.g_z},
      PairingTerm{sig.r, params_.g_r},
      PairingTerm{h[0], pk.g[0]},
      PairingTerm{h[1], pk.g[1]},
  };
  return pairing_product_is_one(terms);
}

// ---------------------------------------------------------------------------
// Proactive maintenance

void RoScheme::refresh(KeyMaterial& km, Rng& rng,
                       const std::map<uint32_t, dkg::Behavior>& behaviors,
                       SyncNetwork* net) const {
  dkg::Config cfg = dkg_config(km.n, km.t);
  std::vector<std::vector<Fr>> old_shares;
  std::vector<std::vector<G2Affine>> old_vks;
  for (uint32_t i = 1; i <= km.n; ++i) {
    old_shares.push_back(to_m_vector(km.shares[i - 1]));
    old_vks.push_back({km.vks[i - 1].v[0], km.vks[i - 1].v[1]});
  }
  auto refreshed =
      dkg::refresh_shares(cfg, rng, old_shares, old_vks, behaviors, net);
  for (uint32_t i = 1; i <= km.n; ++i) {
    km.shares[i - 1] = to_key_share(i, refreshed.new_shares[i - 1]);
    km.vks[i - 1].v = {refreshed.new_vks[i - 1][0],
                       refreshed.new_vks[i - 1][1]};
  }
  // Both share tables hold live key material copies; scrub before free.
  secure_wipe(old_shares);
  secure_wipe(refreshed.new_shares);
}

// ---------------------------------------------------------------------------
// Cached verification

RoVerifier::RoVerifier(const RoScheme& scheme, const PublicKey& pk)
    : scheme_(scheme), key_{G2Prepared(pk.g[0]), G2Prepared(pk.g[1])} {}

std::array<PreparedTerm, 4> RoVerifier::terms(const std::array<G1Affine, 2>& h,
                                              const Signature& sig) const {
  const GeneratorTables& gen = *scheme_.params().tables;
  return {PreparedTerm{sig.z, &gen.g_z}, PreparedTerm{sig.r, &gen.g_r},
          PreparedTerm{h[0], &key_[0]}, PreparedTerm{h[1], &key_[1]}};
}

bool RoVerifier::verify(std::span<const uint8_t> msg,
                        const Signature& sig) const {
  return pairing_product_is_one(terms(scheme_.hash_message(msg), sig));
}

void RoVerifier::add_to_fold(FoldBuilder& fold, std::span<const uint8_t> msg,
                             const Signature& sig) const {
  fold.add({terms(scheme_.hash_message(msg), sig)});
}

bool RoVerifier::batch_verify(std::span<const Bytes> msgs,
                              std::span<const Signature> sigs,
                              Rng& rng) const {
  return fold_batch(*this, msgs, sigs, rng);
}

RoShareVerifier::RoShareVerifier(const G2Prepared* g_z, const G2Prepared* g_r,
                                 const VerificationKey& vk)
    : g_z_(g_z), g_r_(g_r), vk_{G2Prepared(vk.v[0]), G2Prepared(vk.v[1])} {}

bool RoShareVerifier::verify(const std::array<G1Affine, 2>& h,
                             const PartialSignature& sig) const {
  std::array<PreparedTerm, 4> terms = {
      PreparedTerm{sig.z, g_z_},
      PreparedTerm{sig.r, g_r_},
      PreparedTerm{h[0], &vk_[0]},
      PreparedTerm{h[1], &vk_[1]},
  };
  return pairing_product_is_one(terms);
}

RoCombiner::RoCombiner(const RoScheme& scheme, const KeyMaterial& km)
    : scheme_(scheme),
      n_(km.n),
      t_(km.t),
      key_(&scheme_.params().tables->g_z, &scheme_.params().tables->g_r,
           VerificationKey{km.pk.g}) {
  const GeneratorTables& gen = *scheme_.params().tables;
  players_.reserve(km.n);
  for (size_t i = 0; i < km.n; ++i)
    players_.emplace_back(&gen.g_z, &gen.g_r, km.vks[i]);
}

bool RoCombiner::share_verify(const std::array<G1Affine, 2>& h,
                              const PartialSignature& sig) const {
  if (sig.index < 1 || sig.index > n_)
    throw std::invalid_argument("RoCombiner: partial index out of range");
  return players_[sig.index - 1].verify(h, sig);
}

Signature RoCombiner::combine(std::span<const uint8_t> msg,
                              std::span<const PartialSignature> parts,
                              std::vector<uint32_t>* cheaters) const {
  auto h = scheme_.hash_message(msg);
  return optimistic_combine(
      n_, t_, parts,
      [&](std::span<const PartialSignature> head) {
        return scheme_.combine_unchecked(t_, head);
      },
      [&](const Signature& s) { return key_.verify(h, {0, s.z, s.r}); },
      [&](const PartialSignature& p) {
        return players_[p.index - 1].verify(h, p);
      },
      cheaters);
}

KeyShare RoScheme::recover(const KeyMaterial& km, Rng& rng, uint32_t lost,
                           std::span<const uint32_t> helpers) const {
  dkg::Config cfg = dkg_config(km.n, km.t);
  std::vector<std::vector<Fr>> shares;
  for (uint32_t i = 1; i <= km.n; ++i)
    shares.push_back(to_m_vector(km.shares[i - 1]));
  std::vector<G2Affine> lost_vk = {km.vks[lost - 1].v[0],
                                   km.vks[lost - 1].v[1]};
  auto recovered =
      dkg::recover_share(cfg, rng, lost, helpers, shares, lost_vk);
  KeyShare out = to_key_share(lost, recovered);
  secure_wipe(shares);
  secure_wipe(recovered);
  return out;
}

}  // namespace bnr::threshold
