#include "threshold/dlin_scheme.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "common/serde.hpp"
#include "pairing/pairing.hpp"
#include "threshold/combine.hpp"
#include "threshold/fold.hpp"

namespace bnr::threshold {

namespace {
// m-vector layout: [a1,b1,c1, a2,b2,c2, a3,b3,c3].
constexpr size_t idx_a(size_t k) { return 3 * k; }
constexpr size_t idx_b(size_t k) { return 3 * k + 1; }
constexpr size_t idx_c(size_t k) { return 3 * k + 2; }

}  // namespace

Bytes DlinPublicKey::serialize() const {
  ByteWriter w;
  for (const auto& p : g) g2_serialize(p, w);
  for (const auto& p : h) g2_serialize(p, w);
  return w.take();
}

DlinPublicKey DlinPublicKey::deserialize(std::span<const uint8_t> data) {
  ByteReader rd(data);
  DlinPublicKey pk;
  for (auto& p : pk.g) p = g2_deserialize(rd);
  for (auto& p : pk.h) p = g2_deserialize(rd);
  expect_done(rd, "DlinPublicKey");
  return pk;
}

Bytes DlinKeyShare::serialize() const {
  ByteWriter w;
  w.u32(index);
  const auto& av = a.reveal();
  const auto& bv = b.reveal();
  const auto& cv = c.reveal();
  for (size_t k = 0; k < 3; ++k) {
    w.raw(av[k].to_bytes_be());
    w.raw(bv[k].to_bytes_be());
    w.raw(cv[k].to_bytes_be());
  }
  return w.take();
}

Bytes DlinVerificationKey::serialize() const {
  ByteWriter w;
  for (const auto& p : u) g2_serialize(p, w);
  for (const auto& p : z) g2_serialize(p, w);
  return w.take();
}

DlinVerificationKey DlinVerificationKey::deserialize(
    std::span<const uint8_t> data) {
  ByteReader rd(data);
  DlinVerificationKey vk;
  for (auto& p : vk.u) p = g2_deserialize(rd);
  for (auto& p : vk.z) p = g2_deserialize(rd);
  expect_done(rd, "DlinVerificationKey");
  return vk;
}

Bytes DlinPartialSignature::serialize() const {
  ByteWriter w;
  w.u32(index);
  g1_serialize(z, w);
  g1_serialize(r, w);
  g1_serialize(u, w);
  return w.take();
}

DlinPartialSignature DlinPartialSignature::deserialize(
    std::span<const uint8_t> data) {
  ByteReader rd(data);
  DlinPartialSignature p;
  p.index = rd.u32();
  p.z = g1_deserialize(rd);
  p.r = g1_deserialize(rd);
  p.u = g1_deserialize(rd);
  expect_done(rd, "DlinPartialSignature");
  return p;
}

Bytes DlinSignature::serialize() const {
  ByteWriter w;
  g1_serialize(z, w);
  g1_serialize(r, w);
  g1_serialize(u, w);
  return w.take();
}

DlinSignature DlinSignature::deserialize(std::span<const uint8_t> data) {
  ByteReader rd(data);
  DlinSignature s;
  s.z = g1_deserialize(rd);
  s.r = g1_deserialize(rd);
  s.u = g1_deserialize(rd);
  expect_done(rd, "DlinSignature");
  return s;
}

dkg::Config DlinScheme::dkg_config(size_t n, size_t t) const {
  dkg::Config cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.m = 9;
  // Rows 0..2: V^_{k,l} = g^_z^{a_k} g^_r^{b_k};
  // rows 3..5: W^_{k,l} = h^_z^{a_k} h^_u^{c_k}.
  for (size_t k = 0; k < 3; ++k)
    cfg.rows.push_back(
        dkg::VssRow{{{idx_a(k), params_.g_z}, {idx_b(k), params_.g_r}}});
  for (size_t k = 0; k < 3; ++k)
    cfg.rows.push_back(
        dkg::VssRow{{{idx_a(k), params_.h_z}, {idx_c(k), params_.h_u}}});
  return cfg;
}

DlinKeyMaterial DlinScheme::dist_keygen(
    size_t n, size_t t, Rng& rng,
    const std::map<uint32_t, dkg::Behavior>& behaviors,
    SyncNetwork* net) const {
  dkg::Config cfg = dkg_config(n, t);
  DlinKeyMaterial km;
  km.n = n;
  km.t = t;
  km.transcript = dkg::run_dkg(cfg, rng, behaviors, net);
  km.qualified = km.transcript.qualified;

  uint32_t honest = 1;
  while (behaviors.contains(honest)) ++honest;
  const auto& view = km.transcript.outputs[honest - 1];
  for (size_t k = 0; k < 3; ++k) {
    km.pk.g[k] = view.public_key[k];
    km.pk.h[k] = view.public_key[3 + k];
  }
  km.vks.resize(n);
  km.shares.resize(n);
  for (uint32_t i = 1; i <= n; ++i) {
    for (size_t k = 0; k < 3; ++k) {
      km.vks[i - 1].u[k] = view.verification_keys[i - 1][k];
      km.vks[i - 1].z[k] = view.verification_keys[i - 1][3 + k];
    }
    const auto& sv = km.transcript.outputs[i - 1].secret_share.reveal();
    km.shares[i - 1].index = i;
    auto& sa = km.shares[i - 1].a.reveal_mut();
    auto& sb = km.shares[i - 1].b.reveal_mut();
    auto& sc = km.shares[i - 1].c.reveal_mut();
    for (size_t k = 0; k < 3; ++k) {
      sa[k] = sv[idx_a(k)];
      sb[k] = sv[idx_b(k)];
      sc[k] = sv[idx_c(k)];
    }
  }
  return km;
}

std::array<G1Affine, 3> DlinScheme::hash_message(
    std::span<const uint8_t> msg) const {
  auto vec = hash_to_g1_vector(params_.hash_dst("H3"), msg, 3);
  return {vec[0], vec[1], vec[2]};
}

DlinPartialSignature DlinScheme::share_sign(
    const DlinKeyShare& share, std::span<const uint8_t> msg) const {
  auto h = hash_message(msg);
  G1 z, r, u;
  const auto& sa = share.a.reveal();
  const auto& sb = share.b.reveal();
  const auto& sc = share.c.reveal();
  for (size_t k = 0; k < 3; ++k) {
    G1 hk = G1::from_affine(h[k]);
    z = z + hk.mul(-sa[k]);
    r = r + hk.mul(-sb[k]);
    u = u + hk.mul(-sc[k]);
  }
  return {share.index, z.to_affine(), r.to_affine(), u.to_affine()};
}

bool DlinScheme::share_verify(const DlinVerificationKey& vk,
                              std::span<const uint8_t> msg,
                              const DlinPartialSignature& sig) const {
  return share_verify(vk, hash_message(msg), sig);
}

bool DlinScheme::share_verify(const DlinVerificationKey& vk,
                              const std::array<G1Affine, 3>& h,
                              const DlinPartialSignature& sig) const {
  // The four generator lines come from the params' shared tables; only the
  // six key elements are prepared here.
  return DlinShareVerifier(params_, vk).verify(h, sig);
}

namespace {

DlinSignature dlin_interpolate(std::span<const DlinPartialSignature> valid) {
  std::vector<uint32_t> indices;
  for (const auto& p : valid) indices.push_back(p.index);
  auto lagrange = lagrange_at_zero(indices);
  std::vector<G1Affine> zs, rs, us;
  for (const auto& p : valid) {
    zs.push_back(p.z);
    rs.push_back(p.r);
    us.push_back(p.u);
  }
  return {msm<G1>(zs, lagrange).to_affine(), msm<G1>(rs, lagrange).to_affine(),
          msm<G1>(us, lagrange).to_affine()};
}

}  // namespace

DlinSignature DlinScheme::combine(
    const DlinKeyMaterial& km, std::span<const uint8_t> msg,
    std::span<const DlinPartialSignature> parts) const {
  return DlinCombiner(*this, km).combine(msg, parts);
}

bool DlinScheme::verify(const DlinPublicKey& pk, std::span<const uint8_t> msg,
                        const DlinSignature& sig) const {
  // Verify is Share-Verify at index 0 against the committee key.
  return share_verify(DlinVerificationKey{pk.g, pk.h}, hash_message(msg),
                      {0, sig.z, sig.r, sig.u});
}

// ---------------------------------------------------------------------------
// Cached verification and Combine

DlinShareVerifier::DlinShareVerifier(const SystemParams& params,
                                     const DlinVerificationKey& vk)
    : gen_(params.tables.get()),
      u_{G2Prepared(vk.u[0]), G2Prepared(vk.u[1]), G2Prepared(vk.u[2])},
      z_{G2Prepared(vk.z[0]), G2Prepared(vk.z[1]), G2Prepared(vk.z[2])} {}

DlinShareVerifier::Equations DlinShareVerifier::equations(
    const std::array<G1Affine, 3>& h, const DlinPartialSignature& sig) const {
  Equations eq;
  eq[0] = {PreparedTerm{sig.z, &gen_->g_z}, PreparedTerm{sig.r, &gen_->g_r}};
  eq[1] = {PreparedTerm{sig.z, &gen_->h_z}, PreparedTerm{sig.u, &gen_->h_u}};
  for (size_t k = 0; k < 3; ++k) {
    eq[0][2 + k] = {h[k], &u_[k]};
    eq[1][2 + k] = {h[k], &z_[k]};
  }
  return eq;
}

bool DlinShareVerifier::verify(const std::array<G1Affine, 3>& h,
                               const DlinPartialSignature& sig) const {
  const Equations eq = equations(h, sig);
  return pairing_product_is_one(eq[0]) && pairing_product_is_one(eq[1]);
}

DlinVerifier::DlinVerifier(const DlinScheme& scheme, const DlinPublicKey& pk)
    : scheme_(scheme),
      key_(scheme_.params(), DlinVerificationKey{pk.g, pk.h}) {}

bool DlinVerifier::verify(std::span<const uint8_t> msg,
                          const DlinSignature& sig) const {
  return key_.verify(scheme_.hash_message(msg), {0, sig.z, sig.r, sig.u});
}

void DlinVerifier::add_to_fold(FoldBuilder& fold, std::span<const uint8_t> msg,
                               const DlinSignature& sig) const {
  const auto eq =
      key_.equations(scheme_.hash_message(msg), {0, sig.z, sig.r, sig.u});
  fold.add({eq[0], eq[1]});
}

bool DlinVerifier::batch_verify(std::span<const Bytes> msgs,
                                std::span<const DlinSignature> sigs,
                                Rng& rng) const {
  return fold_batch(*this, msgs, sigs, rng);
}

DlinCombiner::DlinCombiner(const DlinScheme& scheme,
                           const DlinKeyMaterial& km)
    : DlinCombiner(scheme, km.n, km.t, DlinVerificationKey{km.pk.g, km.pk.h},
                   km.vks) {}

DlinCombiner::DlinCombiner(const DlinScheme& scheme, size_t n, size_t t,
                           const DlinVerificationKey& key,
                           std::vector<DlinVerificationKey> vks)
    : scheme_(scheme),
      n_(n),
      t_(t),
      key_(scheme_.params(), key),
      vks_(std::move(vks)) {}

DlinSignature DlinCombiner::combine(std::span<const uint8_t> msg,
                                    std::span<const DlinPartialSignature> parts,
                                    std::vector<uint32_t>* cheaters) const {
  auto h = scheme_.hash_message(msg);  // hashed ONCE for every check
  return optimistic_combine(
      n_, t_, parts, dlin_interpolate,
      [&](const DlinSignature& s) {
        return key_.verify(h, {0, s.z, s.r, s.u});
      },
      [&](const DlinPartialSignature& p) {
        return scheme_.share_verify(vks_[p.index - 1], h, p);
      },
      cheaters);
}

}  // namespace bnr::threshold
