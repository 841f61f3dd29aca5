// The four built-in scheme plugins behind the type-erased serving surface.
// Each plugin is a thin adapter from the concrete scheme types (which keep
// their full typed APIs) to the `Scheme` contract: serde at the boundary,
// prepared verifier/combiner construction through the two erasure
// templates (TypedPreparedVerifier, TypedPreparedCombiner), and
// deterministic sample material for the generic conformance suite. Each
// plugin class is 63-69 lines; adding a scheme means writing one more like
// these and constructing it in SchemeRegistry's constructor — nothing in
// the cache/service/wire layers changes.
#include "threshold/scheme_registry.hpp"

#include <stdexcept>
#include <utility>

#include "baselines/boldyreva.hpp"
#include "common/serde.hpp"
#include "threshold/aggregate_scheme.hpp"
#include "threshold/dlin_scheme.hpp"
#include "threshold/fold.hpp"
#include "threshold/ro_scheme.hpp"

namespace bnr::threshold {

std::string_view scheme_id_name(SchemeId id) {
  switch (id) {
    case SchemeId::kRo: return "ro";
    case SchemeId::kDlin: return "dlin";
    case SchemeId::kAgg: return "agg";
    case SchemeId::kBls: return "bls";
  }
  return "unknown";
}

namespace {

/// Tag-checked downcast for handles crossing the PUBLIC serialize_* surface:
/// a wrong-scheme or null handle throws instead of being reinterpreted (the
/// "rejected, never type-confused" guarantee; verify paths return false, the
/// serialize paths have no false to return).
template <class T, class Handle>
const T& unerase_checked(SchemeId want, const Handle& h, const char* what) {
  if (h.scheme != want || !h.obj)
    throw std::invalid_argument(std::string(what) +
                                ": wrong-scheme or null handle");
  return *static_cast<const T*>(h.obj.get());
}

/// Checks the committee's shape and parses every player's verification key
/// with `parse_vk`.
template <class ParseVk>
auto parse_vks(const Committee& c, ParseVk parse_vk) {
  if (c.n == 0 || c.t >= c.n)
    throw std::runtime_error("committee: threshold t must be < n");
  if (c.vks.size() != c.n)
    throw std::runtime_error("committee: vk count != n");
  std::vector<decltype(parse_vk(c.vks[0]))> vks;
  vks.reserve(c.n);
  for (const auto& vk : c.vks) vks.push_back(parse_vk(vk));
  return vks;
}

// ---------------------------------------------------------------------------
// RO (§3 main construction)

class RoPlugin final : public Scheme {
 public:
  explicit RoPlugin(const SystemParams& params) : scheme_(params) {}

  SchemeId id() const override { return SchemeId::kRo; }
  std::string_view name() const override { return "ro"; }

  Bytes canonical_public_key(std::span<const uint8_t> pk) const override {
    return PublicKey::deserialize(pk).serialize();
  }
  SigHandle parse_signature(std::span<const uint8_t> data) const override {
    return erase_signature(SchemeId::kRo, Signature::deserialize(data));
  }
  Bytes serialize_signature(const SigHandle& sig) const override {
    return unerase_checked<Signature>(SchemeId::kRo, sig, "ro signature")
        .serialize();
  }
  PartialHandle parse_partial(std::span<const uint8_t> data) const override {
    return erase_partial(SchemeId::kRo, PartialSignature::deserialize(data));
  }
  Bytes serialize_partial(const PartialHandle& part) const override {
    return unerase_checked<PartialSignature>(SchemeId::kRo, part, "ro partial")
        .serialize();
  }

  std::unique_ptr<PreparedVerifier> make_verifier(
      std::span<const uint8_t> pk_bytes) const override {
    return std::make_unique<TypedPreparedVerifier<RoVerifier, Signature>>(
        SchemeId::kRo, RoVerifier(scheme_, PublicKey::deserialize(pk_bytes)));
  }

  bool supports_combine() const override { return true; }

  std::unique_ptr<PreparedCombiner> make_combiner(
      const Committee& c) const override {
    auto vks = parse_vks(c, VerificationKey::deserialize);
    return std::make_unique<
        TypedPreparedCombiner<RoCombiner, PartialSignature>>(
        SchemeId::kRo,
        RoCombiner(scheme_, c.n, c.t,
                   VerificationKey{PublicKey::deserialize(c.pk).g},
                   std::move(vks)));
  }

  SchemeSample make_sample(size_t n, size_t t, std::span<const uint8_t> msg,
                           Rng& rng) const override {
    KeyMaterial km = scheme_.dist_keygen(n, t, rng);
    SchemeSample s;
    s.committee.pk = km.pk.serialize();
    s.committee.n = static_cast<uint32_t>(n);
    s.committee.t = static_cast<uint32_t>(t);
    for (const auto& vk : km.vks) s.committee.vks.push_back(vk.serialize());
    std::vector<PartialSignature> parts;
    for (uint32_t i = 1; i <= t + 1; ++i) {
      parts.push_back(scheme_.share_sign(km.shares[i - 1], msg));
      s.partials.push_back(parts.back().serialize());
    }
    s.sig = scheme_.combine_unchecked(t, parts).serialize();
    return s;
  }

 private:
  RoScheme scheme_;
};

// ---------------------------------------------------------------------------
// DLIN (App. F)

class DlinPlugin final : public Scheme {
 public:
  explicit DlinPlugin(const SystemParams& params) : scheme_(params) {}

  SchemeId id() const override { return SchemeId::kDlin; }
  std::string_view name() const override { return "dlin"; }

  Bytes canonical_public_key(std::span<const uint8_t> pk) const override {
    return DlinPublicKey::deserialize(pk).serialize();
  }
  SigHandle parse_signature(std::span<const uint8_t> data) const override {
    return erase_signature(SchemeId::kDlin, DlinSignature::deserialize(data));
  }
  Bytes serialize_signature(const SigHandle& sig) const override {
    return unerase_checked<DlinSignature>(SchemeId::kDlin, sig,
                                          "dlin signature")
        .serialize();
  }
  PartialHandle parse_partial(std::span<const uint8_t> data) const override {
    return erase_partial(SchemeId::kDlin,
                         DlinPartialSignature::deserialize(data));
  }
  Bytes serialize_partial(const PartialHandle& part) const override {
    return unerase_checked<DlinPartialSignature>(SchemeId::kDlin, part,
                                                 "dlin partial")
        .serialize();
  }

  std::unique_ptr<PreparedVerifier> make_verifier(
      std::span<const uint8_t> pk_bytes) const override {
    return std::make_unique<
        TypedPreparedVerifier<DlinVerifier, DlinSignature>>(
        SchemeId::kDlin,
        DlinVerifier(scheme_, DlinPublicKey::deserialize(pk_bytes)));
  }

  bool supports_combine() const override { return true; }

  std::unique_ptr<PreparedCombiner> make_combiner(
      const Committee& c) const override {
    auto vks = parse_vks(c, DlinVerificationKey::deserialize);
    const DlinPublicKey pk = DlinPublicKey::deserialize(c.pk);
    return std::make_unique<
        TypedPreparedCombiner<DlinCombiner, DlinPartialSignature>>(
        SchemeId::kDlin, DlinCombiner(scheme_, c.n, c.t,
                                      DlinVerificationKey{pk.g, pk.h},
                                      std::move(vks)));
  }

  SchemeSample make_sample(size_t n, size_t t, std::span<const uint8_t> msg,
                           Rng& rng) const override {
    DlinKeyMaterial km = scheme_.dist_keygen(n, t, rng);
    SchemeSample s;
    s.committee.pk = km.pk.serialize();
    s.committee.n = static_cast<uint32_t>(n);
    s.committee.t = static_cast<uint32_t>(t);
    for (const auto& vk : km.vks) s.committee.vks.push_back(vk.serialize());
    std::vector<DlinPartialSignature> parts;
    for (uint32_t i = 1; i <= t + 1; ++i) {
      parts.push_back(scheme_.share_sign(km.shares[i - 1], msg));
      s.partials.push_back(parts.back().serialize());
    }
    s.sig = scheme_.combine(km, msg, parts).serialize();
    return s;
  }

 private:
  DlinScheme scheme_;
};

// ---------------------------------------------------------------------------
// Aggregation-enabled extension (App. G)

class AggPlugin final : public Scheme {
 public:
  explicit AggPlugin(const SystemParams& params) : scheme_(params) {}

  SchemeId id() const override { return SchemeId::kAgg; }
  std::string_view name() const override { return "agg"; }

  Bytes canonical_public_key(std::span<const uint8_t> pk) const override {
    return AggPublicKey::deserialize(pk).serialize();
  }
  SigHandle parse_signature(std::span<const uint8_t> data) const override {
    return erase_signature(SchemeId::kAgg, Signature::deserialize(data));
  }
  Bytes serialize_signature(const SigHandle& sig) const override {
    return unerase_checked<Signature>(SchemeId::kAgg, sig, "agg signature")
        .serialize();
  }
  PartialHandle parse_partial(std::span<const uint8_t> data) const override {
    return erase_partial(SchemeId::kAgg, PartialSignature::deserialize(data));
  }
  Bytes serialize_partial(const PartialHandle& part) const override {
    return unerase_checked<PartialSignature>(SchemeId::kAgg, part,
                                             "agg partial")
        .serialize();
  }

  std::unique_ptr<PreparedVerifier> make_verifier(
      std::span<const uint8_t> pk_bytes) const override {
    // AggVerifier runs the key-validity sanity check once at construction;
    // an invalid key caches a verifier that fails fast.
    return std::make_unique<TypedPreparedVerifier<AggVerifier, Signature>>(
        SchemeId::kAgg,
        AggVerifier(scheme_, AggPublicKey::deserialize(pk_bytes)));
  }

  bool supports_combine() const override { return true; }

  std::unique_ptr<PreparedCombiner> make_combiner(
      const Committee& c) const override {
    auto vks = parse_vks(c, VerificationKey::deserialize);
    return std::make_unique<
        TypedPreparedCombiner<AggCombiner, PartialSignature>>(
        SchemeId::kAgg, AggCombiner(scheme_, c.n, c.t,
                                    AggPublicKey::deserialize(c.pk),
                                    std::move(vks)));
  }

  SchemeSample make_sample(size_t n, size_t t, std::span<const uint8_t> msg,
                           Rng& rng) const override {
    AggKeyMaterial km = scheme_.dist_keygen(n, t, rng);
    SchemeSample s;
    s.committee.pk = km.pk.serialize();
    s.committee.n = static_cast<uint32_t>(n);
    s.committee.t = static_cast<uint32_t>(t);
    for (const auto& vk : km.vks) s.committee.vks.push_back(vk.serialize());
    std::vector<PartialSignature> parts;
    for (uint32_t i = 1; i <= t + 1; ++i) {
      parts.push_back(scheme_.share_sign(km.pk, km.shares[i - 1], msg));
      s.partials.push_back(parts.back().serialize());
    }
    s.sig = scheme_.combine(km, msg, parts).serialize();
    return s;
  }

 private:
  AggregateScheme scheme_;
};

// ---------------------------------------------------------------------------
// Boldyreva threshold BLS (the static-security baseline). The concrete
// types carry no serializers of their own, so the plugin defines the wire
// forms: pk / vk are compressed G2 points, a signature is a compressed G1
// point, a partial is u32 index + compressed G1.

using baselines::BlsCombiner;
using baselines::BlsKeyMaterial;
using baselines::BlsPartialSignature;
using baselines::BlsVerifier;
using baselines::BoldyrevaBls;

/// Reads one value that must fill `data` exactly.
template <class Read>
auto read_exact(std::span<const uint8_t> data, Read read, const char* what) {
  ByteReader rd(data);
  auto v = read(rd);
  expect_done(rd, what);
  return v;
}

BlsPartialSignature bls_partial_deserialize(std::span<const uint8_t> data) {
  ByteReader rd(data);
  BlsPartialSignature p;
  p.index = rd.u32();
  p.sigma = g1_deserialize(rd);
  expect_done(rd, "BlsPartialSignature");
  return p;
}

Bytes bls_partial_serialize(const BlsPartialSignature& p) {
  ByteWriter w;
  w.u32(p.index);
  g1_serialize(p.sigma, w);
  return w.take();
}

class BlsPlugin final : public Scheme {
 public:
  explicit BlsPlugin(const SystemParams& params) : scheme_(params) {}

  SchemeId id() const override { return SchemeId::kBls; }
  std::string_view name() const override { return "bls"; }

  Bytes canonical_public_key(std::span<const uint8_t> pk) const override {
    return g2_to_bytes(read_exact(pk, g2_deserialize, "BlsPublicKey"));
  }
  SigHandle parse_signature(std::span<const uint8_t> data) const override {
    return erase_signature(SchemeId::kBls,
                           read_exact(data, g1_deserialize, "BlsSignature"));
  }
  Bytes serialize_signature(const SigHandle& sig) const override {
    return g1_to_bytes(
        unerase_checked<G1Affine>(SchemeId::kBls, sig, "bls signature"));
  }
  PartialHandle parse_partial(std::span<const uint8_t> data) const override {
    return erase_partial(SchemeId::kBls, bls_partial_deserialize(data));
  }
  Bytes serialize_partial(const PartialHandle& part) const override {
    return bls_partial_serialize(unerase_checked<BlsPartialSignature>(
        SchemeId::kBls, part, "bls partial"));
  }

  std::unique_ptr<PreparedVerifier> make_verifier(
      std::span<const uint8_t> pk_bytes) const override {
    return std::make_unique<TypedPreparedVerifier<BlsVerifier, G1Affine>>(
        SchemeId::kBls,
        BlsVerifier(scheme_,
                    {read_exact(pk_bytes, g2_deserialize, "BlsPublicKey")}));
  }

  bool supports_combine() const override { return true; }

  std::unique_ptr<PreparedCombiner> make_combiner(
      const Committee& c) const override {
    auto vks = parse_vks(c, [](std::span<const uint8_t> vk) {
      return read_exact(vk, g2_deserialize, "BlsVerificationKey");
    });
    return std::make_unique<
        TypedPreparedCombiner<BlsCombiner, BlsPartialSignature>>(
        SchemeId::kBls,
        BlsCombiner(scheme_, c.n, c.t,
                    {read_exact(c.pk, g2_deserialize, "BlsPublicKey")},
                    std::move(vks)));
  }

  SchemeSample make_sample(size_t n, size_t t, std::span<const uint8_t> msg,
                           Rng& rng) const override {
    BlsKeyMaterial km = scheme_.dealer_keygen(n, t, rng);
    SchemeSample s;
    s.committee.pk = g2_to_bytes(km.pk.pk);
    s.committee.n = static_cast<uint32_t>(n);
    s.committee.t = static_cast<uint32_t>(t);
    for (const auto& vk : km.vks) s.committee.vks.push_back(g2_to_bytes(vk));
    std::vector<BlsPartialSignature> parts;
    for (uint32_t i = 1; i <= t + 1; ++i) {
      parts.push_back(scheme_.share_sign(km.shares[i - 1], msg));
      s.partials.push_back(bls_partial_serialize(parts.back()));
    }
    s.sig = g1_to_bytes(scheme_.combine(km, msg, parts));
    return s;
  }

 private:
  BoldyrevaBls scheme_;
};

}  // namespace

SchemeRegistry::SchemeRegistry(const SystemParams& params) {
  owned_.push_back(std::make_unique<RoPlugin>(params));
  owned_.push_back(std::make_unique<DlinPlugin>(params));
  owned_.push_back(std::make_unique<AggPlugin>(params));
  owned_.push_back(std::make_unique<BlsPlugin>(params));
  for (const auto& s : owned_) view_.push_back(s.get());
}

const Scheme* SchemeRegistry::find(SchemeId id) const {
  for (const Scheme* s : view_)
    if (s->id() == id) return s;
  return nullptr;
}

const Scheme* SchemeRegistry::find(std::string_view name) const {
  for (const Scheme* s : view_)
    if (s->name() == name) return s;
  return nullptr;
}

const Scheme& SchemeRegistry::at(SchemeId id) const {
  const Scheme* s = find(id);
  if (!s)
    throw std::out_of_range("unknown scheme id " +
                            std::to_string(unsigned(id)));
  return *s;
}

}  // namespace bnr::threshold
