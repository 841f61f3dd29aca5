// The four built-in scheme plugins behind the type-erased serving surface.
// Each plugin is a thin adapter from the concrete scheme types (which keep
// their full typed APIs) to the `Scheme` contract: serde at the boundary,
// prepared verifier/combiner construction, and deterministic sample
// material for the generic conformance suite. Adding a scheme means writing
// one more block like these (~100 lines) and registering its factory —
// nothing in the cache/service/wire layers changes.
#include "threshold/scheme_registry.hpp"

#include <mutex>
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

template <class T>
const T& unerase(const std::shared_ptr<const void>& obj) {
  return *static_cast<const T*>(obj.get());
}

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

/// Converts erased partial handles back to the scheme's native type,
/// dropping wrong-scheme handles (they cannot carry a valid partial; the
/// combiner's t+1 threshold then decides whether enough remain).
template <class Part>
std::vector<Part> unerase_partials(SchemeId id,
                                   std::span<const PartialHandle> parts) {
  std::vector<Part> typed;
  typed.reserve(parts.size());
  for (const auto& p : parts)
    if (p.scheme == id && p.obj) typed.push_back(unerase<Part>(p.obj));
  return typed;
}

void check_committee_shape(const Committee& c) {
  if (c.n == 0 || c.t >= c.n)
    throw std::runtime_error("committee: threshold t must be < n");
  if (c.vks.size() != c.n)
    throw std::runtime_error("committee: vk count != n");
}

// ---------------------------------------------------------------------------
// RO (§3 main construction)

class RoPreparedCombiner final : public PreparedCombiner {
 public:
  explicit RoPreparedCombiner(std::shared_ptr<const RoCombiner> c)
      : c_(std::move(c)) {}

  SchemeId scheme() const override { return SchemeId::kRo; }

  Bytes combine(std::span<const uint8_t> msg,
                std::span<const PartialHandle> parts, Rng&,
                const FoldEvaluator&,
                std::vector<uint32_t>* cheaters) const override {
    auto typed = unerase_partials<PartialSignature>(SchemeId::kRo, parts);
    return c_->combine(msg, typed, cheaters).serialize();
  }

  size_t cache_bytes() const override {
    return sizeof(*this) + c_->cache_bytes();
  }

 private:
  std::shared_ptr<const RoCombiner> c_;
};

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
    check_committee_shape(c);
    auto km = std::make_shared<KeyMaterial>();
    km->n = c.n;
    km->t = c.t;
    km->pk = PublicKey::deserialize(c.pk);
    km->vks.reserve(c.vks.size());
    for (const auto& vk : c.vks)
      km->vks.push_back(VerificationKey::deserialize(vk));
    return std::make_unique<RoPreparedCombiner>(
        std::make_shared<const RoCombiner>(scheme_, *km));
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

class DlinPreparedCombiner final : public PreparedCombiner {
 public:
  explicit DlinPreparedCombiner(std::shared_ptr<const DlinCombiner> c)
      : c_(std::move(c)) {}

  SchemeId scheme() const override { return SchemeId::kDlin; }

  Bytes combine(std::span<const uint8_t> msg,
                std::span<const PartialHandle> parts, Rng&,
                const FoldEvaluator&,
                std::vector<uint32_t>* cheaters) const override {
    auto typed = unerase_partials<DlinPartialSignature>(SchemeId::kDlin, parts);
    return c_->combine(msg, typed, cheaters).serialize();
  }

  size_t cache_bytes() const override {
    return sizeof(*this) + c_->cache_bytes();
  }

 private:
  std::shared_ptr<const DlinCombiner> c_;
};

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
    check_committee_shape(c);
    DlinKeyMaterial km;
    km.n = c.n;
    km.t = c.t;
    km.pk = DlinPublicKey::deserialize(c.pk);
    km.vks.reserve(c.vks.size());
    for (const auto& vk : c.vks)
      km.vks.push_back(DlinVerificationKey::deserialize(vk));
    return std::make_unique<DlinPreparedCombiner>(
        std::make_shared<const DlinCombiner>(scheme_, km));
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
// Aggregation-enabled extension (App. G). Its combiner holds the parsed
// committee only and runs AggregateScheme::combine, which checks
// unprepared; there is no per-committee prepared state.

class AggPreparedCombiner final : public PreparedCombiner {
 public:
  AggPreparedCombiner(const AggregateScheme& scheme, AggKeyMaterial km)
      : scheme_(scheme), km_(std::move(km)) {}

  SchemeId scheme() const override { return SchemeId::kAgg; }

  Bytes combine(std::span<const uint8_t> msg,
                std::span<const PartialHandle> parts, Rng&,
                const FoldEvaluator&,
                std::vector<uint32_t>* cheaters) const override {
    auto typed = unerase_partials<PartialSignature>(SchemeId::kAgg, parts);
    return scheme_.combine(km_, msg, typed, cheaters).serialize();
  }

  size_t cache_bytes() const override {
    return sizeof(*this) + km_.vks.capacity() * sizeof(VerificationKey);
  }

 private:
  AggregateScheme scheme_;
  AggKeyMaterial km_;
};

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
    check_committee_shape(c);
    AggKeyMaterial km;
    km.n = c.n;
    km.t = c.t;
    km.pk = AggPublicKey::deserialize(c.pk);
    km.vks.reserve(c.vks.size());
    for (const auto& vk : c.vks)
      km.vks.push_back(VerificationKey::deserialize(vk));
    return std::make_unique<AggPreparedCombiner>(scheme_, std::move(km));
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

using baselines::BlsKeyMaterial;
using baselines::BlsPartialSignature;
using baselines::BlsPublicKey;
using baselines::BlsVerifier;
using baselines::BoldyrevaBls;

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

class BlsPreparedCombiner final : public PreparedCombiner {
 public:
  BlsPreparedCombiner(const BoldyrevaBls& scheme, BlsKeyMaterial km)
      : scheme_(scheme), km_(std::move(km)) {}

  SchemeId scheme() const override { return SchemeId::kBls; }

  Bytes combine(std::span<const uint8_t> msg,
                std::span<const PartialHandle> parts, Rng&,
                const FoldEvaluator&,
                std::vector<uint32_t>* cheaters) const override {
    auto typed = unerase_partials<BlsPartialSignature>(SchemeId::kBls, parts);
    ByteWriter w;
    g1_serialize(scheme_.combine(km_, msg, typed, cheaters), w);
    return w.take();
  }

  size_t cache_bytes() const override {
    return sizeof(*this) + km_.vks.capacity() * sizeof(G2Affine) +
           km_.shares.capacity() * sizeof(baselines::BlsKeyShare);
  }

 private:
  BoldyrevaBls scheme_;
  BlsKeyMaterial km_;
};

class BlsPlugin final : public Scheme {
 public:
  explicit BlsPlugin(const SystemParams& params) : scheme_(params) {}

  SchemeId id() const override { return SchemeId::kBls; }
  std::string_view name() const override { return "bls"; }

  Bytes canonical_public_key(std::span<const uint8_t> pk) const override {
    ByteReader rd(pk);
    G2Affine p = g2_deserialize(rd);
    expect_done(rd, "BlsPublicKey");
    ByteWriter w;
    g2_serialize(p, w);
    return w.take();
  }
  SigHandle parse_signature(std::span<const uint8_t> data) const override {
    ByteReader rd(data);
    G1Affine sig = g1_deserialize(rd);
    expect_done(rd, "BlsSignature");
    return erase_signature(SchemeId::kBls, sig);
  }
  Bytes serialize_signature(const SigHandle& sig) const override {
    ByteWriter w;
    g1_serialize(unerase_checked<G1Affine>(SchemeId::kBls, sig,
                                           "bls signature"),
                 w);
    return w.take();
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
    ByteReader rd(pk_bytes);
    BlsPublicKey pk{g2_deserialize(rd)};
    expect_done(rd, "BlsPublicKey");
    return std::make_unique<TypedPreparedVerifier<BlsVerifier, G1Affine>>(
        SchemeId::kBls, BlsVerifier(scheme_, pk));
  }

  bool supports_combine() const override { return true; }

  std::unique_ptr<PreparedCombiner> make_combiner(
      const Committee& c) const override {
    check_committee_shape(c);
    BlsKeyMaterial km;
    km.n = c.n;
    km.t = c.t;
    {
      ByteReader rd(c.pk);
      km.pk.pk = g2_deserialize(rd);
      expect_done(rd, "BlsPublicKey");
    }
    km.vks.reserve(c.vks.size());
    for (const auto& vk : c.vks) {
      ByteReader rd(vk);
      km.vks.push_back(g2_deserialize(rd));
      expect_done(rd, "BlsVerificationKey");
    }
    return std::make_unique<BlsPreparedCombiner>(scheme_, std::move(km));
  }

  SchemeSample make_sample(size_t n, size_t t, std::span<const uint8_t> msg,
                           Rng& rng) const override {
    BlsKeyMaterial km = scheme_.dealer_keygen(n, t, rng);
    SchemeSample s;
    {
      ByteWriter w;
      g2_serialize(km.pk.pk, w);
      s.committee.pk = w.take();
    }
    s.committee.n = static_cast<uint32_t>(n);
    s.committee.t = static_cast<uint32_t>(t);
    for (const auto& vk : km.vks) {
      ByteWriter w;
      g2_serialize(vk, w);
      s.committee.vks.push_back(w.take());
    }
    std::vector<BlsPartialSignature> parts;
    for (uint32_t i = 1; i <= t + 1; ++i) {
      parts.push_back(scheme_.share_sign(km.shares[i - 1], msg));
      s.partials.push_back(bls_partial_serialize(parts.back()));
    }
    ByteWriter w;
    g1_serialize(scheme_.combine(km, msg, parts), w);
    s.sig = w.take();
    return s;
  }

 private:
  BoldyrevaBls scheme_;
};

// ---------------------------------------------------------------------------
// Factory table

struct FactoryEntry {
  SchemeId id;
  SchemeRegistry::Factory make;
};

std::mutex& factories_mutex() {
  static std::mutex m;
  return m;
}

std::vector<FactoryEntry>& factories() {
  static std::vector<FactoryEntry> list = {
      {SchemeId::kRo,
       [](const SystemParams& p) { return std::make_unique<RoPlugin>(p); }},
      {SchemeId::kDlin,
       [](const SystemParams& p) { return std::make_unique<DlinPlugin>(p); }},
      {SchemeId::kAgg,
       [](const SystemParams& p) { return std::make_unique<AggPlugin>(p); }},
      {SchemeId::kBls,
       [](const SystemParams& p) { return std::make_unique<BlsPlugin>(p); }},
  };
  return list;
}

}  // namespace

std::shared_ptr<const PreparedCombiner> erase_combiner(
    std::shared_ptr<const RoCombiner> combiner) {
  return std::make_shared<const RoPreparedCombiner>(std::move(combiner));
}

std::shared_ptr<const PreparedCombiner> erase_combiner(
    std::shared_ptr<const DlinCombiner> combiner) {
  return std::make_shared<const DlinPreparedCombiner>(std::move(combiner));
}

SchemeRegistry::SchemeRegistry(const SystemParams& params) {
  std::lock_guard<std::mutex> l(factories_mutex());
  for (const auto& f : factories()) {
    owned_.push_back(f.make(params));
    if (owned_.back()->id() != f.id)
      throw std::logic_error("scheme factory id mismatch");
    view_.push_back(owned_.back().get());
  }
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

void SchemeRegistry::register_factory(SchemeId id, Factory factory) {
  std::lock_guard<std::mutex> l(factories_mutex());
  for (const auto& f : factories())
    if (f.id == id)
      throw std::invalid_argument("scheme id already registered: " +
                                  std::to_string(unsigned(id)));
  factories().push_back({id, std::move(factory)});
}

}  // namespace bnr::threshold
