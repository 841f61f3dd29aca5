// Conformance suite for the scheme-plugin API: every test below is driven
// GENERICALLY over every scheme the registry serves, so a new plugin
// inherits the whole suite (serde round-trips, truncated/malformed
// rejection, prepared-verifier semantics, combine, erased-tag safety) once
// the registry constructs it — no new test code.
#include <gtest/gtest.h>

#include "baselines/boldyreva.hpp"
#include "common/rng.hpp"
#include "common/serde.hpp"
#include "threshold/aggregate_scheme.hpp"
#include "threshold/dlin_scheme.hpp"
#include "threshold/ro_scheme.hpp"
#include "threshold/scheme_registry.hpp"

namespace bnr {
namespace {

using namespace bnr::threshold;

class SchemeApiTest : public ::testing::Test {
 protected:
  /// One registry (and one deterministic sample set) shared by the whole
  /// suite — a DKG per scheme per test would dominate the runtime, and the
  /// cached Scheme pointers must outlive every test that reads them.
  static SchemeRegistry& registry() {
    static SchemeRegistry* r =
        new SchemeRegistry(SystemParams::derive("scheme-api/v1"));
    return *r;
  }

  struct Material {
    const Scheme* scheme;
    SchemeSample sample;        // on kMsg
    SchemeSample other_sample;  // on kOtherMsg (wrong-message signatures)
  };

  static const std::vector<Material>& materials() {
    static std::vector<Material>* cached = [] {
      auto* out = new std::vector<Material>;
      Rng rng("scheme-api-conformance");
      for (const Scheme* s : registry().schemes())
        out->push_back({s, s->make_sample(3, 1, kMsg, rng),
                        s->make_sample(3, 1, kOtherMsg, rng)});
      return out;
    }();
    return *cached;
  }

  static inline const Bytes kMsg = to_bytes("scheme-api conformance message");
  static inline const Bytes kOtherMsg = to_bytes("a different message");
};

TEST_F(SchemeApiTest, RegistryResolvesEveryBuiltin) {
  for (SchemeId id :
       {SchemeId::kRo, SchemeId::kDlin, SchemeId::kAgg, SchemeId::kBls}) {
    const Scheme* s = registry().find(id);
    ASSERT_NE(s, nullptr) << scheme_id_name(id);
    EXPECT_EQ(s->id(), id);
    EXPECT_EQ(s->name(), scheme_id_name(id));
    EXPECT_EQ(registry().find(s->name()), s);
    EXPECT_EQ(&registry().at(id), s);
  }
  EXPECT_EQ(registry().find(static_cast<SchemeId>(99)), nullptr);
  EXPECT_THROW(registry().at(static_cast<SchemeId>(99)), std::out_of_range);
  EXPECT_EQ(registry().find("no-such-scheme"), nullptr);
}

TEST_F(SchemeApiTest, SerdeRoundTripsEveryScheme) {
  for (const auto& m : materials()) {
    SCOPED_TRACE(std::string(m.scheme->name()));
    const auto& s = m.sample;
    // Public key: canonicalization is idempotent and total on valid input.
    Bytes pk = m.scheme->canonical_public_key(s.committee.pk);
    EXPECT_EQ(pk, s.committee.pk);
    EXPECT_EQ(m.scheme->canonical_public_key(pk), pk);
    // Signature: parse -> serialize is the identity on canonical bytes, and
    // the handle carries the scheme's own tag.
    SigHandle sig = m.scheme->parse_signature(s.sig);
    EXPECT_EQ(sig.scheme, m.scheme->id());
    EXPECT_EQ(m.scheme->serialize_signature(sig), s.sig);
    // Partials, all t+1 of them.
    for (const Bytes& pb : s.partials) {
      PartialHandle part = m.scheme->parse_partial(pb);
      EXPECT_EQ(part.scheme, m.scheme->id());
      EXPECT_EQ(m.scheme->serialize_partial(part), pb);
    }
  }
}

TEST_F(SchemeApiTest, TruncatedAndTrailingBytesRejectedEveryScheme) {
  for (const auto& m : materials()) {
    SCOPED_TRACE(std::string(m.scheme->name()));
    const auto& s = m.sample;
    auto expect_rejects = [&](const Bytes& good, auto parse) {
      // Every strict prefix throws — these decoders sit on the network
      // boundary and must never parse garbage or over-read.
      for (size_t cut = 0; cut < good.size(); ++cut) {
        Bytes trunc(good.begin(), good.begin() + cut);
        EXPECT_THROW(parse(trunc), std::exception) << "prefix " << cut;
      }
      // Trailing bytes violate canonical encoding.
      Bytes padded = good;
      padded.push_back(0x00);
      EXPECT_THROW(parse(padded), std::exception);
    };
    expect_rejects(s.committee.pk, [&](const Bytes& b) {
      return m.scheme->canonical_public_key(b);
    });
    expect_rejects(
        s.sig, [&](const Bytes& b) { return m.scheme->parse_signature(b); });
    expect_rejects(s.partials[0], [&](const Bytes& b) {
      return m.scheme->parse_partial(b);
    });
  }
}

TEST_F(SchemeApiTest, PreparedVerifierAcceptsAndRejectsEveryScheme) {
  Rng rng("scheme-api-batch-coins");
  for (const auto& m : materials()) {
    SCOPED_TRACE(std::string(m.scheme->name()));
    auto verifier = m.scheme->make_verifier(m.sample.committee.pk);
    ASSERT_NE(verifier, nullptr);
    EXPECT_EQ(verifier->scheme(), m.scheme->id());
    // The prepared footprint must be real (line tables are tens of KB for
    // the pairing-heavy schemes; at minimum the object itself).
    EXPECT_GE(verifier->cache_bytes(), sizeof(PreparedVerifier));

    SigHandle good = m.scheme->parse_signature(m.sample.sig);
    SigHandle wrong = m.scheme->parse_signature(m.other_sample.sig);
    EXPECT_TRUE(verifier->verify(kMsg, good));
    // `wrong` is a valid signature of another committee on another message:
    // a double rejection (wrong key AND wrong message).
    EXPECT_FALSE(verifier->verify(kMsg, wrong));

    // Batch fold: honest batch accepts; one wrong member poisons the fold.
    std::vector<Bytes> msgs = {kMsg, kMsg};
    std::vector<SigHandle> sigs = {good, good};
    EXPECT_TRUE(verifier->batch_verify(msgs, sigs, rng));
    sigs[1] = wrong;
    EXPECT_FALSE(verifier->batch_verify(msgs, sigs, rng));
  }
}

TEST_F(SchemeApiTest, VerifiersCountOnlyTheirOwnedTables) {
  // A cached verifier owns the line tables of its key's G2 elements only:
  // 2 for RO and Agg, 6 for DLIN, 1 for BLS. The generator tables (g^_z,
  // g^_r, h^_z, h^_u, the G2 generator) live once in SystemParams::tables,
  // and cache_bytes() must not charge them to every key.
  const size_t table = G2Prepared(G2Curve::generator_affine()).line_bytes();
  const SystemParams sp = SystemParams::derive("scheme-api/v1");
  for (const auto& m : materials()) {
    SCOPED_TRACE(std::string(m.scheme->name()));
    const Bytes& pk = m.sample.committee.pk;
    size_t owned = 0, typed_bytes = 0, object = 0;
    switch (m.scheme->id()) {
      case SchemeId::kRo: {
        RoVerifier v(RoScheme(sp), PublicKey::deserialize(pk));
        owned = 2, typed_bytes = v.cache_bytes(), object = sizeof(v);
        break;
      }
      case SchemeId::kDlin: {
        DlinVerifier v(DlinScheme(sp), DlinPublicKey::deserialize(pk));
        owned = 6, typed_bytes = v.cache_bytes(), object = sizeof(v);
        break;
      }
      case SchemeId::kAgg: {
        AggVerifier v(AggregateScheme(sp), AggPublicKey::deserialize(pk));
        owned = 2, typed_bytes = v.cache_bytes(), object = sizeof(v);
        break;
      }
      case SchemeId::kBls: {
        ByteReader rd(pk);
        baselines::BlsVerifier v(baselines::BoldyrevaBls(sp),
                                 {g2_deserialize(rd)});
        owned = 1, typed_bytes = v.cache_bytes(), object = sizeof(v);
        break;
      }
    }
    EXPECT_EQ(typed_bytes, object + owned * table);
    // The erased verifier the cache holds adds only its vptr and tag.
    const size_t erased = m.scheme->make_verifier(pk)->cache_bytes();
    EXPECT_GE(erased, typed_bytes);
    EXPECT_LT(erased, typed_bytes + 64);
  }
}

TEST_F(SchemeApiTest, CombinersOwnOnlyTheCommitteeKeyTables) {
  // A cached combiner owns the line tables of its committee key only: 2 for
  // RO and Agg, 6 for DLIN, 1 for BLS, whatever n is. The players'
  // verification keys stay affine (the fallback scan prepares the ones it
  // checks), and the generator tables live in SystemParams::tables. So the
  // bytes beyond the owned tables (object, erasure, affine keys) stay below
  // one table at n = 3 and at n = 7.
  const size_t table = G2Prepared(G2Curve::generator_affine()).line_bytes();
  Rng rng("scheme-api-combiner-footprint");
  for (const Scheme* s : registry().schemes()) {
    SCOPED_TRACE(std::string(s->name()));
    const size_t owned = s->id() == SchemeId::kDlin  ? 6
                         : s->id() == SchemeId::kBls ? 1
                                                     : 2;
    for (size_t n : {3, 7}) {
      SCOPED_TRACE(n);
      const SchemeSample sample = s->make_sample(n, (n - 1) / 2, kMsg, rng);
      const size_t bytes = s->make_combiner(sample.committee)->cache_bytes();
      EXPECT_GE(bytes, owned * table);
      EXPECT_LT(bytes, (owned + 1) * table);
    }
  }
}

TEST_F(SchemeApiTest, WrongSchemeHandleIsRejectedNotConfused) {
  // A handle tagged with scheme A handed to scheme B's verifier must be
  // REJECTED (false), never reinterpreted — the erased surface's type
  // confusion guard.
  for (const auto& m : materials()) {
    auto verifier = m.scheme->make_verifier(m.sample.committee.pk);
    for (const auto& other : materials()) {
      if (other.scheme == m.scheme) continue;
      SigHandle foreign = other.scheme->parse_signature(other.sample.sig);
      EXPECT_FALSE(verifier->verify(kMsg, foreign))
          << m.scheme->name() << " verifier, " << other.scheme->name()
          << " handle";
    }
    SigHandle null_handle{m.scheme->id(), nullptr};
    EXPECT_FALSE(verifier->verify(kMsg, null_handle));
  }
}

TEST_F(SchemeApiTest, PreparedCombinerCombinesEveryScheme) {
  Rng rng("scheme-api-combine-coins");
  for (const auto& m : materials()) {
    SCOPED_TRACE(std::string(m.scheme->name()));
    ASSERT_TRUE(m.scheme->supports_combine());
    auto combiner = m.scheme->make_combiner(m.sample.committee);
    ASSERT_NE(combiner, nullptr);
    EXPECT_EQ(combiner->scheme(), m.scheme->id());
    EXPECT_GE(combiner->cache_bytes(), sizeof(PreparedCombiner));

    std::vector<PartialHandle> parts;
    for (const Bytes& pb : m.sample.partials)
      parts.push_back(m.scheme->parse_partial(pb));
    std::vector<uint32_t> cheaters;
    Bytes sig = combiner->combine(kMsg, parts, rng, nullptr, &cheaters);
    EXPECT_TRUE(cheaters.empty());
    // The combined signature verifies under the committee's public key.
    auto verifier = m.scheme->make_verifier(m.sample.committee.pk);
    EXPECT_TRUE(verifier->verify(kMsg, m.scheme->parse_signature(sig)));

    // A resent partial ([p1, p1, p2]) is not interpolated twice: the same
    // signature comes back and nobody is named.
    ASSERT_EQ(parts.size(), 2u);
    std::vector<PartialHandle> resent = {parts[0], parts[0], parts[1]};
    EXPECT_EQ(combiner->combine(kMsg, resent, rng, nullptr, &cheaters), sig);
    EXPECT_TRUE(cheaters.empty());
    // A bad partial for player 1 (another committee's, on another message)
    // ahead of the resent good one: the check fails, the scan names player
    // 1 once and interpolates each index once.
    std::vector<PartialHandle> bad_first = {
        m.scheme->parse_partial(m.other_sample.partials[0]), parts[0],
        parts[0], parts[1]};
    EXPECT_EQ(combiner->combine(kMsg, bad_first, rng, nullptr, &cheaters),
              sig);
    EXPECT_EQ(cheaters, std::vector<uint32_t>({1}));

    // Losing a partial below t+1 must throw, not fabricate a signature.
    std::vector<PartialHandle> too_few(parts.begin(), parts.end() - 1);
    ASSERT_EQ(too_few.size(), 1u);  // t = 1 -> needs 2
    EXPECT_THROW(combiner->combine(kMsg, too_few, rng, nullptr, nullptr),
                 std::runtime_error);
  }
}

TEST_F(SchemeApiTest, MalformedCommitteesRejectedEveryScheme) {
  for (const auto& m : materials()) {
    SCOPED_TRACE(std::string(m.scheme->name()));
    Committee c = m.sample.committee;
    c.t = c.n;  // t must be < n
    EXPECT_THROW(m.scheme->make_combiner(c), std::runtime_error);
    c = m.sample.committee;
    c.vks.pop_back();  // vk count != n
    EXPECT_THROW(m.scheme->make_combiner(c), std::runtime_error);
    c = m.sample.committee;
    c.pk.pop_back();  // malformed public key
    EXPECT_THROW(m.scheme->make_combiner(c), std::exception);
  }
}

}  // namespace
}  // namespace bnr
