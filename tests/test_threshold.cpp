// End-to-end tests for the paper's threshold schemes: the main RO-model
// scheme (§3), the DLIN variant (App. F), and the aggregate scheme (App. G).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fixtures.hpp"
#include "threshold/aggregate_scheme.hpp"
#include "threshold/dlin_scheme.hpp"
#include "threshold/ro_scheme.hpp"

namespace bnr {
namespace {

using namespace bnr::threshold;

Bytes msg_bytes(std::string_view s) { return to_bytes(s); }

// The keygen/partials/tamper boilerplate lives in tests/fixtures.hpp; this
// suite only fixes its domain label.
struct RoFixture : testfx::RoSchemeFixture {
  RoFixture() : RoSchemeFixture("ro-test") {}
};

TEST_F(RoFixture, EndToEnd) {
  auto km = keygen();
  Bytes m = msg_bytes("the quick brown fox");
  std::vector<uint32_t> signers = {1, 3, 5};
  auto parts = partials(km, m, signers);
  Signature sig = scheme.combine(km, m, parts);
  EXPECT_TRUE(scheme.verify(km.pk, m, sig));
  EXPECT_FALSE(scheme.verify(km.pk, msg_bytes("another message"), sig));
}

TEST_F(RoFixture, AnySubsetYieldsTheSameSignature) {
  // Determinism across subsets — the heart of non-interactivity: no agreed
  // randomness, any t+1 shares combine to the unique signature.
  auto km = keygen();
  Bytes m = msg_bytes("deterministic");
  std::vector<std::vector<uint32_t>> subsets = {
      {1, 2, 3}, {3, 4, 5}, {1, 3, 5}, {2, 4, 5}};
  std::optional<Signature> reference;
  for (const auto& subset : subsets) {
    auto parts = partials(km, m, subset);
    Signature sig = scheme.combine(km, m, parts);
    if (!reference)
      reference = sig;
    else
      EXPECT_EQ(sig, *reference);
  }
}

TEST_F(RoFixture, CombineRequiresThresholdPlusOne) {
  auto km = keygen();
  Bytes m = msg_bytes("too few");
  std::vector<uint32_t> signers = {1, 2};  // t = 2 -> need 3
  auto parts = partials(km, m, signers);
  EXPECT_THROW(scheme.combine(km, m, parts), std::runtime_error);
}

TEST_F(RoFixture, ShareVerifyAcceptsHonestRejectsTampered) {
  auto km = keygen();
  Bytes m = msg_bytes("share verify");
  auto p = scheme.share_sign(km.shares[1], m);
  EXPECT_TRUE(scheme.share_verify(km.vks[1], m, p));
  // Wrong player's VK.
  EXPECT_FALSE(scheme.share_verify(km.vks[2], m, p));
  // Tampered component.
  PartialSignature bad = p;
  bad.z = (G1::from_affine(bad.z) + G1::generator()).to_affine();
  EXPECT_FALSE(scheme.share_verify(km.vks[1], m, bad));
  // Wrong message.
  EXPECT_FALSE(scheme.share_verify(km.vks[1], msg_bytes("other"), p));
}

TEST_F(RoFixture, CombineIsRobustToInvalidShares) {
  // A corrupted partial signature is identified via Share-Verify and
  // skipped; combine succeeds with the remaining t+1 valid ones.
  auto km = keygen();
  Bytes m = msg_bytes("robust");
  auto parts = partials(km, m, std::vector<uint32_t>{1, 2, 3, 4});
  parts[0].z = (G1::from_affine(parts[0].z) + G1::generator()).to_affine();
  Signature sig = scheme.combine(km, m, parts);
  EXPECT_TRUE(scheme.verify(km.pk, m, sig));
}

TEST_F(RoFixture, CombineFailsIfTooManyInvalid) {
  // Players 1 and 3 corrupted alike: their errors do not cancel under
  // interpolation over {1, 2, 3} (lambda_1 + lambda_3 = 4), and only two
  // valid shares remain.
  auto km = keygen();
  Bytes m = msg_bytes("mostly bad");
  auto parts = partials(km, m, std::vector<uint32_t>{1, 2, 3, 4});
  for (size_t i : {0u, 2u})
    parts[i].z = (G1::from_affine(parts[i].z) + G1::generator()).to_affine();
  EXPECT_THROW(scheme.combine(km, m, parts), std::runtime_error);
}

TEST_F(RoFixture, BatchedCombineIsDeterministicAndMatchesCombiner) {
  // Combine is deterministic, and the cached RoCombiner must agree with the
  // stateless path bit for bit.
  auto km = keygen();
  Bytes m = msg_bytes("batched combine");
  auto parts = partials(km, m, std::vector<uint32_t>{1, 2, 4, 5});
  Signature a = scheme.combine(km, m, parts);
  Signature b = scheme.combine(km, m, parts);
  EXPECT_EQ(a, b);
  RoCombiner combiner(scheme, km);
  EXPECT_EQ(a, combiner.combine(m, parts));
  EXPECT_TRUE(scheme.verify(km.pk, m, a));
}

TEST_F(RoFixture, WorksAfterByzantineKeygen) {
  std::map<uint32_t, dkg::Behavior> behaviors;
  behaviors[2].bad_commitments = true;
  behaviors[4].crash = true;
  auto km = scheme.dist_keygen(5, 2, rng, behaviors);
  EXPECT_EQ(km.qualified, (std::vector<uint32_t>{1, 3, 5}));
  Bytes m = msg_bytes("after byzantine keygen");
  // Disqualified players hold zero shares; qualified ones still sign.
  std::vector<PartialSignature> parts;
  for (uint32_t i : {1u, 3u, 5u})
    parts.push_back(scheme.share_sign(km.shares[i - 1], m));
  Signature sig = scheme.combine(km, m, parts);
  EXPECT_TRUE(scheme.verify(km.pk, m, sig));
}

TEST_F(RoFixture, SignatureSizeMatchesPaperClaim) {
  // §3.1: 512 bits of group elements on BN254 (plus 2 encoding tag bytes in
  // our wire format). Key shares are O(1): 4 scalars.
  auto km = keygen();
  Bytes m = msg_bytes("size");
  auto parts = partials(km, m, std::vector<uint32_t>{1, 2, 3});
  Signature sig = scheme.combine(km, m, parts);
  EXPECT_EQ(sig.serialize().size(), 2 * kG1CompressedSize);  // 66 bytes
  EXPECT_EQ(km.shares[0].serialize().size(), 4u + 4 * 32u);
  // Deserialization round-trip.
  Signature back = Signature::deserialize(sig.serialize());
  EXPECT_EQ(back, sig);
}

TEST_F(RoFixture, NonInteractivityOneMessagePerServer) {
  // Each partial signature is a single self-contained message; no
  // server-to-server traffic is ever needed for signing.
  auto km = keygen();
  Bytes m = msg_bytes("one message");
  auto p1 = scheme.share_sign(km.shares[0], m);
  Bytes wire = p1.serialize();
  EXPECT_EQ(wire.size(), 4u + 2 * kG1CompressedSize);
  // The combiner can act on wire messages alone.
  auto parts = partials(km, m, std::vector<uint32_t>{1, 2, 3});
  EXPECT_TRUE(scheme.verify(km.pk, m, scheme.combine(km, m, parts)));
}

TEST_F(RoFixture, ProactiveRefreshKeepsPublicKey) {
  auto km = keygen();
  Bytes m = msg_bytes("before refresh");
  auto sig_before =
      scheme.combine(km, m, partials(km, m, std::vector<uint32_t>{1, 2, 3}));
  PublicKey pk_before = km.pk;
  auto old_share = km.shares[0];

  scheme.refresh(km, rng);
  EXPECT_EQ(km.pk, pk_before);
  // Shares rotated.
  EXPECT_NE(km.shares[0].a.reveal()[0], old_share.a.reveal()[0]);
  // New shares still sign under the same public key.
  Bytes m2 = msg_bytes("after refresh");
  auto sig_after =
      scheme.combine(km, m2, partials(km, m2, std::vector<uint32_t>{2, 3, 4}));
  EXPECT_TRUE(scheme.verify(km.pk, m2, sig_after));
  // Old signatures remain valid.
  EXPECT_TRUE(scheme.verify(km.pk, m, sig_before));
}

TEST_F(RoFixture, StalePartialSignatureFailsAfterRefresh) {
  // A mobile adversary's pre-refresh partials are useless afterwards: the
  // refreshed VK rejects them.
  auto km = keygen();
  Bytes m = msg_bytes("stale");
  auto stale = scheme.share_sign(km.shares[0], m);
  scheme.refresh(km, rng);
  EXPECT_FALSE(scheme.share_verify(km.vks[0], m, stale));
}

TEST_F(RoFixture, RecoverLostShareAndSign) {
  auto km = keygen();
  auto lost_share = km.shares[2];
  std::vector<uint32_t> helpers = {1, 2, 4};
  KeyShare recovered = scheme.recover(km, rng, 3, helpers);
  EXPECT_EQ(recovered.a.reveal(), lost_share.a.reveal());
  EXPECT_EQ(recovered.b.reveal(), lost_share.b.reveal());
  Bytes m = msg_bytes("recovered");
  auto p = scheme.share_sign(recovered, m);
  EXPECT_TRUE(scheme.share_verify(km.vks[2], m, p));
}

struct RoTnTest : RoFixture,
                  ::testing::WithParamInterface<std::pair<size_t, size_t>> {};

TEST_P(RoTnTest, EndToEndAcrossThresholds) {
  auto [t, n] = GetParam();
  auto km = scheme.dist_keygen(n, t, rng);
  Bytes m = msg_bytes("tn sweep");
  std::vector<uint32_t> signers;
  for (uint32_t i = 1; i <= t + 1; ++i) signers.push_back(i);
  auto parts = partials(km, m, signers);
  Signature sig = scheme.combine(km, m, parts);
  EXPECT_TRUE(scheme.verify(km.pk, m, sig));
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, RoTnTest,
    ::testing::Values(std::pair<size_t, size_t>{1, 3},
                      std::pair<size_t, size_t>{2, 5},
                      std::pair<size_t, size_t>{3, 7},
                      std::pair<size_t, size_t>{4, 9}),
    [](const ::testing::TestParamInfo<std::pair<size_t, size_t>>& tpi) {
      return "t" + std::to_string(tpi.param.first) + "n" +
             std::to_string(tpi.param.second);
    });

// ---------------------------------------------------------------------------
// DLIN variant (App. F)

struct DlinFixture : testfx::DlinSchemeFixture {
  DlinFixture() : DlinSchemeFixture("dlin-test") {}
};

TEST_F(DlinFixture, EndToEnd) {
  auto km = scheme.dist_keygen(5, 2, rng);
  Bytes m = msg_bytes("dlin message");
  std::vector<DlinPartialSignature> parts;
  for (uint32_t i : {1u, 2u, 4u})
    parts.push_back(scheme.share_sign(km.shares[i - 1], m));
  auto sig = scheme.combine(km, m, parts);
  EXPECT_TRUE(scheme.verify(km.pk, m, sig));
  EXPECT_FALSE(scheme.verify(km.pk, msg_bytes("other"), sig));
}

TEST_F(DlinFixture, ShareVerifyIsSound) {
  auto km = scheme.dist_keygen(5, 2, rng);
  Bytes m = msg_bytes("dlin shares");
  auto p = scheme.share_sign(km.shares[0], m);
  EXPECT_TRUE(scheme.share_verify(km.vks[0], m, p));
  EXPECT_FALSE(scheme.share_verify(km.vks[1], m, p));
  auto bad = p;
  bad.u = (G1::from_affine(bad.u) + G1::generator()).to_affine();
  EXPECT_FALSE(scheme.share_verify(km.vks[0], m, bad));
}

TEST_F(DlinFixture, SignatureIsThreeGroupElements) {
  auto km = scheme.dist_keygen(3, 1, rng);
  Bytes m = msg_bytes("dlin size");
  std::vector<DlinPartialSignature> parts = {
      scheme.share_sign(km.shares[0], m), scheme.share_sign(km.shares[1], m)};
  auto sig = scheme.combine(km, m, parts);
  EXPECT_EQ(sig.serialize().size(), 3 * kG1CompressedSize);
}

TEST_F(DlinFixture, CombineIsRobustToTamperedPartial) {
  // The interpolated signature must fail its check and the fallback
  // per-partial scan skip exactly the tampered share.
  auto km = scheme.dist_keygen(5, 2, rng);
  Bytes m = msg_bytes("dlin robust");
  std::vector<DlinPartialSignature> parts;
  for (uint32_t i : {1u, 2u, 3u, 4u})
    parts.push_back(scheme.share_sign(km.shares[i - 1], m));
  parts[0].r = (G1::from_affine(parts[0].r) + G1::generator()).to_affine();
  auto sig = scheme.combine(km, m, parts);
  EXPECT_TRUE(scheme.verify(km.pk, m, sig));
  // Too many tampered -> throws.
  parts[1].z = (G1::from_affine(parts[1].z) + G1::generator()).to_affine();
  EXPECT_THROW(scheme.combine(km, m, parts), std::runtime_error);
}

TEST_F(DlinFixture, RobustAgainstByzantineDkg) {
  std::map<uint32_t, dkg::Behavior> behaviors;
  behaviors[5].send_bad_share_to = {1, 2, 3, 4};
  behaviors[5].refuse_complaint_response = true;
  auto km = scheme.dist_keygen(5, 2, rng, behaviors);
  EXPECT_EQ(km.qualified, (std::vector<uint32_t>{1, 2, 3, 4}));
  Bytes m = msg_bytes("dlin byzantine");
  std::vector<DlinPartialSignature> parts;
  for (uint32_t i : {1u, 2u, 3u})
    parts.push_back(scheme.share_sign(km.shares[i - 1], m));
  EXPECT_TRUE(scheme.verify(km.pk, m, scheme.combine(km, m, parts)));
}

// ---------------------------------------------------------------------------
// Aggregate scheme (App. G)

struct AggFixture : ::testing::Test {
  SystemParams sp = SystemParams::derive("agg-test");
  AggregateScheme scheme{sp};
  Rng rng{"agg-test-rng"};

  Signature make_sig(const AggKeyMaterial& km, std::span<const uint8_t> m) {
    std::vector<PartialSignature> parts;
    for (uint32_t i = 1; i <= km.t + 1; ++i)
      parts.push_back(scheme.share_sign(km.pk, km.shares[i - 1], m));
    return scheme.combine(km, m, parts);
  }
};

TEST_F(AggFixture, KeySanityCheckHolds) {
  auto km = scheme.dist_keygen(3, 1, rng);
  EXPECT_TRUE(scheme.key_sanity_check(km.pk));
  // A tampered key-validity proof fails the check.
  AggPublicKey bad = km.pk;
  bad.big_z = (G1::from_affine(bad.big_z) + G1::generator()).to_affine();
  EXPECT_FALSE(scheme.key_sanity_check(bad));
}

TEST_F(AggFixture, SingleKeyEndToEnd) {
  auto km = scheme.dist_keygen(3, 1, rng);
  Bytes m = msg_bytes("agg single");
  Signature sig = make_sig(km, m);
  EXPECT_TRUE(scheme.verify(km.pk, m, sig));
}

TEST_F(AggFixture, AggregateAcrossKeysVerifies) {
  auto km1 = scheme.dist_keygen(3, 1, rng);
  auto km2 = scheme.dist_keygen(3, 1, rng);
  auto km3 = scheme.dist_keygen(3, 1, rng);
  std::vector<AggStatement> sts = {{km1.pk, msg_bytes("cert for alice")},
                                   {km2.pk, msg_bytes("cert for bob")},
                                   {km3.pk, msg_bytes("cert for carol")}};
  std::vector<Signature> sigs = {make_sig(km1, sts[0].message),
                                 make_sig(km2, sts[1].message),
                                 make_sig(km3, sts[2].message)};
  auto agg = scheme.aggregate(sts, sigs);
  ASSERT_TRUE(agg.has_value());
  EXPECT_TRUE(scheme.aggregate_verify(sts, *agg));
  // Aggregate stays 2 group elements regardless of the number of keys.
  EXPECT_EQ(agg->serialize().size(), 2 * kG1CompressedSize);
}

TEST_F(AggFixture, AggregateSupportsRepeatedKey) {
  // Bellare-Namprempre-Neven-style unrestricted aggregation: the same key
  // may sign several messages of the bundle.
  auto km = scheme.dist_keygen(3, 1, rng);
  std::vector<AggStatement> sts = {{km.pk, msg_bytes("msg one")},
                                   {km.pk, msg_bytes("msg two")}};
  std::vector<Signature> sigs = {make_sig(km, sts[0].message),
                                 make_sig(km, sts[1].message)};
  auto agg = scheme.aggregate(sts, sigs);
  ASSERT_TRUE(agg.has_value());
  EXPECT_TRUE(scheme.aggregate_verify(sts, *agg));
}

TEST_F(AggFixture, AggregateRejectsInvalidInput) {
  auto km1 = scheme.dist_keygen(3, 1, rng);
  auto km2 = scheme.dist_keygen(3, 1, rng);
  std::vector<AggStatement> sts = {{km1.pk, msg_bytes("a")},
                                   {km2.pk, msg_bytes("b")}};
  Signature good = make_sig(km1, sts[0].message);
  Signature bad = good;  // signature for the wrong key/message
  EXPECT_EQ(scheme.aggregate(sts, std::vector<Signature>{good, bad}),
            std::nullopt);
}

TEST_F(AggFixture, AggregateVerifyRejectsTampering) {
  auto km1 = scheme.dist_keygen(3, 1, rng);
  auto km2 = scheme.dist_keygen(3, 1, rng);
  std::vector<AggStatement> sts = {{km1.pk, msg_bytes("x")},
                                   {km2.pk, msg_bytes("y")}};
  std::vector<Signature> sigs = {make_sig(km1, sts[0].message),
                                 make_sig(km2, sts[1].message)};
  auto agg = scheme.aggregate(sts, sigs);
  ASSERT_TRUE(agg.has_value());
  // Swap a message.
  auto tampered = sts;
  tampered[0].message = msg_bytes("forged");
  EXPECT_FALSE(scheme.aggregate_verify(tampered, *agg));
  // Corrupt the aggregate.
  AggregateSignature corrupt = *agg;
  corrupt.z = (G1::from_affine(corrupt.z) + G1::generator()).to_affine();
  EXPECT_FALSE(scheme.aggregate_verify(sts, corrupt));
}

TEST_F(AggFixture, CheaterInKeygenExtraIsDisqualified) {
  std::map<uint32_t, dkg::Behavior> behaviors;
  behaviors[2].bad_extra = true;
  auto km = scheme.dist_keygen(4, 1, rng, behaviors);
  EXPECT_EQ(km.qualified, (std::vector<uint32_t>{1, 3, 4}));
  // The resulting key is still sane and usable.
  EXPECT_TRUE(scheme.key_sanity_check(km.pk));
  Bytes m = msg_bytes("post-cheat");
  std::vector<PartialSignature> parts;
  for (uint32_t i : {1u, 3u})
    parts.push_back(scheme.share_sign(km.pk, km.shares[i - 1], m));
  EXPECT_TRUE(scheme.verify(km.pk, m, scheme.combine(km, m, parts)));
}

}  // namespace
}  // namespace bnr
