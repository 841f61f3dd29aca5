// Appendix G: the aggregation-enabled extension of the main scheme.
//
// Each public key carries a built-in validity proof (Z, R) — a one-time
// LHSPS on the fixed vector (g, h) under the key's own commitment — produced
// distributively during Dist-Keygen (each player broadcasts (Z_i0, R_i0),
// publicly checked by a pairing equation; cheaters are disqualified).
// Signatures of distinct (key, message) pairs multiply into one 2-element
// aggregate; Aggregate-Verify additionally runs the per-key sanity check.
// Messages are hashed as H(PK || M) to bind signatures to their keys.
#pragma once

#include <map>

#include "dkg/pedersen_dkg.hpp"
#include "threshold/ro_scheme.hpp"

namespace bnr::threshold {

struct AggPublicKey {
  std::array<G2Affine, 2> g;  // (g^_1, g^_2)
  G1Affine big_z, big_r;      // LHSPS on (g, h): the key-validity proof

  Bytes serialize() const;
  static AggPublicKey deserialize(std::span<const uint8_t> data);
  bool operator==(const AggPublicKey& o) const {
    return g == o.g && big_z == o.big_z && big_r == o.big_r;
  }
};

struct AggKeyMaterial {
  size_t n = 0, t = 0;
  AggPublicKey pk;
  std::vector<KeyShare> shares;
  std::vector<VerificationKey> vks;
  std::vector<uint32_t> qualified;
  dkg::RunResult transcript;
};

struct AggregateSignature {
  G1Affine z, r;

  Bytes serialize() const;
};

/// One (public key, message) statement inside an aggregate.
struct AggStatement {
  AggPublicKey pk;
  Bytes message;
};

class AggregateScheme {
 public:
  explicit AggregateScheme(SystemParams params) : params_(std::move(params)) {}

  const SystemParams& params() const { return params_; }

  dkg::Config dkg_config(size_t n, size_t t) const;

  AggKeyMaterial dist_keygen(
      size_t n, size_t t, Rng& rng,
      const std::map<uint32_t, dkg::Behavior>& behaviors = {},
      SyncNetwork* net = nullptr) const;

  /// The sanity check run on every key inside Aggregate-Verify:
  /// e(Z, g^_z) e(R, g^_r) e(g, g^_1) e(h, g^_2) == 1.
  bool key_sanity_check(const AggPublicKey& pk) const;

  /// H(PK || M).
  std::array<G1Affine, 2> hash_message(const AggPublicKey& pk,
                                       std::span<const uint8_t> msg) const;

  PartialSignature share_sign(const AggPublicKey& pk, const KeyShare& share,
                              std::span<const uint8_t> msg) const;
  bool share_verify(const AggPublicKey& pk, const VerificationKey& vk,
                    std::span<const uint8_t> msg,
                    const PartialSignature& sig) const;
  /// Hash-hoisted variant (Combine hashes H(PK || M) once for all partials).
  bool share_verify(const VerificationKey& vk,
                    const std::array<G1Affine, 2>& h,
                    const PartialSignature& sig) const;
  /// Optimistic Combine (threshold/combine.hpp) under H(PK || M): the
  /// interpolated signature is checked against km.pk, and Share-Verify runs
  /// only when that check fails, appending bad indices to `cheaters`. Runs
  /// AggCombiner's body on a combiner built for this call.
  Signature combine(const AggKeyMaterial& km, std::span<const uint8_t> msg,
                    std::span<const PartialSignature> parts,
                    std::vector<uint32_t>* cheaters = nullptr) const;
  bool verify(const AggPublicKey& pk, std::span<const uint8_t> msg,
              const Signature& sig) const;

  /// Componentwise product of individually valid signatures; returns nullopt
  /// if any input fails Verify (as the paper's Aggregate specifies).
  std::optional<AggregateSignature> aggregate(
      std::span<const AggStatement> statements,
      std::span<const Signature> signatures) const;

  bool aggregate_verify(std::span<const AggStatement> statements,
                        const AggregateSignature& sig) const;

 private:
  SystemParams params_;
};

/// Cached verifier for one aggregation-enabled key: the hash H(PK || M)
/// plus the key at index 0, the main scheme's prepared key. The
/// key-validity sanity check (itself a product of four pairings) runs a
/// single time at construction instead of per verify.
class AggVerifier {
 public:
  AggVerifier(const AggregateScheme& scheme, const AggPublicKey& pk);

  /// Result of the one-time key sanity check; verify() fails fast when the
  /// key itself is invalid.
  bool key_valid() const { return key_valid_; }

  bool verify(std::span<const uint8_t> msg, const Signature& sig) const;
  /// Adds the RO-shaped equation under H(PK || M); under an invalid key the
  /// member fails outright.
  void add_to_fold(FoldBuilder& fold, std::span<const uint8_t> msg,
                   const Signature& sig) const;
  bool batch_verify(std::span<const Bytes> msgs,
                    std::span<const Signature> sigs, Rng& rng) const;

  /// Resident footprint (object + the two owned line tables) for the
  /// KeyCacheManager byte budget.
  size_t cache_bytes() const { return sizeof(*this) + key_.line_bytes(); }

 private:
  AggregateScheme scheme_;  // its params own the shared g^_z/g^_r tables
  AggPublicKey pk_;
  bool key_valid_ = false;
  RoShareVerifier key_;  // g^_1, g^_2
};

/// Serving-side Combine engine for an aggregation-enabled committee: the
/// main scheme's RoCombiner under H(PK || M). It owns the committee key's
/// two line tables and keeps the players' keys affine, like RoCombiner.
class AggCombiner {
 public:
  AggCombiner(const AggregateScheme& scheme, const AggKeyMaterial& km);
  /// `vks[i-1]` is player i's verification key.
  AggCombiner(const AggregateScheme& scheme, size_t n, size_t t,
              const AggPublicKey& pk, std::vector<VerificationKey> vks);

  /// Optimistic Combine; the same output as AggregateScheme::combine.
  Signature combine(std::span<const uint8_t> msg,
                    std::span<const PartialSignature> parts,
                    std::vector<uint32_t>* cheaters = nullptr) const;

  size_t cache_bytes() const {
    return sizeof(*this) - sizeof(ro_) + ro_.cache_bytes();
  }

 private:
  AggregateScheme scheme_;
  AggPublicKey pk_;
  RoCombiner ro_;
};

}  // namespace bnr::threshold
