// The paper's main construction (§3): a fully distributed, non-interactive,
// robust, adaptively secure (t, n)-threshold signature in the random-oracle
// model, with O(1)-size key shares and 2-group-element signatures.
//
//   Dist-Keygen   Pedersen DKG over pairs {(A_k(i), B_k(i))}_{k=1,2}
//   Share-Sign    z_i = prod_k H_k^{-A_k(i)}, r_i = prod_k H_k^{-B_k(i)}
//   Share-Verify  e(z_i,g^_z) e(r_i,g^_r) prod_k e(H_k, V^_{k,i}) == 1
//   Combine       Lagrange interpolation in the exponent
//   Verify        e(z,g^_z) e(r,g^_r) e(H_1,g^_1) e(H_2,g^_2) == 1
#pragma once

#include <array>
#include <map>

#include "common/rng.hpp"
#include "common/secret.hpp"
#include "dkg/pedersen_dkg.hpp"
#include "dkg/proactive.hpp"
#include "pairing/pairing.hpp"
#include "threshold/params.hpp"

namespace bnr::threshold {

struct PublicKey {
  std::array<G2Affine, 2> g;  // (g^_1, g^_2)

  Bytes serialize() const;
  static PublicKey deserialize(std::span<const uint8_t> data);
  bool operator==(const PublicKey& o) const { return g == o.g; }
};

struct KeyShare {
  uint32_t index = 0;
  Secret<std::array<Fr, 2>> a;  // A_1(i), A_2(i)
  Secret<std::array<Fr, 2>> b;  // B_1(i), B_2(i)

  Bytes serialize() const;  // O(1): 4 scalars, regardless of n
  static KeyShare deserialize(std::span<const uint8_t> data);
};

struct VerificationKey {
  std::array<G2Affine, 2> v;  // (V^_{1,i}, V^_{2,i})

  Bytes serialize() const;
  static VerificationKey deserialize(std::span<const uint8_t> data);
};

struct PartialSignature {
  uint32_t index = 0;
  G1Affine z, r;

  Bytes serialize() const;
  static PartialSignature deserialize(std::span<const uint8_t> data);
};

struct Signature {
  G1Affine z, r;

  Bytes serialize() const;
  static Signature deserialize(std::span<const uint8_t> data);
  bool operator==(const Signature& o) const { return z == o.z && r == o.r; }
};

/// Everything Dist-Keygen produces. The per-player shares live together here
/// because the whole n-server system is simulated in-process; a real
/// deployment would hand each KeyShare to its server only.
struct KeyMaterial {
  size_t n = 0, t = 0;
  PublicKey pk;
  std::vector<KeyShare> shares;          // index i-1 -> player i
  std::vector<VerificationKey> vks;
  std::vector<uint32_t> qualified;
  dkg::RunResult transcript;
};

class RoScheme {
 public:
  explicit RoScheme(SystemParams params) : params_(std::move(params)) {}

  const SystemParams& params() const { return params_; }

  /// The DKG instantiation: m = 4 secrets (A1,B1,A2,B2), one commitment row
  /// per k with generators (g^_z, g^_r).
  dkg::Config dkg_config(size_t n, size_t t) const;

  /// Runs Dist-Keygen over a simulated network (§3.1 step 1-4).
  KeyMaterial dist_keygen(size_t n, size_t t, Rng& rng,
                          const std::map<uint32_t, dkg::Behavior>& behaviors = {},
                          SyncNetwork* net = nullptr) const;

  /// H(M) = (H_1, H_2) in G^2.
  std::array<G1Affine, 2> hash_message(std::span<const uint8_t> msg) const;

  PartialSignature share_sign(const KeyShare& share,
                              std::span<const uint8_t> msg) const;
  bool share_verify(const VerificationKey& vk, std::span<const uint8_t> msg,
                    const PartialSignature& sig) const;
  /// Hash-hoisted variant: callers checking many partial signatures of the
  /// same message (Combine) hash once and reuse `h`.
  bool share_verify(const VerificationKey& vk,
                    const std::array<G1Affine, 2>& h,
                    const PartialSignature& sig) const;

  /// Optimistic Combine (threshold/combine.hpp): interpolates the first t+1
  /// partials with distinct indices and returns that signature if it
  /// verifies under km.pk; otherwise Share-Verifies partials in input order
  /// and interpolates the first t+1 valid ones (robustness). Throws
  /// std::runtime_error if fewer than t+1 valid shares remain. Runs
  /// RoCombiner's body on a combiner built for this call.
  Signature combine(const KeyMaterial& km, std::span<const uint8_t> msg,
                    std::span<const PartialSignature> parts) const;

  /// Combine without per-share verification (for benchmarking the happy
  /// path separately from robustness).
  Signature combine_unchecked(size_t t, std::span<const PartialSignature> parts) const;

  bool verify(const PublicKey& pk, std::span<const uint8_t> msg,
              const Signature& sig) const;

  /// Proactive refresh (§3.3): new shares/VKs, same public key.
  void refresh(KeyMaterial& km, Rng& rng,
               const std::map<uint32_t, dkg::Behavior>& behaviors = {},
               SyncNetwork* net = nullptr) const;

  /// Share recovery (§3.3 / Herzberg et al.): rebuilds player `lost`'s share.
  KeyShare recover(const KeyMaterial& km, Rng& rng, uint32_t lost,
                   std::span<const uint32_t> helpers) const;

  // Conversions between DKG vectors ([A1,B1,A2,B2]) and scheme types.
  static KeyShare to_key_share(uint32_t index, std::span<const Fr> m_vector);
  static std::vector<Fr> to_m_vector(const KeyShare& share);

 private:
  SystemParams params_;
};

class FoldBuilder;  // threshold/fold.hpp

/// The prepared verification key at one index of the sharing: player i's
/// (V^_{1,i}, V^_{2,i}), or at index 0 the committee key (g^_1, g^_2), the
/// verification key of the sharing polynomials' constant terms. Owns the
/// prepared Miller-loop lines of its two G2 elements and points at the
/// params' shared g^_z/g^_r tables (whoever builds it keeps those params
/// alive), so a check pays only line evaluations and one final
/// exponentiation. terms() is the one place the equation
///   e(z, g^_z) e(r, g^_r) e(H_1, V^_1) e(H_2, V^_2) == 1
/// is assembled: Share-Verify, Verify (index 0), Combine's check, and in the
/// aggregation-enabled extension its key sanity check, all run it.
class RoShareVerifier {
 public:
  RoShareVerifier(const SystemParams& params, const VerificationKey& vk);

  std::array<PreparedTerm, 4> terms(const std::array<G1Affine, 2>& h,
                                    const PartialSignature& sig) const;
  bool verify(const std::array<G1Affine, 2>& h,
              const PartialSignature& sig) const;

  /// Heap bytes of the two owned line tables (the shared generator tables
  /// belong to the params).
  size_t line_bytes() const {
    return vk_[0].line_bytes() + vk_[1].line_bytes();
  }

 private:
  const GeneratorTables* gen_;
  std::array<G2Prepared, 2> vk_;
};

/// Cached verifier for one public key: the scheme's hash plus the key at
/// index 0, so each Verify pays only line evaluations plus the final
/// exponentiation. This is the hot-path object a serving deployment keeps
/// per tenant key.
class RoVerifier {
 public:
  RoVerifier(const RoScheme& scheme, const PublicKey& pk);

  bool verify(std::span<const uint8_t> msg, const Signature& sig) const;

  /// Adds e(z, g^_z) e(r, g^_r) e(H_1, g^_1) e(H_2, g^_2) == 1 to a shared
  /// fold (threshold/fold.hpp); the g^_z/g^_r terms of every key under the
  /// same params land on the same two tables.
  void add_to_fold(FoldBuilder& fold, std::span<const uint8_t> msg,
                   const Signature& sig) const;

  /// Folds many (message, signature) pairs into ONE product of four
  /// pairings with 128-bit random coefficients: a batch containing any
  /// invalid signature passes with probability at most ~N/2^128.
  bool batch_verify(std::span<const Bytes> msgs,
                    std::span<const Signature> sigs, Rng& rng) const;

  /// Resident footprint (object + the two owned line tables): what one
  /// tenant key costs inside a KeyCacheManager byte budget.
  size_t cache_bytes() const { return sizeof(*this) + key_.line_bytes(); }

 private:
  RoScheme scheme_;      // its params own the shared g^_z/g^_r tables
  RoShareVerifier key_;  // g^_1, g^_2
};

/// Serving-side Combine engine for one committee: the committee key
/// prepared (the verification key at index 0) and the players' affine
/// verification keys. combine() interpolates first and checks the one
/// combined signature against the key, a 4-term prepared product at any t;
/// only when that check fails does the scan Share-Verify partials through
/// RoScheme::share_verify, which prepares the checked partial's two key
/// tables (threshold/combine.hpp). RoScheme::combine and the
/// aggregation-enabled extension's combiner run this same body.
class RoCombiner {
 public:
  RoCombiner(const RoScheme& scheme, const KeyMaterial& km);
  /// `vks[i-1]` is player i's verification key; `key` the committee's.
  RoCombiner(const RoScheme& scheme, size_t n, size_t t,
             const VerificationKey& key, std::vector<VerificationKey> vks);

  /// Optimistic Combine; the same output as RoScheme::combine. Appends the
  /// indices of bad partials found by the fallback scan to `cheaters` when
  /// given. Throws if fewer than t+1 are valid.
  Signature combine(std::span<const uint8_t> msg,
                    std::span<const PartialSignature> parts,
                    std::vector<uint32_t>* cheaters = nullptr) const;
  /// The same with the message already hashed (the aggregation-enabled
  /// extension hashes H(PK || M)).
  Signature combine_hashed(const std::array<G1Affine, 2>& h,
                           std::span<const PartialSignature> parts,
                           std::vector<uint32_t>* cheaters = nullptr) const;

  /// Resident footprint (object + the key's two line tables + the players'
  /// affine keys): what one committee costs in a KeyCacheManager budget,
  /// whatever n is.
  size_t cache_bytes() const {
    return sizeof(*this) + key_.line_bytes() +
           vks_.capacity() * sizeof(VerificationKey);
  }

 private:
  RoScheme scheme_;  // its params own the shared g^_z/g^_r tables
  size_t n_ = 0, t_ = 0;
  RoShareVerifier key_;  // the committee key: the verification key at index 0
  std::vector<VerificationKey> vks_;  // index i-1 -> player i
};

}  // namespace bnr::threshold
