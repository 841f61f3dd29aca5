// Appendix F: the DLIN-based variant of the threshold scheme. Works even in
// pairing configurations with efficiently computable isomorphisms between
// the source groups (where SXDH fails): signatures are triples
// (z, r, u) in G^3 and verification checks two pairing-product equations
// against the doubled public key {g^_k, h^_k}.
#pragma once

#include <array>
#include <map>

#include "common/secret.hpp"
#include "dkg/pedersen_dkg.hpp"
#include "pairing/pairing.hpp"
#include "threshold/params.hpp"

namespace bnr::threshold {

struct DlinPublicKey {
  std::array<G2Affine, 3> g;  // g^_k = g^_z^{a_k} g^_r^{b_k}
  std::array<G2Affine, 3> h;  // h^_k = h^_z^{a_k} h^_u^{c_k}

  Bytes serialize() const;
  static DlinPublicKey deserialize(std::span<const uint8_t> data);
};

struct DlinKeyShare {
  uint32_t index = 0;
  Secret<std::array<Fr, 3>> a, b, c;

  Bytes serialize() const;
};

struct DlinVerificationKey {
  std::array<G2Affine, 3> u;  // U^_{k,i} = g^_z^{A_k(i)} g^_r^{B_k(i)}
  std::array<G2Affine, 3> z;  // Z^_{k,i} = h^_z^{A_k(i)} h^_u^{C_k(i)}

  Bytes serialize() const;
  static DlinVerificationKey deserialize(std::span<const uint8_t> data);
};

struct DlinPartialSignature {
  uint32_t index = 0;
  G1Affine z, r, u;

  Bytes serialize() const;
  static DlinPartialSignature deserialize(std::span<const uint8_t> data);
};

struct DlinSignature {
  G1Affine z, r, u;

  Bytes serialize() const;
  static DlinSignature deserialize(std::span<const uint8_t> data);
  bool operator==(const DlinSignature& o) const {
    return z == o.z && r == o.r && u == o.u;
  }
};

struct DlinKeyMaterial {
  size_t n = 0, t = 0;
  DlinPublicKey pk;
  std::vector<DlinKeyShare> shares;
  std::vector<DlinVerificationKey> vks;
  std::vector<uint32_t> qualified;
  dkg::RunResult transcript;
};

class DlinScheme {
 public:
  explicit DlinScheme(SystemParams params) : params_(std::move(params)) {}

  const SystemParams& params() const { return params_; }

  /// m = 9 secrets (a_k, b_k, c_k)_{k=1..3}; 6 commitment rows (V^ and W^).
  dkg::Config dkg_config(size_t n, size_t t) const;

  DlinKeyMaterial dist_keygen(
      size_t n, size_t t, Rng& rng,
      const std::map<uint32_t, dkg::Behavior>& behaviors = {},
      SyncNetwork* net = nullptr) const;

  std::array<G1Affine, 3> hash_message(std::span<const uint8_t> msg) const;

  DlinPartialSignature share_sign(const DlinKeyShare& share,
                                  std::span<const uint8_t> msg) const;
  bool share_verify(const DlinVerificationKey& vk,
                    std::span<const uint8_t> msg,
                    const DlinPartialSignature& sig) const;
  /// Hash-hoisted variant (Combine hashes once for all partial signatures).
  bool share_verify(const DlinVerificationKey& vk,
                    const std::array<G1Affine, 3>& h,
                    const DlinPartialSignature& sig) const;

  /// Optimistic Combine (threshold/combine.hpp): interpolates the first t+1
  /// partials with distinct indices and returns that signature if both
  /// verification equations hold under km.pk; otherwise Share-Verifies
  /// partials in input order and interpolates the first t+1 valid ones.
  /// Throws std::runtime_error if fewer than t+1 valid shares remain. Runs
  /// DlinCombiner's body on a combiner built for this call.
  DlinSignature combine(const DlinKeyMaterial& km,
                        std::span<const uint8_t> msg,
                        std::span<const DlinPartialSignature> parts) const;

  bool verify(const DlinPublicKey& pk, std::span<const uint8_t> msg,
              const DlinSignature& sig) const;

 private:
  SystemParams params_;
};

class FoldBuilder;  // threshold/fold.hpp

/// The prepared verification key at one index of the DLIN sharing: player
/// i's (U^_{k,i}, Z^_{k,i}), or at index 0 the committee key (g^_k, h^_k).
/// Owns the prepared lines of its six G2 elements and points at the params'
/// shared g^_z, g^_r, h^_z, h^_u tables (whoever builds it keeps those
/// params alive). equations() is the one place the two DLIN equations
///   e(z, g^_z) e(r, g^_r) prod_k e(H_k, U^_k) == 1
///   e(z, h^_z) e(u, h^_u) prod_k e(H_k, Z^_k) == 1
/// are assembled, for Share-Verify, Verify and Combine's check alike.
class DlinShareVerifier {
 public:
  using Equations = std::array<std::array<PreparedTerm, 5>, 2>;

  DlinShareVerifier(const SystemParams& params, const DlinVerificationKey& vk);

  Equations equations(const std::array<G1Affine, 3>& h,
                      const DlinPartialSignature& sig) const;
  bool verify(const std::array<G1Affine, 3>& h,
              const DlinPartialSignature& sig) const;

  /// Heap bytes of the six owned line tables (the shared generator tables
  /// belong to the params).
  size_t line_bytes() const {
    size_t b = 0;
    for (size_t k = 0; k < 3; ++k)
      b += u_[k].line_bytes() + z_[k].line_bytes();
    return b;
  }

 private:
  const GeneratorTables* gen_;
  std::array<G2Prepared, 3> u_, z_;
};

/// Cached verifier for the DLIN variant: the scheme's hash plus the key at
/// index 0. In a fold, each signature adds BOTH verification equations,
/// each with its own 128-bit coefficient.
class DlinVerifier {
 public:
  DlinVerifier(const DlinScheme& scheme, const DlinPublicKey& pk);

  bool verify(std::span<const uint8_t> msg, const DlinSignature& sig) const;
  void add_to_fold(FoldBuilder& fold, std::span<const uint8_t> msg,
                   const DlinSignature& sig) const;
  bool batch_verify(std::span<const Bytes> msgs,
                    std::span<const DlinSignature> sigs, Rng& rng) const;

  /// Resident footprint (object + the six owned line tables) for the
  /// KeyCacheManager byte budget.
  size_t cache_bytes() const { return sizeof(*this) + key_.line_bytes(); }

 private:
  DlinScheme scheme_;  // its params own the shared generator tables
  DlinShareVerifier key_;
};

/// Serving-side Combine engine for a DLIN committee: the committee key's
/// six elements prepared and the players' affine verification keys.
/// combine() interpolates first and checks the one combined signature
/// against the key, two 5-term prepared products at any t; only when that
/// check fails does the scan Share-Verify partials through
/// DlinScheme::share_verify, which prepares the checked partial's six key
/// tables (threshold/combine.hpp). DlinScheme::combine runs this same body.
class DlinCombiner {
 public:
  DlinCombiner(const DlinScheme& scheme, const DlinKeyMaterial& km);
  /// `vks[i-1]` is player i's verification key; `key` the committee's.
  DlinCombiner(const DlinScheme& scheme, size_t n, size_t t,
               const DlinVerificationKey& key,
               std::vector<DlinVerificationKey> vks);

  /// Optimistic Combine; the same output as DlinScheme::combine. Appends
  /// the indices of bad partials found by the fallback scan to `cheaters`
  /// when given.
  DlinSignature combine(std::span<const uint8_t> msg,
                        std::span<const DlinPartialSignature> parts,
                        std::vector<uint32_t>* cheaters = nullptr) const;

  /// Resident footprint (the key's six line tables + the players' affine
  /// keys) for the KeyCacheManager byte budget, whatever n is.
  size_t cache_bytes() const {
    return sizeof(*this) + key_.line_bytes() +
           vks_.capacity() * sizeof(DlinVerificationKey);
  }

 private:
  DlinScheme scheme_;  // its params own the shared generator tables
  size_t n_ = 0, t_ = 0;
  DlinShareVerifier key_;  // the committee key: the verification key at 0
  std::vector<DlinVerificationKey> vks_;  // index i-1 -> player i
};

}  // namespace bnr::threshold
