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
  /// Throws std::runtime_error if fewer than t+1 valid shares remain.
  DlinSignature combine(const DlinKeyMaterial& km,
                        std::span<const uint8_t> msg,
                        std::span<const DlinPartialSignature> parts) const;

  bool verify(const DlinPublicKey& pk, std::span<const uint8_t> msg,
              const DlinSignature& sig) const;

 private:
  SystemParams params_;
};

/// Cached verifier for the DLIN variant: prepares all ten fixed G2 inputs
/// (g^_z, g^_r, h^_z, h^_u and the six key elements) once. `batch_verify`
/// folds BOTH verification equations of every signature into a single
/// 10-pairing product with independent 128-bit RLC coefficients per
/// (signature, equation) pair.
class DlinVerifier {
 public:
  DlinVerifier(const DlinScheme& scheme, const DlinPublicKey& pk);

  bool verify(std::span<const uint8_t> msg, const DlinSignature& sig) const;
  bool batch_verify(std::span<const Bytes> msgs,
                    std::span<const DlinSignature> sigs, Rng& rng) const;

  /// Resident footprint (object + the ten cached line tables) for the
  /// KeyCacheManager byte budget.
  size_t cache_bytes() const {
    size_t b = sizeof(*this) + gz_.line_bytes() + gr_.line_bytes() +
               hz_.line_bytes() + hu_.line_bytes();
    for (size_t k = 0; k < 3; ++k) b += g_[k].line_bytes() + h_[k].line_bytes();
    return b;
  }

 private:
  DlinScheme scheme_;
  G2Prepared gz_, gr_, hz_, hu_;
  std::array<G2Prepared, 3> g_, h_;
};

/// Per-player cached share verifier for the DLIN variant: prepared lines of
/// the six per-player key elements (U^_{k,i}, Z^_{k,i}); the four shared
/// generators are non-owning pointers kept alive by the DlinCombiner.
class DlinShareVerifier {
 public:
  DlinShareVerifier(const G2Prepared* g_z, const G2Prepared* g_r,
                    const G2Prepared* h_z, const G2Prepared* h_u,
                    const DlinVerificationKey& vk);

  bool verify(const std::array<G1Affine, 3>& h,
              const DlinPartialSignature& sig) const;

  /// Heap bytes of the six owned line tables (the shared generators are
  /// counted once by the enclosing combiner).
  size_t line_bytes() const {
    size_t b = 0;
    for (size_t k = 0; k < 3; ++k)
      b += u_[k].line_bytes() + z_[k].line_bytes();
    return b;
  }

 private:
  const G2Prepared* g_z_;
  const G2Prepared* g_r_;
  const G2Prepared* h_z_;
  const G2Prepared* h_u_;
  std::array<G2Prepared, 3> u_, z_;
};

/// Serving-side Combine engine for a DLIN committee: caches the prepared
/// lines of the four generators, the six committee-key elements and every
/// player's six key elements. combine() interpolates first and checks the
/// one combined signature against the key, two 5-term prepared products at
/// any t, and runs cached per-partial Share-Verify only when that check
/// fails, to name cheaters (threshold/combine.hpp). Not movable: the key
/// and per-player verifiers point at the shared generator preparations.
class DlinCombiner {
 public:
  DlinCombiner(const DlinScheme& scheme, const DlinKeyMaterial& km);

  DlinCombiner(const DlinCombiner&) = delete;
  DlinCombiner& operator=(const DlinCombiner&) = delete;

  size_t n() const { return n_; }
  size_t t() const { return t_; }

  bool share_verify(const std::array<G1Affine, 3>& h,
                    const DlinPartialSignature& sig) const;

  /// Optimistic Combine with every G2 input prepared; the same output as
  /// DlinScheme::combine. Appends the indices of bad partials found by the
  /// fallback scan to `cheaters` when given.
  DlinSignature combine(std::span<const uint8_t> msg,
                        std::span<const DlinPartialSignature> parts,
                        std::vector<uint32_t>* cheaters = nullptr) const;

  /// Resident footprint (shared generator lines + the key's six lines +
  /// every player's six cached key-element lines) for the KeyCacheManager
  /// byte budget.
  size_t cache_bytes() const {
    size_t b = sizeof(*this) + gz_.line_bytes() + gr_.line_bytes() +
               hz_.line_bytes() + hu_.line_bytes() + key_.line_bytes() +
               players_.capacity() * sizeof(DlinShareVerifier);
    for (const auto& p : players_) b += p.line_bytes();
    return b;
  }

 private:
  DlinScheme scheme_;
  size_t n_ = 0, t_ = 0;
  G2Prepared gz_, gr_, hz_, hu_;
  DlinShareVerifier key_;  // the committee key: the verification key at 0
  std::vector<DlinShareVerifier> players_;
};

}  // namespace bnr::threshold
