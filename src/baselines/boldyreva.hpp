// Boldyreva's threshold BLS (PKC 2003) — the STATICALLY-secure scheme our
// construction is "an adaptively secure variant of" (§3). Single-scalar
// shares, 1-element signatures, 2-pairing verification; key generation via a
// trusted dealer or a Feldman-style single-generator DKG.
#pragma once

#include <map>

#include "dkg/pedersen_dkg.hpp"
#include "pairing/pairing.hpp"
#include "threshold/params.hpp"

namespace bnr::threshold {
class FoldBuilder;  // threshold/fold.hpp
}  // namespace bnr::threshold

namespace bnr::baselines {

struct BlsPublicKey {
  G2Affine pk;  // g2^x
};

struct BlsKeyShare {
  uint32_t index = 0;
  Secret<Fr> x;  // one scalar
};

struct BlsPartialSignature {
  uint32_t index = 0;
  G1Affine sigma;
};

struct BlsKeyMaterial {
  size_t n = 0, t = 0;
  BlsPublicKey pk;
  std::vector<BlsKeyShare> shares;
  std::vector<G2Affine> vks;  // g2^{x_i}
};

class BoldyrevaBls {
 public:
  explicit BoldyrevaBls(threshold::SystemParams params)
      : params_(std::move(params)) {}

  const threshold::SystemParams& params() const { return params_; }

  /// Trusted dealer keygen.
  BlsKeyMaterial dealer_keygen(size_t n, size_t t, Rng& rng) const;

  /// Feldman-VSS-based DKG (single generator row). NOTE: with plain Feldman
  /// commitments a rushing adversary can bias the key — the classical
  /// [GJKR99] observation; acceptable here only because this is the static
  /// baseline, not the paper's scheme.
  BlsKeyMaterial dist_keygen(size_t n, size_t t, Rng& rng,
                             const std::map<uint32_t, dkg::Behavior>& behaviors = {},
                             SyncNetwork* net = nullptr) const;

  G1Affine hash_message(std::span<const uint8_t> msg) const;

  BlsPartialSignature share_sign(const BlsKeyShare& share,
                                 std::span<const uint8_t> msg) const;
  bool share_verify(const G2Affine& vk, std::span<const uint8_t> msg,
                    const BlsPartialSignature& psig) const;
  /// Hash-hoisted variant taking the precomputed negated hash -H(M).
  bool share_verify(const G2Affine& vk, const G1Affine& neg_h,
                    const BlsPartialSignature& psig) const;

  /// Optimistic Combine (threshold/combine.hpp): the interpolated signature
  /// is checked against km.pk, and Share-Verify runs only when that check
  /// fails, appending bad indices to `cheaters`.
  G1Affine combine(const BlsKeyMaterial& km, std::span<const uint8_t> msg,
                   std::span<const BlsPartialSignature> parts,
                   std::vector<uint32_t>* cheaters = nullptr) const;

  /// Interpolates the first t+1 partials WITHOUT share verification: the
  /// interpolation step of combine(), and a shortcut for callers holding
  /// honest-by-construction shares. Throws if fewer than t+1 given.
  G1Affine combine_unchecked(size_t t,
                             std::span<const BlsPartialSignature> parts) const;

  bool verify(const BlsPublicKey& pk, std::span<const uint8_t> msg,
              const G1Affine& sig) const;

 private:
  threshold::SystemParams params_;
};

/// Cached verifier for one BLS public key: prepared lines for pk, pointing
/// at the params' shared G2-generator table, so Verify pays 2 prepared
/// Miller evaluations + one final exponentiation, and a fold of N
/// signatures under many keys shares one generator term.
class BlsVerifier {
 public:
  BlsVerifier(const BoldyrevaBls& scheme, const BlsPublicKey& pk);

  bool verify(std::span<const uint8_t> msg, const G1Affine& sig) const;
  /// Adds e(sigma, g2) e(-H(M), pk) == 1 to a shared fold.
  void add_to_fold(threshold::FoldBuilder& fold, std::span<const uint8_t> msg,
                   const G1Affine& sig) const;
  bool batch_verify(std::span<const Bytes> msgs,
                    std::span<const G1Affine> sigs, Rng& rng) const;

  /// Resident footprint (object + the one owned line table) for the
  /// KeyCacheManager byte budget.
  size_t cache_bytes() const { return sizeof(*this) + pk_.line_bytes(); }

 private:
  std::array<PreparedTerm, 2> terms(std::span<const uint8_t> msg,
                                    const G1Affine& sig) const;

  BoldyrevaBls scheme_;  // its params own the shared generator table
  G2Prepared pk_;
};

}  // namespace bnr::baselines
