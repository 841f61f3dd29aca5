// The shared-base verification fold: ONE random-linear-combination pairing
// product over any set of pairing-product equations, whatever keys they are
// under (the small-exponents test; Bellare-Garay-Rabin, EUROCRYPT 1998).
//
// Every verification equation in the repo is a product of pairings against
// prepared G2 tables, and most of those tables are public generators that
// every key under one SystemParams shares (GeneratorTables). A member adds
// its G1 points against the tables they pair with; the builder scales each
// equation by its own coefficient and sums the points per table IDENTITY.
// A product over N members under K keys then costs one MSM per distinct
// table, one multi-Miller loop over those tables and one final
// exponentiation, instead of K of each.
//
// Invariants:
//  * One pinned coefficient per product. The builder draws every
//    coefficient itself from the Rng it was given (the serving layer forks
//    it after the flush froze): the first equation of the first member gets
//    1, every other equation a fresh draw of random_rlc_coefficient: two
//    uniform 64-bit GLV halves, 2^128 - 1 distinct nonzero residues. Two
//    pinned coefficients in one product would let errors cancel across
//    keys: z_A + X under key A and z_B - X under key B sum to the honest
//    points on the shared g^_z table. A product holding an invalid member
//    passes with probability at most 1/(2^128 - 1).
//  * Exact verdicts. verdicts() rejects a member only after a check over
//    that member alone, its equations evaluated one by one with coefficient
//    1 (what the verifier's verify() computes). A product of valid members
//    always holds, so a valid member is never rejected.
//  * Cost isolation. A failed product is bisected. Each half is a
//    sub-product under the same coefficients, so the product is exactly the
//    product of its halves: a failing set whose left half holds has a
//    failing right half, which is split without being evaluated. With d
//    invalid members among N, attribution evaluates at most 2d*ceil(log2 N)
//    sub-products, and each member is hashed once, when it is added.
#pragma once

#include <initializer_list>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "pairing/pairing.hpp"
#include "threshold/scheme_api.hpp"

namespace bnr::threshold {

class FoldBuilder {
 public:
  /// The coefficients are drawn from `rng` at the first evaluation; it must
  /// outlive the builder.
  explicit FoldBuilder(Rng& rng) : rng_(rng) {}

  FoldBuilder(const FoldBuilder&) = delete;
  FoldBuilder& operator=(const FoldBuilder&) = delete;

  /// Adds one member: it is valid iff every equation's product of pairings
  /// is 1. The G2Prepared tables are keyed by address, not copied, and must
  /// outlive the builder.
  void add(std::initializer_list<std::span<const PreparedTerm>> equations);

  /// Adds a member whose exact check fails without a pairing: a
  /// wrong-scheme handle, or a key that failed its sanity check.
  void add_rejected();

  /// Adds a member that `v` checks itself: the members deferred to one
  /// verifier are folded by its own batch_verify and, when that fails,
  /// attributed by its verify. This is PreparedVerifier::add_to_fold's
  /// default, for wrappers that cannot add terms.
  void defer(const PreparedVerifier& v, std::span<const uint8_t> msg,
             const SigHandle& sig);

  size_t size() const { return members_.size(); }

  /// One product over every member, without attribution: true iff all of
  /// them hold, up to the soundness bound. The body of every batch_verify.
  bool holds();

  /// One verdict per member, in the order added: one product over all of
  /// them and, when it fails, bisection down to exact single-member checks.
  std::vector<bool> verdicts();

  /// After verdicts(): whether the first product failed, and how many
  /// products attribution evaluated after it.
  bool failed() const { return failed_; }
  size_t subproducts() const { return subproducts_; }

 private:
  enum class Kind : uint8_t { kFold, kRejected, kDeferred };
  struct Member {
    Kind kind;
    uint32_t first_term;
  };
  struct Term {
    G1Affine p;
    uint32_t slot;  // index into tables_
    uint32_t eq;    // index into coeff_
  };
  struct Deferred {
    const PreparedVerifier* v;
    Bytes msg;
    SigHandle sig;
    uint32_t member;
  };

  void push(Kind kind);
  uint32_t term_end(size_t m) const;
  void draw();
  bool resolve_deferred(std::vector<bool>* ok);
  bool rlc(std::span<const uint32_t> set) const;
  bool exact(uint32_t m) const;
  bool product(std::span<const uint32_t> set) const;
  void attribute(std::span<const uint32_t> set, bool evaluated,
                 std::vector<bool>& ok);

  Rng& rng_;
  std::vector<Member> members_;
  std::vector<Term> terms_;
  uint32_t equations_ = 0;
  std::vector<Fr> coeff_;                    // one per equation
  std::vector<const G2Prepared*> tables_;    // slot -> table
  std::unordered_map<const G2Prepared*, uint32_t> slot_of_;
  std::vector<Deferred> deferred_;
  bool failed_ = false;
  size_t subproducts_ = 0;
};

/// The body of every typed batch_verify: one member per (message,
/// signature), one product. Throws std::invalid_argument on a size
/// mismatch; an empty batch holds.
template <class Verifier, class Sig>
bool fold_batch(const Verifier& v, std::span<const Bytes> msgs,
                std::span<const Sig> sigs, Rng& rng) {
  if (msgs.size() != sigs.size())
    throw std::invalid_argument("batch_verify: size mismatch");
  FoldBuilder fold(rng);
  for (size_t j = 0; j < msgs.size(); ++j) v.add_to_fold(fold, msgs[j], sigs[j]);
  return fold.holds();
}

// ---------------------------------------------------------------------------
// Erasure: wraps an existing typed cached verifier (RoVerifier /
// DlinVerifier / AggVerifier / BlsVerifier: verify, add_to_fold,
// cache_bytes) into the erased interface. The SchemeId must match the tag
// the submitter uses in erase_signature; the daemon pairs them via the
// tenant registry.

template <class Verifier, class Sig>
class TypedPreparedVerifier final : public PreparedVerifier {
 public:
  TypedPreparedVerifier(SchemeId id, Verifier v)
      : id_(id), v_(std::move(v)) {}

  SchemeId scheme() const override { return id_; }

  bool verify(std::span<const uint8_t> msg,
              const SigHandle& sig) const override {
    if (sig.scheme != id_ || !sig.obj) return false;
    return v_.verify(msg, *static_cast<const Sig*>(sig.obj.get()));
  }

  void add_to_fold(FoldBuilder& fold, std::span<const uint8_t> msg,
                   const SigHandle& sig) const override {
    // A wrong-scheme handle fails its exact check; it is never
    // dereferenced as the wrong type.
    if (sig.scheme != id_ || !sig.obj) return fold.add_rejected();
    v_.add_to_fold(fold, msg, *static_cast<const Sig*>(sig.obj.get()));
  }

  bool batch_verify(std::span<const Bytes> msgs,
                    std::span<const SigHandle> sigs, Rng& rng) const override {
    return fold_batch(*this, msgs, sigs, rng);
  }

  size_t cache_bytes() const override {
    // The typed footprint already counts sizeof(Verifier); add the erasure
    // overhead (vptr + tag) on top.
    return v_.cache_bytes() + (sizeof(*this) - sizeof(Verifier));
  }

  const Verifier& typed() const { return v_; }

 private:
  SchemeId id_;
  Verifier v_;
};

template <class Verifier, class Sig>
std::shared_ptr<const PreparedVerifier> erase_verifier(SchemeId id,
                                                       Verifier v) {
  return std::make_shared<const TypedPreparedVerifier<Verifier, Sig>>(
      id, std::move(v));
}

}  // namespace bnr::threshold
