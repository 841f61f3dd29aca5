// The scheme-plugin API: ONE type-erased surface through which every
// signature family in the repo — the paper's RO-model construction, the
// DLIN variant (App. F), the aggregation-enabled extension (App. G), and
// the static BLS baseline — is served by a single cache, service, and wire
// path. The paper's point is that these constructions share one shape
// (keygen / sign-share / verify-share / combine / verify over a pairing
// group); this header is that shape as an interface, so the serving stack
// (KeyCacheManager, MultiTenantVerificationService, RpcServer) is written
// ONCE against `Scheme`/`PreparedVerifier` instead of once per scheme, and
// a future scheme (std-model, a post-quantum slot) is a ~100-line plugin
// instead of a fourth copy of the stack.
//
// Contract highlights a plugin must honor:
//
//  * `SchemeId` and `name()` are STABLE: the id crosses the wire in
//    REGISTER_TENANT and STATS frames, and the name namespaces canonical
//    cache keys ("ro:<pk-digest>"), so changing either orphans registered
//    tenants and cached state.
//  * All serde runs on the canonical ByteWriter/ByteReader encodings and
//    sits on the network boundary: parse_* must throw on ANY malformed
//    input (truncated, trailing bytes, non-canonical points) and must never
//    let a hostile length field drive an allocation (ByteReader::count).
//  * `PreparedVerifier` is the cached hot-path object: `verify` must touch
//    only prepared state (no pairings on fixed inputs), `batch_verify` must
//    fold the batch with fresh random-linear-combination coefficients drawn
//    from the PROVIDED Rng (soundness: a batch containing any invalid
//    signature passes with probability <= ~N/2^128 — and the service layer
//    guarantees the Rng is forked after the batch is frozen), and
//    `cache_bytes` must report the full resident footprint including
//    heap-allocated Miller-loop line tables (the KeyCacheManager evicts by
//    byte budget; lying starves or bloats the cache).
//  * Combine soundness: a combiner returns only a signature that passes the
//    scheme's verification equation under the committee's public key, and
//    when the signature interpolated from the first t+1 partials fails that
//    check it falls back to per-partial Share-Verify, so cheaters are
//    attributed without rejecting honest shares. The built-in combiners all
//    run the one routine in threshold/combine.hpp; partials whose errors
//    cancel under interpolation yield a valid signature and are not named.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "pairing/pairing.hpp"

namespace bnr::threshold {

/// Stable scheme identifiers. These cross the wire (u8) and namespace cache
/// keys — append new schemes, never renumber.
enum class SchemeId : uint8_t {
  kRo = 1,    // §3 main construction (random-oracle model)
  kDlin = 2,  // App. F DLIN-based variant
  kAgg = 3,   // App. G aggregation-enabled extension
  kBls = 4,   // Boldyreva threshold BLS (static-security baseline)
};

/// Number of built-in scheme slots (dense arrays index by id - 1).
constexpr size_t kSchemeIdCount = 4;

/// "ro" / "dlin" / "agg" / "bls" for the built-ins; "unknown" otherwise.
std::string_view scheme_id_name(SchemeId id);

/// Index of a scheme in dense per-scheme stats arrays of size
/// kSchemeIdCount + 1: built-ins map to id - 1, anything else (out-of-tree
/// plugins, the zero id) shares the overflow slot at the end. KNOWN
/// LIMITATION: two or more extension plugins therefore share one merged
/// stats row; serving behavior is unaffected, and promoting a plugin to a
/// dedicated slot means appending its id to SchemeId and bumping
/// kSchemeIdCount (the intended path for an in-tree scheme).
inline size_t scheme_stats_slot(SchemeId id) {
  size_t raw = static_cast<size_t>(id);
  return (raw >= 1 && raw <= kSchemeIdCount) ? raw - 1 : kSchemeIdCount;
}

/// A signature parsed ONCE at the boundary into its scheme-native object,
/// then passed by shared pointer: batch grouping copies handles, not group
/// elements, and the hot verify path pays no re-deserialization (a G1
/// decompression is a field sqrt — material next to a cached verify). The
/// SchemeId tag lets a PreparedVerifier reject a handle of the wrong scheme
/// instead of type-confusing it.
struct SigHandle {
  SchemeId scheme{};
  std::shared_ptr<const void> obj;
};

/// Same, for partial (share) signatures on the combine path.
struct PartialHandle {
  SchemeId scheme{};
  std::shared_ptr<const void> obj;
};

/// The cached per-key hot-path object behind the serving stack: prepared
/// Miller-loop line tables for one public key, type-erased. This is the V
/// of the single KeyCacheManager<PreparedVerifier> every scheme shares.
class PreparedVerifier {
 public:
  virtual ~PreparedVerifier() = default;

  virtual SchemeId scheme() const = 0;

  /// Single cached verify. A handle of the wrong scheme is rejected (false),
  /// never dereferenced as the wrong type.
  virtual bool verify(std::span<const uint8_t> msg,
                      const SigHandle& sig) const = 0;

  /// Accumulates the whole batch into ONE random-linear-combination fold
  /// (coefficients from `rng`) and evaluates it as a single pairing product.
  /// False on a fold failure — the caller attributes via verify().
  virtual bool batch_verify(std::span<const Bytes> msgs,
                            std::span<const SigHandle> sigs,
                            Rng& rng) const = 0;

  /// Resident footprint (object + heap line tables) for the byte-budget
  /// cache. REQUIRED to be accurate: eviction provisioning depends on it.
  virtual size_t cache_bytes() const = 0;
};

/// A pool-parallel evaluator of a pairing product: decides
/// prod_j e(points[j], *preps[j]) == 1 (service::make_fold_evaluator).
/// PreparedCombiner::combine still takes one so that its signature stays
/// stable for wrappers, but no built-in combiner calls it: their check is a
/// single 4-term product (two 5-term ones for DLIN), which has nothing to
/// fan out.
using FoldEvaluator = std::function<bool(
    std::span<const G1Affine>, std::span<const G2Prepared* const>)>;

/// The cached per-committee Combine engine, type-erased: interpolates the
/// combined signature and checks it under the committee key, scanning the
/// partials to identify cheaters only when that check fails
/// (threshold/combine.hpp). The signature is returned SERIALIZED — the
/// daemon puts it straight on the wire.
class PreparedCombiner {
 public:
  virtual ~PreparedCombiner() = default;

  virtual SchemeId scheme() const = 0;

  /// Returns the interpolation of the first t+1 partials with distinct
  /// indices if it verifies; otherwise the interpolation of the first t+1
  /// valid partials (input order), appending the indices of the bad
  /// partials inspected to `cheaters` when given. Handles of the wrong
  /// scheme and out-of-range indices are dropped. Throws std::runtime_error
  /// if fewer than t+1 valid shares remain. `rng` and `evaluate` are there
  /// for plugins that need them; the built-in combiners read neither.
  virtual Bytes combine(std::span<const uint8_t> msg,
                        std::span<const PartialHandle> parts, Rng& rng,
                        const FoldEvaluator& evaluate,
                        std::vector<uint32_t>* cheaters) const = 0;

  virtual size_t cache_bytes() const = 0;
};

/// The public committee description a combine-capable tenant registers:
/// serialized public key plus every player's serialized verification key.
/// Each plugin parses its own vk format.
struct Committee {
  Bytes pk;
  uint32_t n = 0, t = 0;
  std::vector<Bytes> vks;  // size n, player i at index i-1
};

/// Deterministic sample material (keygen + t+1 partials + combined
/// signature over a caller message) — what the generic conformance suite
/// and the CI smoke flows drive every registered scheme with.
struct SchemeSample {
  Committee committee;          // vks empty iff !supports_combine()
  std::vector<Bytes> partials;  // t+1 serialized partials on `msg`
  Bytes sig;                    // serialized combined signature on `msg`
};

/// The plugin interface. One instance per (scheme, SystemParams) pair,
/// owned by a SchemeRegistry; all methods are const and thread-safe.
class Scheme {
 public:
  virtual ~Scheme() = default;

  virtual SchemeId id() const = 0;
  /// Stable lowercase name; doubles as the cache-key namespace prefix.
  virtual std::string_view name() const = 0;

  // -- serde at the trust boundary (throw on malformed input) ---------------

  /// Parses + re-serializes a public key: validation and canonicalization
  /// in one step (the canonical bytes are what pk-digest dedup hashes).
  virtual Bytes canonical_public_key(std::span<const uint8_t> pk) const = 0;

  virtual SigHandle parse_signature(std::span<const uint8_t> data) const = 0;
  virtual Bytes serialize_signature(const SigHandle& sig) const = 0;

  virtual PartialHandle parse_partial(std::span<const uint8_t> data) const = 0;
  virtual Bytes serialize_partial(const PartialHandle& part) const = 0;

  // -- prepared hot-path state ----------------------------------------------

  /// Prepares the cached verifier for one public key (expensive: Miller-loop
  /// line precomputation; the cache runs it outside any shard lock).
  virtual std::unique_ptr<PreparedVerifier> make_verifier(
      std::span<const uint8_t> pk_bytes) const = 0;

  virtual bool supports_combine() const = 0;

  /// Prepares the per-committee Combine engine. Throws std::runtime_error
  /// when the scheme does not support serving-side combine, or on malformed
  /// committee material.
  virtual std::unique_ptr<PreparedCombiner> make_combiner(
      const Committee& committee) const = 0;

  // -- conformance / smoke material -----------------------------------------

  /// Runs the scheme's (distributed or dealer) keygen at (n, t) and signs
  /// `msg` with players 1..t+1. Deterministic given `rng`'s state.
  virtual SchemeSample make_sample(size_t n, size_t t,
                                   std::span<const uint8_t> msg,
                                   Rng& rng) const = 0;
};

// ---------------------------------------------------------------------------
// Erasure helpers: wrap an existing typed cached verifier / signature into
// the erased interface. Used by tests/benches that construct scheme objects
// directly.

template <class Sig>
SigHandle erase_signature(SchemeId id, Sig sig) {
  return SigHandle{id, std::make_shared<const Sig>(std::move(sig))};
}

template <class Part>
PartialHandle erase_partial(SchemeId id, Part part) {
  return PartialHandle{id, std::make_shared<const Part>(std::move(part))};
}

/// Adapter from the concrete verifier shape (RoVerifier / DlinVerifier /
/// AggVerifier / BlsVerifier: verify, batch_verify, cache_bytes) to the
/// erased interface. The SchemeId must match the tag the submitter uses in
/// erase_signature — the daemon pairs them via the tenant registry.
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

  bool batch_verify(std::span<const Bytes> msgs,
                    std::span<const SigHandle> sigs, Rng& rng) const override {
    std::vector<Sig> typed;
    typed.reserve(sigs.size());
    for (const auto& s : sigs) {
      // A wrong-scheme handle poisons the fold; the caller's per-member
      // fallback then rejects exactly that member via verify().
      if (s.scheme != id_ || !s.obj) return false;
      typed.push_back(*static_cast<const Sig*>(s.obj.get()));
    }
    return v_.batch_verify(msgs, typed, rng);
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

class RoCombiner;  // ro_scheme.hpp
class DlinCombiner;  // dlin_scheme.hpp

/// Wraps an already-built RO / DLIN committee combiner into the erased
/// interface (defined in scheme_registry.cpp, next to the plugins that use
/// the same adapters).
std::shared_ptr<const PreparedCombiner> erase_combiner(
    std::shared_ptr<const RoCombiner> combiner);
std::shared_ptr<const PreparedCombiner> erase_combiner(
    std::shared_ptr<const DlinCombiner> combiner);

}  // namespace bnr::threshold
