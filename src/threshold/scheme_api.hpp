// The scheme-plugin API: ONE type-erased surface through which every
// signature family in the repo — the paper's RO-model construction, the
// DLIN variant (App. F), the aggregation-enabled extension (App. G), and
// the static BLS baseline — is served by a single cache, service, and wire
// path. The paper's point is that these constructions share one shape
// (keygen / sign-share / verify-share / combine / verify over a pairing
// group); this header is that shape as an interface, so the serving stack
// (KeyCacheManager, MultiTenantVerificationService, RpcServer) is written
// ONCE against `Scheme`/`PreparedVerifier` instead of once per scheme, and
// a future scheme (std-model, a post-quantum slot) is one more plugin class
// (the four in scheme_registry.cpp are 63-69 lines each) instead of a
// fifth copy of the stack.
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
//    only prepared state (no pairings on fixed inputs). `add_to_fold` adds
//    one signature's verification equations to a shared fold
//    (threshold/fold.hpp) as G1 points against the prepared tables they
//    pair with, drawing no coefficients itself: the fold draws them, pins
//    exactly one per product to 1, and may hold members of many keys and
//    schemes, whose shared generator tables (SystemParams::tables) it keys
//    by identity. The serving layer folds a whole worker-sized chunk of a
//    flush into one product and bisects a failed one down to exact
//    single-member checks, so only an exact check rejects, and d invalid
//    members among N cost at most 2d*ceil(log2 N) sub-products.
//    `batch_verify` folds one batch into one product through the same
//    routine. `cache_bytes` must report the resident footprint of the
//    tables the verifier OWNS (the shared generator tables are counted
//    once, by nobody's key): the KeyCacheManager evicts by byte budget, and
//    lying starves or bloats the cache.
//  * Combine soundness: a combiner returns only a signature that passes the
//    scheme's verification equation under the committee's public key, and
//    when the signature interpolated from the first t+1 partials fails that
//    check it falls back to per-partial Share-Verify, so cheaters are
//    attributed without rejecting honest shares. The built-in combiners all
//    run the one routine in threshold/combine.hpp; partials whose errors
//    cancel under interpolation yield a valid signature and are not named.
//    Each scheme has one combiner class (RoCombiner, DlinCombiner,
//    AggCombiner, BlsCombiner) behind both its stateless combine and its
//    plugin (TypedPreparedCombiner below). It owns only the committee key's
//    prepared tables; the players' keys stay affine, and the fallback scan
//    prepares the keys of the partials it checks.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "curve/g1.hpp"
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
/// kSchemeIdCount + 1: built-ins map to id - 1, anything else (the zero id,
/// an id no built-in claims) lands in the overflow slot at the end, so an
/// unknown id never indexes past the arrays. A new scheme appends its id to
/// SchemeId and bumps kSchemeIdCount.
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

class FoldBuilder;  // threshold/fold.hpp

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

  /// Adds ONE member, this signature's equations, to a shared fold: its G1
  /// points against the prepared tables they pair with (a wrong-scheme
  /// handle or an invalid key adds a member that fails outright). Hashes
  /// the message once; the fold reuses the points for every sub-product.
  ///
  /// The default exists for wrappers that override only verify and
  /// batch_verify (the decorators in perfbench/src/traced.cpp): it defers
  /// the member to this verifier, whose members the fold checks through
  /// this verifier's own batch_verify and, when that fails, its verify —
  /// the per-key path, still exact. It goes once a benchmark change ports
  /// those decorators to forward add_to_fold.
  virtual void add_to_fold(FoldBuilder& fold, std::span<const uint8_t> msg,
                           const SigHandle& sig) const;

  /// Folds the whole batch into ONE random-linear-combination product
  /// (coefficients from `rng`) through the fold routine. False on a fold
  /// failure; a caller that needs verdicts uses FoldBuilder::verdicts().
  virtual bool batch_verify(std::span<const Bytes> msgs,
                            std::span<const SigHandle> sigs,
                            Rng& rng) const = 0;

  /// Resident footprint (object + the heap line tables it owns) for the
  /// byte-budget cache. REQUIRED to be accurate: eviction provisioning
  /// depends on it.
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
// Erasure helpers: wrap a typed signature / partial / committee combiner
// into the erased interface. The plugins build on them, and tests and
// benches use them on scheme objects they construct directly. The
// typed-verifier adapter (erase_verifier) lives in threshold/fold.hpp, next
// to the fold its add_to_fold feeds.

template <class Sig>
SigHandle erase_signature(SchemeId id, Sig sig) {
  return SigHandle{id, std::make_shared<const Sig>(std::move(sig))};
}

template <class Part>
PartialHandle erase_partial(SchemeId id, Part part) {
  return PartialHandle{id, std::make_shared<const Part>(std::move(part))};
}

/// Wraps a typed committee combiner (RoCombiner, DlinCombiner, AggCombiner,
/// BlsCombiner: combine(msg, parts, cheaters) and cache_bytes) into the
/// erased interface. Handles of another scheme are dropped before the typed
/// combine sees them: they cannot carry a valid partial, and the t+1
/// threshold then decides whether enough remain.
template <class Combiner, class Part>
class TypedPreparedCombiner final : public PreparedCombiner {
 public:
  TypedPreparedCombiner(SchemeId id, Combiner c)
      : id_(id), c_(std::move(c)) {}

  SchemeId scheme() const override { return id_; }

  Bytes combine(std::span<const uint8_t> msg,
                std::span<const PartialHandle> parts, Rng&,
                const FoldEvaluator&,
                std::vector<uint32_t>* cheaters) const override {
    std::vector<Part> typed;
    typed.reserve(parts.size());
    for (const auto& p : parts)
      if (p.scheme == id_ && p.obj)
        typed.push_back(*static_cast<const Part*>(p.obj.get()));
    const auto sig = c_.combine(msg, typed, cheaters);
    if constexpr (requires { sig.serialize(); })
      return sig.serialize();
    else
      return g1_to_bytes(sig);  // a BLS signature is one bare G1 point
  }

  size_t cache_bytes() const override {
    // The typed footprint already counts sizeof(Combiner); add the erasure
    // overhead (vptr + tag) on top.
    return c_.cache_bytes() + (sizeof(*this) - sizeof(Combiner));
  }

 private:
  SchemeId id_;
  Combiner c_;
};

template <class Combiner, class Part>
std::shared_ptr<const PreparedCombiner> erase_combiner(SchemeId id,
                                                       Combiner c) {
  return std::make_shared<const TypedPreparedCombiner<Combiner, Part>>(
      id, std::move(c));
}

}  // namespace bnr::threshold
