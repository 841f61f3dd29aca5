// Multi-tenant key-cache manager: a sharded, thread-safe SEGMENTED LRU of
// prepared verifier state (RoVerifier / DlinVerifier / BlsVerifier /
// RoCombiner-style objects holding G2Prepared Miller-loop lines). Millions
// of tenant keys do not fit at ~35KB per prepared RO verifier (its key's two
// line tables; the generator tables are shared through SystemParams), so
// the serving layer keeps a bounded working set and re-prepares on miss:
//
//  * Eviction is by BYTE budget, not entry count — prepared footprints vary
//    by scheme (a BLS verifier owns one prepared point, a DLIN verifier six),
//    and the operator provisions RAM, not entries. Each shard owns
//    byte_budget / shards and evicts from its own LRU tails.
//  * Admission is SEGMENTED (SLRU): a new entry lands in the PROBATION
//    segment; only a second access promotes it to PROTECTED (capped at
//    `protected_fraction` of the shard budget; overflow demotes the
//    protected tail back to probation). Eviction drains probation first.
//    Under a Zipf tail of one-hit keys this is what keeps the hot head
//    resident: a miss-storm of cold keys can only churn probation, never
//    displace an entry that has proven reuse.
//  * `get_or_prepare` returns a Pin: a refcount held on the entry for as
//    long as the caller uses it. Eviction skips pinned entries, so a
//    verifier can never be torn down mid-batch; a shard may therefore
//    transiently exceed its budget when everything resident is pinned
//    (recorded in `pinned_skips`).
//  * The prepare callback runs OUTSIDE the shard lock — preparing two
//    Miller-loop line tables takes ~0.5ms, and holding the shard lock for
//    that long would serialize every other tenant hashing to the shard. Two
//    threads may therefore race to prepare the same key; the loser's work is
//    dropped (counted in `redundant_prepares`), which wastes one prepare but
//    never blocks a hit.
//  * `add_alias` maps a tenant key-id onto a CANONICAL key (e.g. a digest of
//    the public key). Tenants sharing a public key thereby share ONE
//    prepared entry instead of preparing ~35KB each — the dedup is counted
//    in `deduped`. Canonical keys must not themselves be aliases (one level
//    of indirection; the registrar owns that invariant).
//
// The cached type V must expose `size_t cache_bytes() const` (its resident
// footprint including heap-allocated line tables).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace bnr::service {

struct KeyCachePolicy {
  size_t byte_budget = size_t(256) << 20;  // total across shards
  size_t shards = 16;
  /// Share of each shard's budget reserved for the protected segment (keys
  /// with proven reuse). The remainder is probation, where new keys earn
  /// their residency.
  double protected_fraction = 0.8;
};

struct KeyCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t redundant_prepares = 0;  // lost a concurrent prepare race
  uint64_t pinned_skips = 0;        // eviction scan passed over a pinned entry
  uint64_t promotions = 0;   // probation -> protected (second access)
  uint64_t demotions = 0;    // protected overflow -> probation
  uint64_t aliases = 0;      // live tenant -> canonical mappings
  uint64_t deduped = 0;      // aliases that mapped onto an already-known
                             // canonical (a shared pk: one entry, N tenants)
  uint64_t bytes_inserted = 0;
  uint64_t bytes_evicted = 0;
  uint64_t resident_bytes = 0;
  uint64_t resident_entries = 0;

  double hit_rate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : double(hits) / double(total);
  }
};

template <class V>
class KeyCacheManager {
 public:
  using KeyId = std::string;
  /// Invoked with the RESOLVED canonical key on a miss. Deriving the value
  /// from the canonical key (not from whatever mutable state the alias
  /// points at today) is what makes a re-registration race harmless: a
  /// digest-keyed factory always produces the value that digest names.
  using Factory =
      std::function<std::shared_ptr<const V>(const KeyId& canonical)>;

 private:
  struct Entry {
    KeyId key;
    std::shared_ptr<const V> value;
    size_t bytes = 0;
    size_t pins = 0;      // guarded by the owning shard's mutex
    bool hot = false;     // true = protected segment, false = probation
  };

  using EntryList = std::list<Entry>;

  struct Shard {
    mutable std::mutex m;
    EntryList probation;   // front = most recently used; new entries here
    EntryList protected_;  // front = most recently used; promoted entries
    std::unordered_map<KeyId, typename EntryList::iterator> index;
    size_t bytes = 0;            // both segments
    size_t protected_bytes = 0;  // protected segment only
    KeyCacheStats stats;  // resident_* filled on aggregation
  };

 public:
  /// RAII use-handle: holds the entry's pin (blocks eviction) and a
  /// shared_ptr to the value (belt-and-suspenders: even a bug that evicted a
  /// pinned entry could not free memory in use). Must not outlive the
  /// manager.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& o) noexcept
        : shard_(o.shard_), entry_(o.entry_), value_(std::move(o.value_)) {
      o.shard_ = nullptr;
      o.entry_ = nullptr;
    }
    Pin& operator=(Pin&& o) noexcept {
      if (this != &o) {
        release();
        shard_ = o.shard_;
        entry_ = o.entry_;
        value_ = std::move(o.value_);
        o.shard_ = nullptr;
        o.entry_ = nullptr;
      }
      return *this;
    }
    ~Pin() { release(); }

    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    explicit operator bool() const { return value_ != nullptr; }
    const V& operator*() const { return *value_; }
    const V* operator->() const { return value_.get(); }
    const std::shared_ptr<const V>& value() const { return value_; }

   private:
    friend class KeyCacheManager;
    Pin(Shard* shard, Entry* entry, std::shared_ptr<const V> value)
        : shard_(shard), entry_(entry), value_(std::move(value)) {}

    void release() {
      if (shard_ && entry_) {
        std::lock_guard<std::mutex> l(shard_->m);
        --entry_->pins;
      }
      shard_ = nullptr;
      entry_ = nullptr;
      value_.reset();
    }

    Shard* shard_ = nullptr;
    Entry* entry_ = nullptr;
    std::shared_ptr<const V> value_;
  };

  explicit KeyCacheManager(KeyCachePolicy policy = {})
      : policy_(policy), shards_(std::max<size_t>(1, policy.shards)) {
    shard_budget_ = std::max<size_t>(1, policy_.byte_budget / shards_.size());
    double f = policy_.protected_fraction;
    f = f < 0.0 ? 0.0 : (f > 1.0 ? 1.0 : f);
    protected_budget_ = static_cast<size_t>(double(shard_budget_) * f);
  }

  KeyCacheManager(const KeyCacheManager&) = delete;
  KeyCacheManager& operator=(const KeyCacheManager&) = delete;

  /// Returns a pinned handle on the cached verifier for `key` (resolving a
  /// registered alias first), invoking `prepare` (outside the shard lock) on
  /// a miss. Throws whatever `prepare` throws; throws std::runtime_error if
  /// it returns null.
  Pin get_or_prepare(const KeyId& key_or_alias, const Factory& prepare) {
    const KeyId key = resolve(key_or_alias);
    Shard& sh = shard_for(key);
    {
      std::lock_guard<std::mutex> l(sh.m);
      auto it = sh.index.find(key);
      if (it != sh.index.end()) {
        touch_locked(sh, it->second);
        ++sh.stats.hits;
        return pin_locked(sh, *it->second);
      }
      ++sh.stats.misses;
    }

    std::shared_ptr<const V> made = prepare(key);  // expensive; no lock held
    if (!made)
      throw std::runtime_error("KeyCacheManager: prepare returned null");
    const size_t bytes = made->cache_bytes();

    std::lock_guard<std::mutex> l(sh.m);
    auto it = sh.index.find(key);
    if (it != sh.index.end()) {
      // A concurrent caller prepared the same key first; serve its entry and
      // drop ours.
      touch_locked(sh, it->second);
      ++sh.stats.redundant_prepares;
      return pin_locked(sh, *it->second);
    }
    sh.probation.push_front(Entry{key, std::move(made), bytes, 0, false});
    sh.index.emplace(key, sh.probation.begin());
    ++sh.stats.inserts;
    sh.stats.bytes_inserted += bytes;
    sh.bytes += bytes;
    Pin pin = pin_locked(sh, sh.probation.front());
    evict_locked(sh);  // the new entry is pinned, so it survives
    return pin;
  }

  /// Maps `alias` (a tenant key-id) onto `canonical` (e.g. "ro:<pk digest>"):
  /// lookups under the alias are served from the canonical entry, so tenants
  /// sharing a public key share one prepared footprint. Returns true when
  /// `canonical` was already the target of another registration — i.e. this
  /// tenant's prepared state was deduplicated.
  bool add_alias(const KeyId& alias, const KeyId& canonical) {
    std::unique_lock<std::shared_mutex> l(alias_m_);
    has_aliases_.store(true, std::memory_order_release);
    auto [it, fresh] = aliases_.try_emplace(alias, canonical);
    if (!fresh) {
      if (it->second == canonical)
        return canonical_refs_.at(canonical) > 1;
      // Re-registration under a different pk: move the mapping.
      auto old = canonical_refs_.find(it->second);
      if (old != canonical_refs_.end() && --old->second == 0)
        canonical_refs_.erase(old);
      it->second = canonical;
    }
    uint64_t refs = ++canonical_refs_[canonical];
    if (refs > 1) ++dedup_count_;
    return refs > 1;
  }

  /// True iff `key` (alias-resolved) is resident. Does not touch recency
  /// order or hit/miss stats.
  bool contains(const KeyId& key_or_alias) const {
    const KeyId key = resolve(key_or_alias);
    const Shard& sh = shard_for(key);
    std::lock_guard<std::mutex> l(sh.m);
    return sh.index.count(key) != 0;
  }

  /// Re-runs eviction on every shard: entries that escaped eviction only
  /// because they were pinned at insert time are reclaimed once unpinned.
  void trim() {
    for (auto& sh : shards_) {
      std::lock_guard<std::mutex> l(sh.m);
      evict_locked(sh);
    }
  }

  KeyCacheStats stats() const {
    KeyCacheStats total;
    for (const auto& sh : shards_) {
      std::lock_guard<std::mutex> l(sh.m);
      total.hits += sh.stats.hits;
      total.misses += sh.stats.misses;
      total.inserts += sh.stats.inserts;
      total.evictions += sh.stats.evictions;
      total.redundant_prepares += sh.stats.redundant_prepares;
      total.pinned_skips += sh.stats.pinned_skips;
      total.promotions += sh.stats.promotions;
      total.demotions += sh.stats.demotions;
      total.bytes_inserted += sh.stats.bytes_inserted;
      total.bytes_evicted += sh.stats.bytes_evicted;
      total.resident_bytes += sh.bytes;
      total.resident_entries += sh.probation.size() + sh.protected_.size();
    }
    {
      std::shared_lock<std::shared_mutex> l(alias_m_);
      total.aliases = aliases_.size();
      total.deduped = dedup_count_;
    }
    return total;
  }

  size_t byte_budget() const { return policy_.byte_budget; }
  size_t shard_count() const { return shards_.size(); }

 private:
  KeyId resolve(const KeyId& key) const {
    // Fast path: no aliases registered (single-tenant adapters, benches) —
    // skip the global lock entirely so the sharded hot path stays
    // shared-state-free. Once aliases exist the shared lock costs ~tens of
    // ns against a ~100us verify, but workloads that never register one
    // should not pay even that.
    if (!has_aliases_.load(std::memory_order_acquire)) return key;
    std::shared_lock<std::shared_mutex> l(alias_m_);
    auto it = aliases_.find(key);
    return it == aliases_.end() ? key : it->second;
  }

  Shard& shard_for(const KeyId& key) {
    return shards_[std::hash<KeyId>{}(key) % shards_.size()];
  }
  const Shard& shard_for(const KeyId& key) const {
    return shards_[std::hash<KeyId>{}(key) % shards_.size()];
  }

  // Caller holds sh.m.
  Pin pin_locked(Shard& sh, Entry& e) {
    ++e.pins;
    return Pin(&sh, &e, e.value);
  }

  // Recency/segment update on a hit. A probation entry has now proven reuse:
  // promote it into protected, demoting overflow from the protected tail
  // (never the entry just promoted) back to probation's front. splice()
  // moves list nodes without invalidating iterators or Entry addresses, so
  // index entries and outstanding Pins stay valid. Caller holds sh.m.
  void touch_locked(Shard& sh, typename EntryList::iterator it) {
    if (it->hot) {
      sh.protected_.splice(sh.protected_.begin(), sh.protected_, it);
      return;
    }
    it->hot = true;
    sh.protected_.splice(sh.protected_.begin(), sh.probation, it);
    sh.protected_bytes += it->bytes;
    ++sh.stats.promotions;
    while (sh.protected_bytes > protected_budget_ &&
           sh.protected_.size() > 1) {
      auto tail = std::prev(sh.protected_.end());
      tail->hot = false;
      sh.protected_bytes -= tail->bytes;
      sh.probation.splice(sh.probation.begin(), sh.protected_, tail);
      ++sh.stats.demotions;
    }
  }

  // Evicts until the shard is within budget, draining the probation tail
  // first (one-hit keys go before anything with proven reuse) and only then
  // the protected tail. Pinned entries are skipped. Caller holds sh.m.
  void evict_locked(Shard& sh) {
    evict_list_locked(sh, sh.probation, /*hot=*/false);
    if (sh.bytes > shard_budget_)
      evict_list_locked(sh, sh.protected_, /*hot=*/true);
  }

  void evict_list_locked(Shard& sh, EntryList& lru, bool hot) {
    auto it = lru.end();
    while (sh.bytes > shard_budget_ && it != lru.begin()) {
      --it;
      if (it->pins > 0) {
        ++sh.stats.pinned_skips;
        continue;
      }
      sh.bytes -= it->bytes;
      if (hot) sh.protected_bytes -= it->bytes;
      sh.stats.bytes_evicted += it->bytes;
      ++sh.stats.evictions;
      sh.index.erase(it->key);
      it = lru.erase(it);  // returns the already-visited successor
    }
  }

  KeyCachePolicy policy_;
  size_t shard_budget_ = 0;
  size_t protected_budget_ = 0;
  std::vector<Shard> shards_;

  // Alias table: read on every lookup (shared), written on registration
  // (exclusive). Separate from the shards because an alias and its
  // canonical key generally hash to different shards.
  mutable std::shared_mutex alias_m_;
  std::atomic<bool> has_aliases_{false};  // sticky: set on first add_alias
  std::unordered_map<KeyId, KeyId> aliases_;
  std::unordered_map<KeyId, uint64_t> canonical_refs_;
  uint64_t dedup_count_ = 0;  // guarded by alias_m_
};

/// Zipf(s) sampler over ranks [0, n): P(rank k) proportional to 1/(k+1)^s.
/// The canonical skewed-tenant access model for cache benchmarks (E12, the
/// CLI client demo): under s = 1.0 the hot head of the key population
/// carries most of the traffic, which is exactly the regime where an SLRU of
/// prepared verifiers pays off.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);

  /// Draws a rank in [0, n).
  size_t sample(Rng& rng) const;

  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // cumulative, normalized to cdf_.back() == 1
};

}  // namespace bnr::service
