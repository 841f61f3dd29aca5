// The multi-tenant key-cache manager: deterministic byte-budget LRU
// semantics (eviction order, pin-blocks-evict, exact stats accounting) plus
// a seeded multi-thread stress test (N threads x M keys, capacity << M)
// asserting no use-after-evict and exact final byte accounting. The stress
// test is part of the TSan CI variant: every shard-lock/pin interaction runs
// under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <thread>

#include "common/rng.hpp"
#include "service/key_cache.hpp"
#include "threshold/ro_scheme.hpp"

namespace bnr {
namespace {

using service::KeyCacheManager;
using service::KeyCachePolicy;
using service::ZipfSampler;

constexpr uint32_t kAlive = 0xC0FFEE42;
constexpr uint32_t kDead = 0xDEAD0000;

/// Stand-in for a prepared verifier: carries the key it was prepared for (so
/// readers can detect cross-entry mixups), a configurable footprint, and a
/// destruction canary.
struct Payload {
  std::string key;
  size_t bytes;
  uint32_t canary = kAlive;
  std::atomic<uint64_t>* destroyed;

  Payload(std::string k, size_t b, std::atomic<uint64_t>* d = nullptr)
      : key(std::move(k)), bytes(b), destroyed(d) {}
  ~Payload() {
    canary = kDead;
    if (destroyed) destroyed->fetch_add(1);
  }
  size_t cache_bytes() const { return bytes; }
};

using Cache = KeyCacheManager<Payload>;

Cache::Factory make(const std::string& key, size_t bytes,
                    std::atomic<uint64_t>* destroyed = nullptr) {
  return [=](const Cache::KeyId&) {
    return std::make_shared<const Payload>(key, bytes, destroyed);
  };
}

// ---------------------------------------------------------------------------
// Deterministic single-shard semantics

TEST(KeyCache, HitMissAndByteBudgetEvictionOrder) {
  Cache cache({.byte_budget = 100, .shards = 1});
  { auto p = cache.get_or_prepare("a", make("a", 40)); EXPECT_EQ(p->key, "a"); }
  { auto p = cache.get_or_prepare("b", make("b", 40)); EXPECT_EQ(p->key, "b"); }
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_TRUE(cache.contains("b"));

  // Touch a: it becomes most-recently-used, so the next eviction takes b.
  { auto p = cache.get_or_prepare("a", make("a", 40)); EXPECT_EQ(p->key, "a"); }
  { auto p = cache.get_or_prepare("c", make("c", 40)); EXPECT_EQ(p->key, "c"); }
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));  // LRU victim
  EXPECT_TRUE(cache.contains("c"));

  auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 3u);
  EXPECT_EQ(st.inserts, 3u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.resident_entries, 2u);
  EXPECT_EQ(st.resident_bytes, 80u);
  EXPECT_EQ(st.bytes_inserted, 120u);
  EXPECT_EQ(st.bytes_evicted, 40u);
}

TEST(KeyCache, EvictionIsByBytesNotEntryCount) {
  // One big entry displaces several small ones: the policy charges bytes.
  Cache cache({.byte_budget = 100, .shards = 1});
  for (const char* k : {"s1", "s2", "s3", "s4"})
    cache.get_or_prepare(k, make(k, 25));
  EXPECT_EQ(cache.stats().resident_entries, 4u);
  cache.get_or_prepare("big", make("big", 90));
  auto st = cache.stats();
  EXPECT_TRUE(cache.contains("big"));
  EXPECT_EQ(st.resident_bytes, 90u + 25u * (4 - st.evictions));
  EXPECT_EQ(st.evictions, 4u);  // 90 + 25 > 100: every small entry went
  EXPECT_EQ(st.resident_entries, 1u);
}

TEST(KeyCache, PinBlocksEvictionUntilReleased) {
  Cache cache({.byte_budget = 100, .shards = 1});
  auto pin_a = cache.get_or_prepare("a", make("a", 60));
  {
    // b pushes the shard over budget, but a is pinned and b is the (pinned)
    // newcomer — nothing can go; the shard stays transiently over budget.
    auto pin_b = cache.get_or_prepare("b", make("b", 60));
    EXPECT_TRUE(cache.contains("a"));
    EXPECT_TRUE(cache.contains("b"));
    EXPECT_EQ(cache.stats().resident_bytes, 120u);
    EXPECT_GE(cache.stats().pinned_skips, 1u);
    // The pinned entry stays fully usable under pressure.
    EXPECT_EQ(pin_a->key, "a");
    EXPECT_EQ(pin_a->canary, kAlive);
  }
  // Release a's pin; the next insert evicts a (now the unpinned LRU tail)
  // and lands within budget.
  pin_a = Cache::Pin();
  auto pin_c = cache.get_or_prepare("c", make("c", 40));
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_TRUE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_EQ(cache.stats().resident_bytes, 100u);
}

TEST(KeyCache, ReleasedPinMakesEntryEvictable) {
  Cache cache({.byte_budget = 100, .shards = 1});
  {
    auto pin_a = cache.get_or_prepare("a", make("a", 60));
    auto pin_b = cache.get_or_prepare("b", make("b", 60));
  }  // both pins released; shard still over budget (120 > 100)
  cache.trim();
  // trim evicts from the LRU tail (a) until within budget.
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_TRUE(cache.contains("b"));
  auto st = cache.stats();
  EXPECT_EQ(st.resident_bytes, 60u);
  EXPECT_EQ(st.resident_bytes, st.bytes_inserted - st.bytes_evicted);
}

TEST(KeyCache, PinnedValueSurvivesHeavyPressure) {
  std::atomic<uint64_t> destroyed{0};
  Cache cache({.byte_budget = 100, .shards = 1});
  auto pin = cache.get_or_prepare("hot", make("hot", 50, &destroyed));
  for (int i = 0; i < 64; ++i) {
    std::string k = "filler-" + std::to_string(i);
    cache.get_or_prepare(k, make(k, 40, &destroyed));
  }
  // Dozens of evictions later, the pinned entry is resident and intact.
  EXPECT_TRUE(cache.contains("hot"));
  EXPECT_EQ(pin->key, "hot");
  EXPECT_EQ(pin->canary, kAlive);
  EXPECT_GE(cache.stats().evictions, 60u);
  // The pinned payload was never destroyed.
  EXPECT_EQ(64u - cache.stats().evictions + 1u,
            cache.stats().resident_entries);
}

TEST(KeyCache, StatsAccountingIsExact) {
  Cache cache({.byte_budget = 1000, .shards = 1});
  for (int i = 0; i < 20; ++i) {
    std::string k = "k" + std::to_string(i % 7);
    cache.get_or_prepare(k, make(k, 100));
  }
  auto st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, 20u);
  EXPECT_EQ(st.inserts - st.evictions, st.resident_entries);
  EXPECT_EQ(st.bytes_inserted - st.bytes_evicted, st.resident_bytes);
  EXPECT_EQ(st.resident_bytes, st.resident_entries * 100u);
  EXPECT_LE(st.resident_bytes, cache.byte_budget());
  EXPECT_DOUBLE_EQ(st.hit_rate(), double(st.hits) / 20.0);
}

TEST(KeyCache, ShardedStatsAggregateAcrossShards) {
  Cache cache({.byte_budget = 4096, .shards = 4});
  EXPECT_EQ(cache.shard_count(), 4u);
  for (int i = 0; i < 100; ++i) {
    std::string k = "key-" + std::to_string(i % 25);
    cache.get_or_prepare(k, make(k, 64));
  }
  auto st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, 100u);
  EXPECT_EQ(st.inserts - st.evictions, st.resident_entries);
  EXPECT_EQ(st.bytes_inserted - st.bytes_evicted, st.resident_bytes);
}

TEST(KeyCache, NullPrepareThrowsAndChargesNothing) {
  Cache cache({.byte_budget = 100, .shards = 1});
  EXPECT_THROW(cache.get_or_prepare(
                   "x",
                   [](const Cache::KeyId&) {
                     return std::shared_ptr<const Payload>();
                   }),
               std::runtime_error);
  auto st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.inserts, 0u);
  EXPECT_EQ(st.resident_bytes, 0u);
}

TEST(KeyCache, RealVerifierFootprintDrivesResidency) {
  // Wire the cache to the real prepared-verifier type: the footprint of one
  // RoVerifier (its two owned Miller-loop line tables, ~34KB on BN254; the
  // g^_z/g^_r tables belong to the params) is what the byte budget is
  // provisioned against.
  using namespace bnr::threshold;
  SystemParams sp = SystemParams::derive("key-cache-real");
  RoScheme scheme(sp);
  Rng rng("key-cache-real-rng");
  auto km = scheme.dist_keygen(3, 1, rng);
  RoVerifier probe(scheme, km.pk);
  const size_t unit = probe.cache_bytes();
  EXPECT_GT(unit, 2 * 64 * sizeof(EllCoeffs));  // >= 2 line tables

  KeyCacheManager<RoVerifier> cache({.byte_budget = 3 * unit, .shards = 1});
  for (int i = 0; i < 5; ++i) {
    auto pin = cache.get_or_prepare(
        "tenant-" + std::to_string(i), [&](const std::string&) {
          return std::make_shared<const RoVerifier>(scheme, km.pk);
        });
    Bytes m = to_bytes("footprint " + std::to_string(i));
    std::vector<PartialSignature> parts;
    for (uint32_t p = 1; p <= km.t + 1; ++p)
      parts.push_back(scheme.share_sign(km.shares[p - 1], m));
    EXPECT_TRUE(pin->verify(m, scheme.combine_unchecked(km.t, parts)));
  }
  auto st = cache.stats();
  EXPECT_EQ(st.resident_entries, 3u);  // 3 * unit budget -> 3 resident keys
  EXPECT_EQ(st.evictions, 2u);
  EXPECT_LE(st.resident_bytes, 3 * unit);
}

// ---------------------------------------------------------------------------
// Segmented-LRU admission (probation/protected)

TEST(KeyCacheSlru, OneHitWondersCannotEvictProvenKeys) {
  // hot has proven reuse (promoted to protected); a parade of one-hit
  // fillers churns probation without ever displacing it — the Zipf-tail
  // regime the segmentation exists for.
  Cache cache({.byte_budget = 100, .shards = 1, .protected_fraction = 0.8});
  cache.get_or_prepare("hot", make("hot", 40));
  cache.get_or_prepare("hot", make("hot", 40));  // second access -> protected
  EXPECT_EQ(cache.stats().promotions, 1u);

  for (int i = 0; i < 32; ++i) {
    std::string k = "filler-" + std::to_string(i);
    cache.get_or_prepare(k, make(k, 30));
  }
  // Under plain LRU "hot" would have been evicted 30 fillers ago.
  EXPECT_TRUE(cache.contains("hot"));
  auto st = cache.stats();
  EXPECT_GE(st.evictions, 30u);
  EXPECT_EQ(st.demotions, 0u);
  EXPECT_LE(st.resident_bytes, 100u);
}

TEST(KeyCacheSlru, ProtectedOverflowDemotesTailNotHead) {
  // protected budget = 80 of 100: promoting a third 30-byte key overflows
  // protected and demotes the protected TAIL back to probation, where it is
  // evictable again; the freshly promoted head stays.
  Cache cache({.byte_budget = 100, .shards = 1, .protected_fraction = 0.8});
  for (const char* k : {"a", "b", "c"}) cache.get_or_prepare(k, make(k, 30));
  for (const char* k : {"a", "b", "c"}) cache.get_or_prepare(k, make(k, 30));
  auto st = cache.stats();
  EXPECT_EQ(st.promotions, 3u);
  EXPECT_EQ(st.demotions, 1u);  // "a" (the protected tail) made room for "c"
  EXPECT_EQ(st.resident_entries, 3u);

  // Probation now holds only "a": the next insert under pressure evicts it
  // even though "b"/"c" were touched less recently than "a"'s demotion.
  cache.get_or_prepare("d", make("d", 30));
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_TRUE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_TRUE(cache.contains("d"));
}

TEST(KeyCacheSlru, EvictionFallsThroughToProtectedWhenProbationEmpty) {
  Cache cache({.byte_budget = 100, .shards = 1, .protected_fraction = 0.8});
  cache.get_or_prepare("x", make("x", 60));
  cache.get_or_prepare("x", make("x", 60));  // promoted; probation empty
  cache.get_or_prepare("y", make("y", 60));  // over budget, y pinned on insert
  // Probation has only the pinned newcomer; the protected tail (x) goes.
  EXPECT_FALSE(cache.contains("x"));
  EXPECT_TRUE(cache.contains("y"));
  EXPECT_LE(cache.stats().resident_bytes, 100u);
}

// ---------------------------------------------------------------------------
// Alias map: tenants sharing a pk share one prepared entry

TEST(KeyCacheAlias, TenantsSharingDigestShareOneEntry) {
  Cache cache({.byte_budget = 1000, .shards = 4});
  std::atomic<uint64_t> destroyed{0};

  EXPECT_FALSE(cache.add_alias("tenant-a", "pk:1234"));
  EXPECT_TRUE(cache.add_alias("tenant-b", "pk:1234"));  // dedup
  EXPECT_TRUE(cache.add_alias("tenant-c", "pk:1234"));  // dedup
  EXPECT_FALSE(cache.add_alias("tenant-d", "pk:9999"));

  size_t prepares = 0;
  // The factory receives the canonical key and derives the payload from it
  // — the contract that makes alias races unable to poison an entry.
  auto counted = [&](const std::string& expect_canon) {
    return [&, expect_canon](const Cache::KeyId& canon) {
      EXPECT_EQ(canon, expect_canon);
      ++prepares;
      return std::make_shared<const Payload>(canon, 100, &destroyed);
    };
  };
  {
    auto p = cache.get_or_prepare("tenant-a", counted("pk:1234"));
    EXPECT_EQ(p->key, "pk:1234");
  }
  // b and c hit a's prepared entry; no second prepare happens.
  {
    auto p = cache.get_or_prepare("tenant-b", counted("pk:1234"));
    EXPECT_EQ(p->key, "pk:1234");
  }
  cache.get_or_prepare("tenant-c", counted("pk:1234"));
  cache.get_or_prepare("tenant-d", counted("pk:9999"));
  EXPECT_EQ(prepares, 2u);  // one per distinct pk, not per tenant

  auto st = cache.stats();
  EXPECT_EQ(st.inserts, 2u);
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.aliases, 4u);
  EXPECT_EQ(st.deduped, 2u);
  EXPECT_TRUE(cache.contains("tenant-b"));  // resolves through the alias
  EXPECT_TRUE(cache.contains("pk:1234"));   // canonical works directly too
}

TEST(KeyCacheAlias, ReRegistrationMovesTheMapping) {
  Cache cache({.byte_budget = 1000, .shards = 1});
  EXPECT_FALSE(cache.add_alias("tenant", "pk:old"));
  cache.get_or_prepare("tenant", make("pk:old", 100));
  // Key rotation: the tenant re-registers under a new pk.
  EXPECT_FALSE(cache.add_alias("tenant", "pk:new"));
  auto p = cache.get_or_prepare("tenant", make("pk:new", 100));
  EXPECT_EQ(p->key, "pk:new");
  // A later tenant landing on the OLD pk is a fresh canonical again (the
  // rotation released it), while the new pk dedups.
  EXPECT_FALSE(cache.add_alias("other", "pk:old"));
  EXPECT_TRUE(cache.add_alias("third", "pk:new"));
  EXPECT_EQ(cache.stats().deduped, 1u);
}

// ---------------------------------------------------------------------------
// Zipf sampler (the access model of the E12 bench and the CLI client demo)

TEST(ZipfSamplerTest, HeadCarriesMostMassAtS1) {
  ZipfSampler zipf(1000, 1.0);
  Rng rng("zipf-test");
  size_t head = 0, draws = 20000;
  for (size_t i = 0; i < draws; ++i)
    if (zipf.sample(rng) < 100) ++head;
  // H(100)/H(1000) ~ 0.69: the top 10% of ranks draw ~69% of traffic.
  EXPECT_GT(head, draws * 55 / 100);
  EXPECT_LT(head, draws * 85 / 100);
}

TEST(ZipfSamplerTest, RanksStayInRange) {
  ZipfSampler zipf(7, 0.8);
  Rng rng("zipf-range");
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.sample(rng), 7u);
}

// ---------------------------------------------------------------------------
// Seeded multi-thread stress: N threads x M keys, capacity << M.

TEST(KeyCacheStress, NoUseAfterEvictAndExactFinalByteAccounting) {
  constexpr int kThreads = 8, kOpsPerThread = 1500;
  constexpr size_t kKeys = 257, kEntryBytes = 1024;
  // Budget of 48 entries across 4 shards — far below the 257-key population,
  // so eviction churns constantly while pins are held across operations.
  KeyCachePolicy pol{.byte_budget = 48 * kEntryBytes, .shards = 4};
  Cache cache(pol);
  std::atomic<uint64_t> created{0}, destroyed{0};

  Rng master("key-cache-stress");  // deterministic: failures reproduce as-is
  std::vector<Rng> rngs;
  for (int t = 0; t < kThreads; ++t)
    rngs.push_back(master.fork("thread-" + std::to_string(t)));

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      Rng& r = rngs[t];
      std::deque<Cache::Pin> parked;  // pins held across later operations
      for (int op = 0; op < kOpsPerThread; ++op) {
        std::string key = "key-" + std::to_string(r.uniform(kKeys));
        auto pin = cache.get_or_prepare(key, [&](const Cache::KeyId&) {
          created.fetch_add(1);
          return std::make_shared<const Payload>(key, kEntryBytes, &destroyed);
        });
        // No use-after-evict, no cross-entry mixup: the pinned payload is
        // alive and is the one prepared for this key.
        ASSERT_EQ(pin->canary, kAlive) << key;
        ASSERT_EQ(pin->key, key);
        if (r.uniform(4) == 0) parked.push_back(std::move(pin));
        while (parked.size() > 4) parked.pop_front();
      }
    });
  for (auto& th : threads) th.join();

  auto st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, uint64_t(kThreads) * kOpsPerThread);
  // Every prepare either became an insert or lost a race and was dropped.
  EXPECT_EQ(created.load(), st.inserts + st.redundant_prepares);
  // Exact byte accounting: resident = inserted - evicted, all entries equal.
  EXPECT_EQ(st.resident_bytes, st.bytes_inserted - st.bytes_evicted);
  EXPECT_EQ(st.resident_bytes, st.resident_entries * kEntryBytes);
  // Every payload ever created is either resident or destroyed — nothing
  // leaked, nothing double-freed (ASan would flag the latter).
  EXPECT_EQ(created.load() - destroyed.load(), st.resident_entries);
  // With all pins released, trim() restores the byte budget exactly.
  cache.trim();
  EXPECT_LE(cache.stats().resident_bytes, pol.byte_budget);
}

}  // namespace
}  // namespace bnr
