// E15 — the cluster layer end to end. Three phases:
//
//   A. ROUTING AT SCALE. 1M+ distinct tenant keys pushed through the
//      consistent-hash ring (pure client-side routing, no sockets):
//      ns/route, node balance (max share over mean), and bit-exact
//      determinism against an independently-constructed client — the
//      property that lets a restarted client find every tenant.
//   B. STEADY STATE. 3 local daemons, a Zipf-weighted tenant population
//      registered through the replicated admin plane (tenants share a
//      handful of committees, so the daemons' pk-digest dedup collapses
//      them to a few prepared entries), closed-loop verify traffic through
//      the routed data plane: aggregate goodput and cluster-wide cache hit
//      rate from the STATS rollup.
//   C. FAILOVER. Kill one daemon mid-traffic and re-measure: retention =
//      failover goodput / steady goodput. The ring re-routes the dead
//      node's tenants to successors that already hold the replicated
//      registrations, so goodput should hold well above the 70% floor CI
//      tracks (informational: cluster/goodput_retention_pct >= 70).
//
// Sizes scale down for CI via BNR_E15_ROUTES / BNR_E15_TENANTS /
// BNR_E15_WINDOW_MS. Absolute numbers on the CI container are
// serialized-hardware artifacts; the ratios (balance, hit rate, retention)
// are the signal. Emits BENCH_e15.json.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "rpc/cluster_client.hpp"
#include "rpc/rpc_server.hpp"
#include "service/thread_pool.hpp"
#include "threshold/ro_scheme.hpp"

using namespace bnr;
using Clock = std::chrono::steady_clock;

namespace {

size_t env_size(const char* name, size_t dflt) {
  const char* v = std::getenv(name);
  return v && *v ? size_t(std::atoll(v)) : dflt;
}

volatile bool sink = false;

/// Zipf(s=1) sampler over [0, n): precomputed CDF + binary search. The
/// classic skew for tenant popularity — a few hot tenants dominate, a long
/// tail stays warm enough to matter for cache sizing.
class Zipf {
 public:
  Zipf(size_t n, Rng& rng) : rng_(rng), cdf_(n) {
    double acc = 0;
    for (size_t i = 0; i < n; ++i) cdf_[i] = (acc += 1.0 / double(i + 1));
    for (double& c : cdf_) c /= acc;
  }
  size_t next() {
    double u = double(rng_.next_u64() >> 11) * 0x1.0p-53;
    return size_t(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                  cdf_.begin());
  }

 private:
  Rng& rng_;
  std::vector<double> cdf_;
};

struct PhaseResult {
  uint64_t ok = 0;
  uint64_t failed = 0;
  double rps = 0;
};

/// Closed-loop verify traffic: `threads` workers hammer the routed data
/// plane with Zipf-weighted tenants for `window`. Each tenant's committee
/// index decides which pre-signed pool serves it.
PhaseResult drive(rpc::ClusterClient& cluster, size_t tenants, size_t pks,
                  const std::vector<std::vector<Bytes>>& msgs,
                  const std::vector<std::vector<Bytes>>& sig_bytes,
                  std::chrono::milliseconds window, size_t threads) {
  std::atomic<uint64_t> ok{0}, failed{0};
  std::vector<std::thread> workers;
  double window_s = std::chrono::duration<double>(window).count();
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng("e15-drive-" + std::to_string(w));
      Zipf zipf(tenants, rng);
      auto end = Clock::now() + window;
      while (Clock::now() < end) {
        size_t t = zipf.next();
        size_t p = t % pks;
        size_t r = rng.uniform(msgs[p].size());
        try {
          if (cluster.verify("t-" + std::to_string(t), msgs[p][r],
                             sig_bytes[p][r]))
            ++ok;
          else
            ++failed;  // a valid signature judged bad would be a real bug
        } catch (const std::exception&) {
          ++failed;  // node died mid-call; the NEXT call fails over
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  PhaseResult res;
  res.ok = ok.load();
  res.failed = failed.load();
  res.rps = double(res.ok) / window_s;
  return res;
}

}  // namespace

int main() {
  bench::JsonWriter out("BENCH_e15.json");
  const size_t kRoutes = env_size("BNR_E15_ROUTES", 1'000'000);
  const size_t kTenants = env_size("BNR_E15_TENANTS", 2000);
  const auto kWindow =
      std::chrono::milliseconds(env_size("BNR_E15_WINDOW_MS", 1500));
  constexpr size_t kNodes = 3;
  // Distinct committees the tenants share: few enough that the daemons' pk
  // dedup visibly collapses the population, many enough that the committee
  // ring points spread traffic over every node.
  constexpr size_t kPks = 8;
  constexpr size_t kPool = 16;  // pre-signed messages per committee
  const std::string label = "e15-cluster/v1";

  // ---- 3 local daemons. ---------------------------------------------------
  bench::header("cluster bench (E15): 3 daemons, Zipf tenants, failover");
  service::ThreadPool pool;
  std::vector<std::unique_ptr<rpc::RpcServer>> servers;
  std::vector<std::thread> serving;
  for (size_t i = 0; i < kNodes; ++i) {
    rpc::ServerConfig cfg;
    cfg.port = 0;
    cfg.params_label = label;
    cfg.cache_bytes = size_t(64) << 20;
    cfg.batch.max_delay = std::chrono::milliseconds(1);
    servers.push_back(std::make_unique<rpc::RpcServer>(cfg, pool));
    serving.emplace_back([s = servers.back().get()] { s->run(); });
  }

  rpc::ClusterConfig ccfg;
  for (const auto& s : servers) ccfg.nodes.push_back({"127.0.0.1", s->port()});
  ccfg.params_label = label;
  ccfg.down_backoff = std::chrono::milliseconds(200);
  ccfg.client.retry.max_attempts = 2;
  ccfg.client.retry.initial_backoff = std::chrono::milliseconds(5);
  ccfg.client.retry.max_backoff = std::chrono::milliseconds(40);
  rpc::ClusterClient cluster(ccfg);

  // ---- Phase A: routing at scale (no sockets touched). --------------------
  {
    printf("phase A: routing %zu distinct tenant keys...\n", kRoutes);
    std::vector<uint64_t> hits(kNodes, 0);
    uint64_t fingerprint = 0;
    double ms = bench::time_ms([&] {
      for (size_t i = 0; i < kRoutes; ++i) {
        size_t r = cluster.route("tenant-" + std::to_string(i));
        ++hits[r];
        fingerprint = fingerprint * 31 + r;
      }
    });
    double mean = double(kRoutes) / double(kNodes);
    uint64_t max_hits = *std::max_element(hits.begin(), hits.end());
    out.record("cluster/routed_keys", double(kRoutes));
    out.record("cluster/route_ns", ms * 1e6 / double(kRoutes));
    out.record("cluster/balance_max_over_mean", double(max_hits) / mean);
    printf("  %zu keys in %.0f ms (%.0f ns/route), shares", kRoutes, ms,
           ms * 1e6 / double(kRoutes));
    for (uint64_t h : hits)
      printf(" %.1f%%", 100.0 * double(h) / double(kRoutes));
    printf(" (max/mean %.3f)\n", double(max_hits) / mean);

    // Determinism: an independent client over the same config must produce
    // the identical route for every key.
    rpc::ClusterClient restarted(ccfg);
    uint64_t fp2 = 0;
    for (size_t i = 0; i < kRoutes; ++i)
      fp2 = fp2 * 31 + restarted.route("tenant-" + std::to_string(i));
    out.record("cluster/routing_deterministic", fp2 == fingerprint ? 1 : 0);
    if (fp2 != fingerprint) {
      fprintf(stderr, "FATAL: routing not deterministic across clients\n");
      return 1;
    }
    printf("  restarted-client fingerprint matches: routing deterministic\n");
  }

  // ---- Registration: Zipf tenant population over shared committees. -------
  threshold::RoScheme scheme(threshold::SystemParams::derive(label));
  Rng rng("e15-keys");
  std::vector<threshold::KeyMaterial> kms;
  std::vector<std::vector<Bytes>> msgs(kPks), sig_bytes(kPks);
  for (size_t p = 0; p < kPks; ++p) {
    kms.push_back(scheme.dist_keygen(3, 1, rng));
    for (size_t j = 0; j < kPool; ++j) {
      msgs[p].push_back(to_bytes("e15 c" + std::to_string(p) + " m" +
                                 std::to_string(j)));
      std::vector<threshold::PartialSignature> parts;
      for (uint32_t i = 1; i <= kms[p].t + 1; ++i)
        parts.push_back(scheme.share_sign(kms[p].shares[i - 1], msgs[p][j]));
      sig_bytes[p].push_back(
          scheme.combine_unchecked(kms[p].t, parts).serialize());
    }
  }
  {
    printf("phase B: registering %zu tenants over %zu committees on %zu "
           "nodes...\n",
           kTenants, kPks, kNodes);
    double ms = bench::time_ms([&] {
      for (size_t t = 0; t < kTenants; ++t) {
        const auto& km = kms[t % kPks];
        threshold::Committee c;
        c.pk = km.pk.serialize();
        c.n = uint32_t(km.n);
        c.t = uint32_t(km.t);
        for (const auto& vk : km.vks) c.vks.push_back(vk.serialize());
        auto outcome = cluster.register_committee("t-" + std::to_string(t),
                                                  threshold::SchemeId::kRo, c);
        if (!outcome.all()) {
          fprintf(stderr, "FATAL: registration not fully replicated\n");
          exit(1);
        }
      }
    });
    out.record("cluster/register_replicated_us",
               ms * 1e3 / double(kTenants));
    printf("  %zu fan-out registrations in %.0f ms (%.0f us each, x%zu "
           "nodes)\n",
           kTenants, ms, ms * 1e3 / double(kTenants), kNodes);
  }

  // ---- Phase B: steady-state goodput + aggregate hit rate. ----------------
  const size_t kThreads = 4;
  // Warm every committee's prepared entry on its serving nodes.
  (void)drive(cluster, kTenants, kPks, msgs, sig_bytes,
              std::chrono::milliseconds(200), kThreads);
  PhaseResult steady =
      drive(cluster, kTenants, kPks, msgs, sig_bytes, kWindow, kThreads);
  auto roll = cluster.stats_rollup();
  double hit_rate =
      100.0 * double(roll.total.cache_hits) /
      double(std::max<uint64_t>(1, roll.total.cache_hits +
                                       roll.total.cache_misses));
  out.record("cluster/goodput_steady_rps", steady.rps);
  out.record("cluster/agg_hit_rate_pct", hit_rate);
  printf("phase B: steady goodput %8.0f verifies/s (%llu ok, %llu failed), "
         "aggregate cache hit rate %.2f%%\n",
         steady.rps, (unsigned long long)steady.ok,
         (unsigned long long)steady.failed, hit_rate);
  printf("  per node:");
  for (size_t i = 0; i < roll.nodes.size(); ++i)
    printf(" [%zu: %s, %llu submitted]", i, roll.nodes[i].up ? "up" : "DOWN",
           (unsigned long long)roll.nodes[i].stats.verify_submitted);
  printf(" (resident entries total %llu: pk dedup collapsed %zu tenants)\n",
         (unsigned long long)roll.total.cache_resident_entries, kTenants);

  // ---- Phase C: kill one node mid-traffic, measure retention. -------------
  {
    size_t victim = cluster.route("t-0");
    printf("phase C: killing node %zu (ring owner of t-0) under load...\n",
           victim);
    std::thread killer([&] {
      std::this_thread::sleep_for(kWindow / 4);
      servers[victim]->stop();
      serving[victim].join();
    });
    PhaseResult failover =
        drive(cluster, kTenants, kPks, msgs, sig_bytes, kWindow, kThreads);
    killer.join();
    double retention = 100.0 * failover.rps / std::max(1.0, steady.rps);
    out.record("cluster/goodput_failover_rps", failover.rps);
    out.record("cluster/goodput_retention_pct", retention);
    auto cs = cluster.cluster_stats();
    out.record("cluster/failovers", double(cs.failovers));
    printf("  failover goodput %8.0f verifies/s (%llu ok, %llu failed "
           "during the kill) = %.0f%% retention (floor: 70%%)\n",
           failover.rps, (unsigned long long)failover.ok,
           (unsigned long long)failover.failed, retention);
    printf("  cluster stats: routed %llu, failovers %llu, failed %llu, "
           "replicated %llu acks\n",
           (unsigned long long)cs.routed, (unsigned long long)cs.failovers,
           (unsigned long long)cs.failed, (unsigned long long)cs.replicated);

    // Surviving nodes keep their accounting identity through the kill.
    for (size_t i = 0; i < servers.size(); ++i) {
      if (i == victim) continue;
      auto st = servers[i]->snapshot_stats();
      if (st.verify_submitted !=
          st.verify_accepted + st.verify_rejected + st.verify_sheds) {
        fprintf(stderr, "FATAL: node %zu accounting identity broken\n", i);
        return 1;
      }
    }
    printf("  surviving nodes: submitted == accepted + rejected + "
           "deadline_sheds holds\n");
  }

  for (size_t i = 0; i < servers.size(); ++i) {
    servers[i]->stop();
    if (serving[i].joinable()) serving[i].join();
  }
  out.flush();
  return 0;
}
