// E13 — the serving daemon over loopback: throughput and p50/p99 latency of
// concurrent pipelined RPC clients against the socket front end, vs the
// in-process multi-tenant service path those same requests take without the
// socket (the E12 serving hot path).
//
// Setup: one RO committee, a pool of pre-signed messages, the daemon on an
// ephemeral loopback port. Ladder:
//   * in-process baseline: requests submitted straight into
//     MultiTenantVerificationService from one thread, matching E12's
//     service path — the per-request cost the socket must stay within 3x of;
//   * daemon, 1 connection: one pipelined client with a bounded window,
//     isolating protocol + syscall overhead;
//   * daemon, 4 connections: four client threads spread by the kernel over
//     the daemon's 4 SO_REUSEPORT epoll loops — the concurrency level the
//     acceptance gate targets (loopback throughput <= 1.2x in-process cost);
//   * per-request submit->resolve latency percentiles at 4 connections;
//   * low-load p50: window 1 on one connection — adaptive flush must answer
//     a lone request when the pool goes idle, not camp on the old 2ms timer.
//
// Emits BENCH_e13.json; CI gates daemon/request_ns_c4 vs
// daemon/inprocess_service_ns at <= 1.2x (informational).
#include <algorithm>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "rpc/rpc_client.hpp"
#include "rpc/rpc_server.hpp"
#include "service/key_cache.hpp"
#include "service/thread_pool.hpp"
#include "service/verification_service.hpp"
#include "threshold/fold.hpp"
#include "threshold/ro_scheme.hpp"

using namespace bnr;

namespace {
volatile bool sink = false;
}

int main() {
  bench::JsonWriter out("BENCH_e13.json");
  bench::header("serving daemon over loopback (E13)");

  const std::string label = "e13-daemon/v1";
  threshold::RoScheme scheme(threshold::SystemParams::derive(label));
  Rng rng("e13-rng");
  auto km = scheme.dist_keygen(3, 1, rng);

  constexpr size_t kPool = 64;
  std::vector<Bytes> msgs;
  std::vector<threshold::Signature> sigs;
  for (size_t j = 0; j < kPool; ++j) {
    msgs.push_back(to_bytes("e13 req " + std::to_string(j)));
    std::vector<threshold::PartialSignature> parts;
    for (uint32_t i = 1; i <= km.t + 1; ++i)
      parts.push_back(scheme.share_sign(km.shares[i - 1], msgs.back()));
    sigs.push_back(scheme.combine_unchecked(km.t, parts));
  }

  // Adaptive flush on BOTH sides of the comparison: the 2ms timer is only
  // the upper bound, the pool-idle edge drives the actual cadence — so the
  // c4/in-process ratio isolates socket overhead, not flush-policy luck.
  const service::BatchPolicy policy{.max_batch = 32,
                                    .max_delay = std::chrono::milliseconds(2),
                                    .adaptive = true};
  constexpr size_t kReqs = 1500;

  // ---- In-process baseline: the same service stack, no socket. -----------
  double inprocess_ns;
  {
    service::ThreadPool pool;
    service::KeyCacheManager<threshold::PreparedVerifier> cache(
        {.byte_budget = size_t(64) << 20, .shards = 16});
    // The unified (type-erased) service — the same implementation the
    // daemon routes every scheme through.
    service::MultiTenantVerificationService svc(
        cache,
        [&](const std::string&) {
          return threshold::erase_verifier<threshold::RoVerifier,
                                           threshold::Signature>(
              threshold::SchemeId::kRo,
              threshold::RoVerifier(scheme, km.pk));
        },
        policy, pool);
    std::vector<threshold::SigHandle> handles;
    for (const auto& sg : sigs)
      handles.push_back(
          threshold::erase_signature(threshold::SchemeId::kRo, sg));
    // Warm the prepared entry, then measure the submit->get loop.
    svc.submit("tenant", msgs[0], handles[0]).get();
    double ms = bench::time_ms([&] {
      std::vector<std::future<bool>> futs;
      futs.reserve(kReqs);
      for (size_t j = 0; j < kReqs; ++j)
        futs.push_back(
            svc.submit("tenant", msgs[j % kPool], handles[j % kPool]));
      bool ok = true;
      for (auto& f : futs) ok = ok && f.get();
      sink = !ok;
    });
    inprocess_ns = ms * 1e6 / kReqs;
    out.record("daemon/inprocess_service_ns", inprocess_ns);
    printf("in-process service:      %8.0f ns/req (%.0f req/s)\n",
           inprocess_ns, 1e9 / inprocess_ns);
  }

  // ---- Daemon on loopback. ------------------------------------------------
  service::ThreadPool pool;
  rpc::ServerConfig cfg;
  cfg.port = 0;
  cfg.params_label = label;
  cfg.cache_bytes = size_t(64) << 20;
  cfg.batch = policy;
  cfg.io_threads = 4;  // one epoll loop per benchmark connection
  rpc::RpcServer server(cfg, pool);
  std::thread serving([&] { server.run(); });
  {
    rpc::RpcClient reg("127.0.0.1", server.port());
    reg.register_ro_committee("tenant", km).get();
    reg.verify_sync("tenant", msgs[0], sigs[0]);  // warm the prepared entry
  }

  // Pipelined connections with a bounded in-flight window. A saturating
  // window measures throughput; a small window measures latency without the
  // queueing delay a deep window deliberately accumulates.
  auto run_clients = [&](size_t conns, size_t reqs_per_conn, size_t window_sz,
                         std::vector<double>* latencies_us) {
    std::vector<std::thread> threads;
    std::mutex lat_m;
    double ms = bench::time_ms([&] {
      for (size_t c = 0; c < conns; ++c)
        threads.emplace_back([&, c] {
          rpc::RpcClient client("127.0.0.1", server.port());
          const size_t kWindow = window_sz;
          std::vector<double> lat;
          lat.reserve(reqs_per_conn);
          std::deque<std::pair<std::future<bool>,
                               std::chrono::steady_clock::time_point>>
              window;
          bool ok = true;
          for (size_t j = 0; j < reqs_per_conn; ++j) {
            if (window.size() >= kWindow) {
              auto& [f, t0] = window.front();
              ok = ok && f.get();
              lat.push_back(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
              window.pop_front();
            }
            size_t r = (c * reqs_per_conn + j) % kPool;
            window.emplace_back(client.verify("tenant", msgs[r], sigs[r]),
                                std::chrono::steady_clock::now());
          }
          while (!window.empty()) {
            auto& [f, t0] = window.front();
            ok = ok && f.get();
            lat.push_back(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
            window.pop_front();
          }
          sink = !ok;
          if (latencies_us) {
            std::lock_guard<std::mutex> l(lat_m);
            latencies_us->insert(latencies_us->end(), lat.begin(), lat.end());
          }
        });
      for (auto& t : threads) t.join();
    });
    return ms;
  };

  {
    double ms = run_clients(1, kReqs, 64, nullptr);
    double ns = ms * 1e6 / kReqs;
    out.record("daemon/request_ns_c1", ns);
    printf("daemon, 1 connection:    %8.0f ns/req (%.0f req/s, %.2fx "
           "in-process)\n",
           ns, 1e9 / ns, ns / inprocess_ns);
  }
  {
    constexpr size_t kConns = 4;
    double ms = run_clients(kConns, kReqs / kConns, 64, nullptr);
    double ns = ms * 1e6 / double(kReqs / kConns * kConns);
    out.record("daemon/request_ns_c4", ns);
    out.record("daemon/socket_overhead_ratio", ns / inprocess_ns);
    printf("daemon, 4 connections:   %8.0f ns/req (%.0f req/s, %.2fx "
           "in-process)\n",
           ns, 1e9 / ns, ns / inprocess_ns);

    // Latency probe: shallow window (4 in flight per connection), so the
    // percentiles reflect batching + socket + fold time, not the queueing
    // a saturating window piles up by design.
    std::vector<double> lat_us;
    run_clients(kConns, 150, 4, &lat_us);
    std::sort(lat_us.begin(), lat_us.end());
    double p50 = lat_us[lat_us.size() / 2];
    double p99 = lat_us[size_t(double(lat_us.size()) * 0.99)];
    out.record("daemon/latency_p50_ns", p50 * 1000.0);
    out.record("daemon/latency_p99_ns", p99 * 1000.0);
    printf("latency (window 4):      p50 %.0f us, p99 %.0f us\n", p50, p99);
  }
  {
    // Low load: one request in flight at a time. Before adaptive flush a
    // lone request always ate the full max_delay timer (2ms floor); now the
    // pool-idle edge flushes it as soon as the workers drain.
    std::vector<double> lat_us;
    run_clients(1, 200, 1, &lat_us);
    std::sort(lat_us.begin(), lat_us.end());
    double p50 = lat_us[lat_us.size() / 2];
    out.record("daemon/latency_lowload_p50_ns", p50 * 1000.0);
    printf("low-load (window 1):     p50 %.0f us%s\n", p50,
           p50 < 2000.0 ? " (under the old 2ms flush floor)" : "");
  }

  auto st = server.snapshot_stats();
  printf("daemon: %llu frames, %llu folds over %llu verifies, %llu protocol "
         "errors\n",
         (unsigned long long)st.frames_in,
         (unsigned long long)st.verify_batches,
         (unsigned long long)st.verify_submitted,
         (unsigned long long)st.protocol_errors);

  server.stop();
  serving.join();
  out.flush();
  return 0;
}
