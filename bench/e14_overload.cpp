// E14 — goodput under overload: what fraction of un-overloaded throughput
// the daemon still delivers when the offered load is a multiple of its
// capacity, with admission control + deadline shedding ON versus OFF.
//
// Setup: one RO committee, pre-signed message pool, two daemons on loopback:
//   * SHED:    in-flight cap sized from measured capacity, clients attach a
//              100 ms deadline budget to every request (so the server sheds
//              expired work before paying a pairing) and do NOT retry — an
//              overloaded server's BUSY is taken as the answer;
//   * NO-SHED: effectively uncapped in-flight, no budgets — the pre-PR
//              behavior, where every request queues and the backlog grows.
//
// Protocol: measure closed-loop capacity G0 (4 pipelined connections) to
// scale the offered rates, then offer OPEN-LOOP load at 1.0 x G0 (the
// un-overloaded baseline B: offered = capacity, nothing to shed in steady
// state) and at k x G0 for k in {2, 4, 10}. A request
// counts toward goodput only if it succeeds AND completes within the 100 ms
// budget of its *scheduled* issue time (scheduled, not actual — the
// open-loop generator does not let a slow server slow the offered rate, so
// queueing delay is not silently absorbed: no coordinated omission).
// Retention percentages are goodput(k x) / B: numerator and denominator run
// the SAME daemon configuration, so the gate measures what overload does to
// goodput, not what admission control costs at 1x.
//
// Emits BENCH_e14.json; CI gates overload/goodput_retention_pct_4x >= 70
// (informational): with shedding, at 4x offered overload the daemon must
// keep delivering at least 70% of its un-overloaded goodput inside the
// budget, instead of collapsing into an ever-growing queue.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "rpc/rpc_client.hpp"
#include "rpc/rpc_server.hpp"
#include "service/thread_pool.hpp"
#include "threshold/ro_scheme.hpp"

using namespace bnr;
using Clock = std::chrono::steady_clock;

namespace {

constexpr auto kBudget = std::chrono::milliseconds(100);
constexpr size_t kPool = 64;

struct OverloadResult {
  uint64_t offered = 0;
  uint64_t good = 0;      // ok AND within budget of scheduled issue
  uint64_t late_ok = 0;   // ok but past the budget (no-shed backlog)
  uint64_t rejected = 0;  // BUSY/SHED/deadline — attributable fast failures
  double p99_us = 0;      // latency of good completions, from scheduled time
};

/// Offers `rate_rps` for `duration`, spread over `gens` generator threads
/// each with its own client session. `deadline` <= 0 means no budget on the
/// wire (the no-shed mode); goodput is still judged against kBudget.
OverloadResult offer_load(uint16_t port, double rate_rps,
                          std::chrono::milliseconds duration, bool budgets,
                          const std::vector<Bytes>& msgs,
                          const std::vector<Bytes>& sig_bytes,
                          size_t gens = 2) {
  OverloadResult res;
  std::atomic<uint64_t> good{0}, late_ok{0}, rejected{0}, issued{0}, done{0};
  std::mutex lat_m;
  std::vector<double> lat_us;

  std::vector<std::thread> threads;
  for (size_t g = 0; g < gens; ++g) {
    threads.emplace_back([&, g] {
      rpc::ClientConfig ccfg;
      ccfg.drain_timeout = std::chrono::milliseconds(500);
      rpc::RpcClient client("127.0.0.1", port, ccfg);
      rpc::RequestOptions opts;
      // SHED mode: the 100 ms budget rides the wire and retries are off —
      // an admission BUSY is a final, cheap answer. NO-SHED mode: no
      // deadline at all, the request queues however long it queues.
      opts.deadline = budgets ? kBudget : std::chrono::milliseconds(0);
      opts.max_attempts = 1;

      const double interval_ns = 1e9 / (rate_rps / double(gens));
      auto start = Clock::now();
      auto end = start + duration;
      uint64_t k = 0;
      for (;;) {
        auto sched = start + std::chrono::nanoseconds(
                                 uint64_t(double(k) * interval_ns));
        if (sched >= end) break;
        // Open-loop: wait until the scheduled instant, but if we are behind
        // (server pushback stalling the writer), fire immediately — the
        // offered rate is the experiment's independent variable.
        std::this_thread::sleep_until(sched);
        size_t r = (g * 7919 + k) % kPool;
        ++issued;
        try {
          client.verify_async(
              "tenant", msgs[r], sig_bytes[r],
              [&, sched](bool ok, std::exception_ptr err) {
                auto now = Clock::now();
                if (!err && ok && now - sched <= kBudget) {
                  ++good;
                  double us = std::chrono::duration<double, std::micro>(
                                  now - sched)
                                  .count();
                  std::lock_guard<std::mutex> l(lat_m);
                  lat_us.push_back(us);
                } else if (!err && ok) {
                  ++late_ok;
                } else {
                  ++rejected;
                }
                ++done;
              },
              opts);
        } catch (const std::exception&) {
          ++rejected;  // session refused the request outright
          ++done;
        }
        ++k;
      }
      // Drain: with budgets every callback fires within ~kBudget; without,
      // the backlog must actually be served. Bounded so a wedged run still
      // reports (the client destructor then fails the stragglers).
      auto give_up = Clock::now() + std::chrono::seconds(30);
      while (done.load() < issued.load() && Clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
  }
  for (auto& t : threads) t.join();

  res.offered = issued.load();
  res.good = good.load();
  res.late_ok = late_ok.load();
  res.rejected = rejected.load();
  std::lock_guard<std::mutex> l(lat_m);
  if (!lat_us.empty()) {
    std::sort(lat_us.begin(), lat_us.end());
    res.p99_us = lat_us[size_t(double(lat_us.size()) * 0.99)];
  }
  return res;
}

volatile bool sink = false;

}  // namespace

int main() {
  bench::JsonWriter out("BENCH_e14.json");
  bench::header("goodput under overload (E14)");

  const std::string label = "e14-overload/v1";
  threshold::RoScheme scheme(threshold::SystemParams::derive(label));
  Rng rng("e14-rng");
  auto km = scheme.dist_keygen(3, 1, rng);

  std::vector<Bytes> msgs;
  std::vector<Bytes> sig_bytes;
  std::vector<threshold::Signature> sigs;
  for (size_t j = 0; j < kPool; ++j) {
    msgs.push_back(to_bytes("e14 req " + std::to_string(j)));
    std::vector<threshold::PartialSignature> parts;
    for (uint32_t i = 1; i <= km.t + 1; ++i)
      parts.push_back(scheme.share_sign(km.shares[i - 1], msgs.back()));
    sigs.push_back(scheme.combine_unchecked(km.t, parts));
    sig_bytes.push_back(sigs.back().serialize());
  }

  const service::BatchPolicy policy{.max_batch = 32,
                                    .max_delay = std::chrono::milliseconds(2)};

  // ---- NO-SHED daemon: the pre-admission-control configuration. ----------
  service::ThreadPool noshed_pool;
  rpc::ServerConfig noshed_cfg;
  noshed_cfg.port = 0;
  noshed_cfg.params_label = label;
  noshed_cfg.cache_bytes = size_t(64) << 20;
  noshed_cfg.batch = policy;
  noshed_cfg.max_in_flight = uint64_t(1) << 30;  // effectively uncapped
  rpc::RpcServer noshed(noshed_cfg, noshed_pool);
  std::thread noshed_thread([&] { noshed.run(); });
  {
    rpc::RpcClient reg("127.0.0.1", noshed.port());
    reg.register_ro_committee("tenant", km).get();
    reg.verify_sync("tenant", msgs[0], sigs[0]);  // warm the prepared entry
  }

  // ---- Closed-loop capacity G0 (4 pipelined connections, window 64). -----
  double g0_rps;
  {
    constexpr size_t kConns = 4, kReqs = 2400;
    std::vector<std::thread> threads;
    double ms = bench::time_ms([&] {
      for (size_t c = 0; c < kConns; ++c)
        threads.emplace_back([&, c] {
          rpc::RpcClient client("127.0.0.1", noshed.port());
          std::deque<std::future<bool>> window;
          bool ok = true;
          for (size_t j = 0; j < kReqs / kConns; ++j) {
            if (window.size() >= 64) {
              ok = ok && window.front().get();
              window.pop_front();
            }
            size_t r = (c * 601 + j) % kPool;
            window.push_back(client.verify("tenant", msgs[r], sigs[r]));
          }
          while (!window.empty()) {
            ok = ok && window.front().get();
            window.pop_front();
          }
          sink = !ok;
        });
      for (auto& t : threads) t.join();
    });
    g0_rps = double(kReqs) / (ms / 1e3);
    out.record("overload/capacity_g0_rps", g0_rps);
    printf("closed-loop capacity G0: %8.0f req/s\n", g0_rps);
  }

  // ---- SHED daemon: cap sized so admitted work clears WELL within the
  // budget. ~25 ms of capacity in flight leaves most of every 100 ms budget
  // for batching delay + scheduling jitter — sitting at ~100 ms of in-flight
  // work would park every admitted request exactly at the shed cliff, where
  // tiny capacity drift flips goodput into in-service sheds.
  service::ThreadPool shed_pool;
  rpc::ServerConfig shed_cfg = noshed_cfg;
  shed_cfg.batch.max_batch = 16;  // full utilization at a shallow in-flight
  shed_cfg.max_in_flight =
      std::max<uint64_t>(16, uint64_t(g0_rps * 0.025));
  rpc::RpcServer shed(shed_cfg, shed_pool);
  std::thread shed_thread([&] { shed.run(); });
  {
    rpc::RpcClient reg("127.0.0.1", shed.port());
    reg.register_ro_committee("tenant", km).get();
    reg.verify_sync("tenant", msgs[0], sigs[0]);
  }
  printf("shed daemon in-flight cap: %llu\n",
         (unsigned long long)shed_cfg.max_in_flight);

  const auto kWindow = std::chrono::milliseconds(1200);
  const double window_s = std::chrono::duration<double>(kWindow).count();

  // ---- Un-overloaded baseline B: 1.0x G0 through the shed daemon. --------
  double baseline_rps;
  {
    OverloadResult r = offer_load(shed.port(), 1.0 * g0_rps, kWindow,
                                  /*budgets=*/true, msgs, sig_bytes);
    baseline_rps = double(r.good) / window_s;
    out.record("overload/goodput_baseline_rps", baseline_rps);
    printf("  shed    1x offered: good %6llu / %6llu (baseline B, "
           "p99 %.0f us)\n",
           (unsigned long long)r.good, (unsigned long long)r.offered,
           r.p99_us);
  }

  const double overload[] = {2, 4, 10};
  double retention_4x = 0;
  for (double k : overload) {
    OverloadResult r = offer_load(shed.port(), k * g0_rps, kWindow,
                                  /*budgets=*/true, msgs, sig_bytes);
    double goodput = double(r.good) / window_s;
    double retention = 100.0 * goodput / baseline_rps;
    if (k == 4) retention_4x = retention;
    char name[64];
    snprintf(name, sizeof(name), "overload/goodput_retention_pct_%.0fx", k);
    out.record(name, retention);
    if (k == 4) out.record("overload/p99_us_4x_shed", r.p99_us);
    printf("  shed   %4.0fx offered: good %6llu / %6llu (%.0f%% of B, "
           "rejected %llu, late %llu, p99 %.0f us)\n",
           k, (unsigned long long)r.good, (unsigned long long)r.offered,
           retention, (unsigned long long)r.rejected,
           (unsigned long long)r.late_ok, r.p99_us);
  }

  // ---- The contrast: 4x offered, no admission control, no budgets. -------
  {
    OverloadResult r = offer_load(noshed.port(), 4 * g0_rps, kWindow,
                                  /*budgets=*/false, msgs, sig_bytes);
    double goodput = double(r.good) / window_s;
    double retention = 100.0 * goodput / baseline_rps;
    out.record("overload/goodput_retention_pct_4x_noshed", retention);
    out.record("overload/p99_us_4x_noshed", r.p99_us);
    printf("  noshed    4x offered: good %6llu / %6llu (%.0f%% of B, "
           "late %llu, p99 %.0f us)\n",
           (unsigned long long)r.good, (unsigned long long)r.offered,
           retention, (unsigned long long)r.late_ok, r.p99_us);
  }

  auto health = shed.snapshot_health();
  auto st = shed.snapshot_stats();
  printf("shed daemon: busy_inflight %llu, shed_arrival %llu, "
         "shed_in_service %llu; service %llu submitted = %llu accepted + "
         "%llu rejected + %llu shed\n",
         (unsigned long long)health.busy_inflight,
         (unsigned long long)health.shed_arrival,
         (unsigned long long)health.shed_in_service,
         (unsigned long long)st.verify_submitted,
         (unsigned long long)st.verify_accepted,
         (unsigned long long)st.verify_rejected,
         (unsigned long long)st.verify_sheds);
  printf("4x retention with shedding: %.0f%% (gate: >= 70%%)\n",
         retention_4x);

  shed.stop();
  shed_thread.join();
  noshed.stop();
  noshed_thread.join();
  out.flush();
  return 0;
}
