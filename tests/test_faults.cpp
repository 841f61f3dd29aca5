// Chaos suite for the overload-resilient RPC stack: the deterministic
// FaultInjector's schedules (seeded, reproducible with BNR_FAULT_SEED),
// deadline budgets on the wire and in the service, admission control
// (in-flight cap + per-connection token bucket -> BUSY, spent budgets ->
// SHED), the client's retry/reconnect machinery, crash-restart
// reconciliation on the same port, and bounded teardown against a stalled
// server. The invariants throughout: NO hang, NO crash, NO double
// completion, and exact accounting — every submitted request is attributable
// to exactly one of {answered, rejected, shed, failed locally}.
//
// Runs in the ASan and TSan CI matrices: the injector's hooks sit on the
// event-loop, reader, keeper, and pool-worker threads all at once.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "fixtures.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "rpc/fault_injector.hpp"
#include "rpc/rpc_client.hpp"
#include "rpc/rpc_server.hpp"

namespace bnr {
namespace {

using namespace bnr::rpc;
using namespace bnr::threshold;
using namespace std::chrono_literals;
using testfx::LiveDaemon;
using testfx::RawConn;

uint64_t fault_seed() {
  if (const char* env = std::getenv("BNR_FAULT_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 0xB02A60ED5EEDULL;
}

/// Installs an injector for one test scope and guarantees removal — the
/// hook registry is process-global and the suites share a process. The
/// injector object itself is kept alive for the PROCESS lifetime (reachable
/// through a static registry, so leak checkers stay quiet): install(nullptr)
/// only clears the hook pointer and does not wait for threads already
/// inside a hook, so a stack-allocated injector would be a use-after-scope
/// under exactly the thread timings this suite provokes.
struct ScopedInjector {
  FaultInjector* inj;
  ScopedInjector(uint64_t seed, const FaultSpec& spec) {
    static auto* keep = new std::vector<std::unique_ptr<FaultInjector>>();
    keep->push_back(std::make_unique<FaultInjector>(seed, spec));
    inj = keep->back().get();
    FaultInjector::install(inj);
  }
  ~ScopedInjector() { FaultInjector::install(nullptr); }
};

// ---------------------------------------------------------------------------
// Injector units: determinism, parsing, guaranteed reset offsets

TEST(FaultInjector, SpecParsing) {
  FaultSpec s = FaultSpec::parse(
      "short_read=0.25,short_write=0.5,eagain=0.1,reset=0.01,"
      "accept_fail=0.2,frame_delay_p=0.3,frame_delay_us=150,"
      "task_delay_p=0.4,task_delay_us=250,reset_after=4096");
  EXPECT_DOUBLE_EQ(s.short_read, 0.25);
  EXPECT_DOUBLE_EQ(s.short_write, 0.5);
  EXPECT_DOUBLE_EQ(s.eagain, 0.1);
  EXPECT_DOUBLE_EQ(s.reset, 0.01);
  EXPECT_DOUBLE_EQ(s.accept_fail, 0.2);
  EXPECT_DOUBLE_EQ(s.frame_delay_p, 0.3);
  EXPECT_EQ(s.frame_delay_us, 150u);
  EXPECT_DOUBLE_EQ(s.task_delay_p, 0.4);
  EXPECT_EQ(s.task_delay_us, 250u);
  EXPECT_EQ(s.reset_after, 4096u);

  // Defaults: everything off.
  FaultSpec off = FaultSpec::parse("");
  EXPECT_DOUBLE_EQ(off.short_read, 0.0);
  EXPECT_EQ(off.reset_after, 0u);

  // A typo must fail loudly, not silently test nothing.
  EXPECT_THROW(FaultSpec::parse("shortread=0.5"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("eagain=lots"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("eagain"), std::invalid_argument);
}

TEST(FaultInjector, PerSiteStreamsAreInterleavingIndependent) {
  FaultSpec spec = FaultSpec::parse("short_read=0.4,eagain=0.2,reset=0.1");
  constexpr int kN = 512;

  // Injector A consumes the three sites round-robin; injector B consumes
  // them site-major. Same seed -> identical per-site fault sequences, which
  // is exactly the property that makes a seed a reproduce recipe under
  // nondeterministic thread interleavings.
  auto draw = [](FaultInjector& f, FaultInjector::Site s) {
    size_t len = 64;
    return f.on_io(s, len);
  };
  const FaultInjector::Site sites[] = {FaultInjector::kServerRead,
                                       FaultInjector::kClientRead,
                                       FaultInjector::kServerWrite};
  std::vector<FaultInjector::IoFault> a_seq[3], b_seq[3];
  FaultInjector a(fault_seed(), spec);
  for (int k = 0; k < kN; ++k)
    for (int s = 0; s < 3; ++s) a_seq[s].push_back(draw(a, sites[s]));
  FaultInjector b(fault_seed(), spec);
  for (int s = 0; s < 3; ++s)
    for (int k = 0; k < kN; ++k) b_seq[s].push_back(draw(b, sites[s]));
  for (int s = 0; s < 3; ++s) EXPECT_EQ(a_seq[s], b_seq[s]);

  // A different seed produces a different schedule (overwhelmingly).
  FaultInjector c(fault_seed() + 1, spec);
  std::vector<FaultInjector::IoFault> c_seq;
  for (int k = 0; k < kN; ++k) c_seq.push_back(draw(c, sites[0]));
  EXPECT_NE(a_seq[0], c_seq);

  // counts() tallies exactly what the streams reported.
  FaultInjector::Counts counts = a.counts();
  uint64_t shorts = 0, eagains = 0, resets = 0;
  for (const auto& seq : a_seq)
    for (auto f : seq) {
      shorts += f == FaultInjector::IoFault::kShort;
      eagains += f == FaultInjector::IoFault::kEagain;
      resets += f == FaultInjector::IoFault::kReset;
    }
  EXPECT_EQ(counts.short_io, shorts);
  EXPECT_EQ(counts.eagain, eagains);
  EXPECT_EQ(counts.resets, resets);
  EXPECT_GT(shorts, 0u);  // the spec's probabilities actually fire
  EXPECT_GT(eagains, 0u);
  EXPECT_GT(resets, 0u);
}

TEST(FaultInjector, ResetAfterFiresExactlyOnceAtTheOffset) {
  FaultSpec spec = FaultSpec::parse("reset_after=1000");
  FaultInjector f(fault_seed(), spec);
  size_t len = 600;
  EXPECT_EQ(f.on_io(FaultInjector::kServerWrite, len),
            FaultInjector::IoFault::kNone);  // 600 bytes: not yet
  len = 600;
  EXPECT_EQ(f.on_io(FaultInjector::kServerWrite, len),
            FaultInjector::IoFault::kReset);  // crosses 1000
  for (int k = 0; k < 32; ++k) {
    len = 600;
    EXPECT_EQ(f.on_io(FaultInjector::kServerWrite, len),
              FaultInjector::IoFault::kNone);  // never again
  }
  EXPECT_EQ(f.counts().resets, 1u);
}

// ---------------------------------------------------------------------------
// Wire units for the overload extensions

TEST(WireOverload, BudgetBitRoundTripsAndStaysBackCompat) {
  VerifyRequest v{"tenant", to_bytes("m"), to_bytes("s")};
  // Without a budget the encoding is byte-identical to the pre-budget wire.
  Bytes plain = encode_verify(7, v);
  EXPECT_EQ(plain[0], static_cast<uint8_t>(Method::kVerify));
  ByteReader rd0(plain);
  EXPECT_FALSE(decode_request_header(rd0).budget_ms.has_value());

  Bytes budgeted = encode_verify(7, v, 250);
  EXPECT_EQ(budgeted[0],
            static_cast<uint8_t>(Method::kVerify) | kMethodBudgetBit);
  EXPECT_EQ(budgeted.size(), plain.size() + 4);
  ByteReader rd1(budgeted);
  RequestHeader h = decode_request_header(rd1);
  ASSERT_TRUE(h.budget_ms.has_value());
  EXPECT_EQ(*h.budget_ms, 250u);
  VerifyRequest d = decode_verify(rd1);
  EXPECT_EQ(d.key, v.key);
}

TEST(WireOverload, RejectionAndHealthRoundTrip) {
  Bytes busy = encode_rejection(9, Status::kBusy, "try later");
  ByteReader rd(busy);
  ResponseHeader h = decode_response_header(rd);
  EXPECT_EQ(h.status, Status::kBusy);
  EXPECT_EQ(h.request_id, 9u);
  EXPECT_EQ(decode_str(rd), "try later");

  Bytes shed = encode_rejection(10, Status::kShed, "budget spent");
  ByteReader rd2(shed);
  EXPECT_EQ(decode_response_header(rd2).status, Status::kShed);

  // Golden bytes: each field set by name to a distinct value that encodes
  // its documented position k (bytes 01 .. 01 k, so a byte swap shows too),
  // and the body written out in docs/wire-protocol.md's order.
  auto golden = [](uint64_t k) { return 0x0101010101010100ull + k; };
  HealthStats in;
  in.in_flight = golden(1);
  in.inflight_cap = golden(2);
  in.queue_depth = golden(3);
  in.busy_inflight = golden(4);
  in.busy_ratelimit = golden(5);
  in.shed_arrival = golden(6);
  in.shed_in_service = golden(7);
  ByteWriter want;
  for (uint64_t k = 1; k <= 7; ++k) want.u64(golden(k));
  const Bytes golden_body = want.take();
  EXPECT_EQ(encode_health(in), golden_body);
  ByteReader rd3(golden_body);
  HealthStats out = decode_health(rd3);
  EXPECT_TRUE(rd3.empty());
  EXPECT_EQ(encode_health(out), golden_body);  // the decoder inverts it
  EXPECT_EQ(out.in_flight, golden(1));
  EXPECT_EQ(out.shed_in_service, golden(7));
}

// ---------------------------------------------------------------------------
// Live daemons with per-test server configs

constexpr const char* kLabel = "rpc-faults/v1";

class FaultsTest : public testfx::RoSchemeFixture {
 protected:
  FaultsTest() : testfx::RoSchemeFixture(kLabel) {}
};

// A request whose wire budget is already zero on arrival is shed before any
// body decode or service work; a control-plane PING rides free regardless.
TEST_F(FaultsTest, SpentBudgetIsShedOnArrival) {
  LiveDaemon d(testfx::daemon_config(kLabel));
  auto km = keygen(3, 1);
  {
    RpcClient reg("127.0.0.1", d.port());
    EXPECT_FALSE(reg.register_ro_committee("acme", km).get());
  }
  auto [msg, sig] = make_signed(km, "arrival shed");

  VerifyRequest req{"acme", msg, sig.serialize()};
  Bytes resp = RawConn(d.port()).round_trip(encode_verify(1, req, 0u));
  ASSERT_FALSE(resp.empty());
  ByteReader rd(resp);
  ResponseHeader h = decode_response_header(rd);
  EXPECT_EQ(h.status, Status::kShed);
  EXPECT_EQ(h.request_id, 1u);

  Bytes ping =
      RawConn(d.port()).round_trip(encode_empty_request(Method::kPing, 2, 0u));
  ASSERT_FALSE(ping.empty());
  ByteReader rd2(ping);
  EXPECT_EQ(decode_response_header(rd2).status, Status::kOk);

  HealthStats health = d.server().snapshot_health();
  EXPECT_EQ(health.shed_arrival, 1u);
  // The shed request never reached the verification service.
  EXPECT_EQ(d.server().snapshot_stats().verify_submitted, 0u);
}

// A deadline shorter than the batch window: the service drops the request
// BEFORE paying a prepare or pairing for it, the client surfaces
// DeadlineExceeded, and the accounting splits submitted into
// accepted + rejected + deadline_sheds exactly.
TEST_F(FaultsTest, ServiceShedsExpiredDeadlinesBeforeTheFold) {
  ServerConfig cfg = testfx::daemon_config(kLabel);
  cfg.batch.max_delay = 60ms;   // every sub-60ms deadline expires in queue
  cfg.batch.adaptive = false;   // pool-idle flush would beat the deadline
  LiveDaemon d(cfg);
  auto km = keygen(3, 1);
  RpcClient client("127.0.0.1", d.port());
  EXPECT_FALSE(client.register_ro_committee("acme", km).get());
  auto [msg, sig] = make_signed(km, "service shed");

  RequestOptions tight;
  tight.deadline = 5ms;
  tight.max_attempts = 1;
  auto doomed = client.verify("acme", msg, sig, tight);
  EXPECT_THROW(doomed.get(), DeadlineExceeded);

  // The shed is attributed server-side too, once the flush timer fires.
  DaemonStats st;
  for (int spin = 0; spin < 100; ++spin) {
    st = d.server().snapshot_stats();
    if (st.verify_sheds > 0) break;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(st.verify_submitted, 1u);
  EXPECT_EQ(st.verify_sheds, 1u);
  EXPECT_EQ(st.verify_accepted + st.verify_rejected + st.verify_sheds,
            st.verify_submitted);
  EXPECT_EQ(client.client_stats().deadline_local + client.client_stats().shed,
            1u);

  // A sane deadline on the same connection still verifies.
  RequestOptions sane;
  sane.deadline = 5000ms;
  EXPECT_TRUE(client.verify("acme", msg, sig, sane).get());
}

// METRICS carries the in-service shed counter twice, as
// bnr_verify_sheds_total and bnr_shed_in_service_total. Both come from one
// service snapshot, so they agree in every scrape, also while the service
// is shedding.
TEST_F(FaultsTest, MetricsShedSeriesAgreeWhileShedding) {
  ServerConfig cfg = testfx::daemon_config(kLabel);
  cfg.batch.max_delay = 20ms;   // every 5ms deadline expires in queue
  cfg.batch.adaptive = false;   // pool-idle flush would beat the deadline
  LiveDaemon d(cfg);
  auto km = keygen(3, 1);
  RpcClient client("127.0.0.1", d.port());
  EXPECT_FALSE(client.register_ro_committee("acme", km).get());
  auto [msg, sig] = make_signed(km, "scrape while shedding");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> unexpected{0};
  std::thread load([&] {
    RequestOptions tight;
    tight.deadline = 5ms;
    tight.max_attempts = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<std::future<bool>> futs;
      for (int j = 0; j < 8; ++j)
        futs.push_back(client.verify("acme", msg, sig, tight));
      for (auto& f : futs) {
        try {
          f.get();
        } catch (const DeadlineExceeded&) {
        } catch (...) {
          unexpected.fetch_add(1);
        }
      }
    }
  });

  RpcClient probe("127.0.0.1", d.port());
  uint64_t sheds = 0;
  for (int scrape = 0; scrape < 200; ++scrape) {
    const obs::MetricsSnapshot m = probe.metrics_sync(0);
    const obs::MetricPoint* stats = m.find_point("bnr_verify_sheds_total");
    const obs::MetricPoint* health = m.find_point("bnr_shed_in_service_total");
    ASSERT_NE(stats, nullptr);
    ASSERT_NE(health, nullptr);
    ASSERT_EQ(stats->value, health->value) << "scrape " << scrape;
    sheds = stats->value;
    std::this_thread::sleep_for(1ms);
  }
  stop.store(true);
  load.join();
  EXPECT_GT(sheds, 0u);  // the scrapes overlapped in-service shedding
  EXPECT_EQ(unexpected.load(), 0u);
}

// The global in-flight cap turns overload into attributable BUSY responses:
// a no-retry client sees RetriesExhausted, a retrying client rides out the
// congestion, and the connection never tears down.
TEST_F(FaultsTest, InFlightCapSendsBusyAndRetriesRecover) {
  ServerConfig cfg = testfx::daemon_config(kLabel);
  cfg.max_in_flight = 1;
  cfg.batch.max_delay = 40ms;   // the first request camps on the only slot
  cfg.batch.adaptive = false;   // idle flush would free the slot instantly
  LiveDaemon d(cfg);
  auto km = keygen(3, 1);

  ClientConfig ccfg;
  ccfg.retry.initial_backoff = 10ms;
  ccfg.retry.max_attempts = 10;
  RpcClient client("127.0.0.1", d.port(), ccfg);
  EXPECT_FALSE(client.register_ro_committee("acme", km).get());
  auto [msg, sig] = make_signed(km, "busy");

  // Pipelined: #1 occupies the slot for the whole 40ms batch window, so #2
  // is deterministically rejected at admission.
  auto first = client.verify("acme", msg, sig);
  RequestOptions no_retry;
  no_retry.max_attempts = 1;
  auto rejected = client.verify("acme", msg, sig, no_retry);
  EXPECT_THROW(rejected.get(), RetriesExhausted);
  EXPECT_TRUE(first.get());

  // With the session's retry budget, the same overload pattern recovers.
  auto camped = client.verify("acme", msg, sig);
  auto retried = client.verify("acme", msg, sig);
  EXPECT_TRUE(camped.get());
  EXPECT_TRUE(retried.get());

  HealthStats health = client.health_sync();
  EXPECT_EQ(health.inflight_cap, 1u);
  EXPECT_GE(health.busy_inflight, 1u);
  ClientStats cs = client.client_stats();
  EXPECT_GE(cs.busy, 1u);
  EXPECT_GE(cs.retries, 1u);
  EXPECT_EQ(cs.exhausted, 1u);
  // BUSY is observed by the client exactly as often as the server sent it.
  EXPECT_EQ(cs.busy, health.busy_inflight + health.busy_ratelimit);
}

// Per-connection token bucket: a burst over the bucket is rejected BUSY
// (exact counts both sides), and a retrying client drains the whole burst
// through the refill rate.
TEST_F(FaultsTest, ConnectionRateLimitBusyWithExactAccounting) {
  auto km = keygen(3, 1);
  {
    // No-retry client: 4 back-to-back verifies, bucket of 2 -> exactly 2
    // BUSY. (REGISTER is control-plane: not charged.) The bucket refills
    // one token per 100 s, so however the 4 verifies are scheduled, none
    // can be admitted by a refill during the test.
    ServerConfig cfg = testfx::daemon_config(kLabel);
    cfg.conn_rate_limit = 0.01;
    cfg.conn_rate_burst = 2;
    LiveDaemon d(cfg);
    ClientConfig ccfg;
    ccfg.retry.max_attempts = 1;
    RpcClient client("127.0.0.1", d.port(), ccfg);
    EXPECT_FALSE(client.register_ro_committee("acme", km).get());
    auto [msg, sig] = make_signed(km, "rate limit");
    std::vector<std::future<bool>> futs;
    for (int j = 0; j < 4; ++j) futs.push_back(client.verify("acme", msg, sig));
    int ok = 0, busy = 0;
    for (auto& f : futs) {
      try {
        EXPECT_TRUE(f.get());
        ++ok;
      } catch (const RetriesExhausted&) {
        ++busy;
      }
    }
    EXPECT_EQ(ok, 2);
    EXPECT_EQ(busy, 2);
    EXPECT_EQ(client.client_stats().busy, 2u);
    HealthStats health = d.server().snapshot_health();
    EXPECT_EQ(health.busy_ratelimit, 2u);
  }
  {
    // Retrying client against a bucket that refills fast enough to finish
    // the test: a burst of 10 all lands eventually through backoff + refill.
    // So does a BATCH_VERIFY of 3 items against the bucket of 2: it is
    // admitted once the bucket is full and runs the bucket into debt.
    ServerConfig cfg = testfx::daemon_config(kLabel);
    cfg.conn_rate_limit = 50;
    cfg.conn_rate_burst = 2;
    LiveDaemon d(cfg);
    ClientConfig ccfg;
    ccfg.retry.max_attempts = 12;
    ccfg.retry.initial_backoff = 20ms;
    ccfg.retry.max_backoff = 100ms;
    RpcClient client("127.0.0.1", d.port(), ccfg);
    EXPECT_FALSE(client.register_ro_committee("acme", km).get());
    auto [msg, sig] = make_signed(km, "rate limit");
    std::vector<std::future<bool>> futs;
    for (int j = 0; j < 10; ++j)
      futs.push_back(client.verify("acme", msg, sig));
    for (auto& f : futs) EXPECT_TRUE(f.get());
    const std::vector<std::pair<Bytes, Signature>> items(3, {msg, sig});
    EXPECT_EQ(client.batch_verify("acme", items).get(),
              std::vector<bool>(3, true));
    const ClientStats cs = client.client_stats();
    EXPECT_GE(cs.retries, 1u);
    EXPECT_GE(cs.busy, 1u);
    EXPECT_EQ(cs.busy, d.server().snapshot_health().busy_ratelimit);
  }
}

// Short reads, short writes, EAGAIN storms, and injected delays on every
// socket path at once: no request is lost, no answer is wrong, and the
// accounting still balances exactly.
TEST_F(FaultsTest, ShortIoAndDelayChaosLosesNothing) {
  LiveDaemon d(testfx::daemon_config(kLabel));
  auto km = keygen(3, 1);
  RpcClient client("127.0.0.1", d.port());
  EXPECT_FALSE(client.register_ro_committee("acme", km).get());
  auto [msg, sig] = make_signed(km, "short io chaos");
  Signature bad = forge(sig);

  constexpr int kReqs = 160;
  FaultSpec spec = FaultSpec::parse(
      "short_read=0.25,short_write=0.25,eagain=0.15,"
      "frame_delay_p=0.1,frame_delay_us=200,task_delay_p=0.2,"
      "task_delay_us=300");
  ScopedInjector chaos(fault_seed(), spec);

  std::vector<std::pair<std::future<bool>, bool>> futs;
  for (int j = 0; j < kReqs; ++j) {
    bool valid = j % 3 != 0;
    futs.emplace_back(client.verify("acme", msg, valid ? sig : bad), valid);
  }
  for (auto& [f, expect] : futs) EXPECT_EQ(f.get(), expect);

  auto counts = chaos.inj->counts();
  EXPECT_GT(counts.short_io + counts.eagain, 0u);  // the chaos actually ran
  const DaemonStats st = d.server().snapshot_stats();
  EXPECT_EQ(st.verify_submitted, uint64_t(kReqs));
  EXPECT_EQ(st.verify_accepted + st.verify_rejected, st.verify_submitted);
  ClientStats cs = client.client_stats();
  EXPECT_EQ(cs.sent, uint64_t(kReqs) + 1);  // + the registration
  EXPECT_EQ(cs.retries, 0u);  // nothing died, so nothing was resent
}

// Connection resets at seeded points on every socket site: every request
// completes EXACTLY once (value or attributable error), the client's
// reconnect machinery heals the session, and the daemon survives to serve
// clean traffic afterwards.
TEST_F(FaultsTest, ResetChaosCompletesEveryRequestExactlyOnce) {
  LiveDaemon d(testfx::daemon_config(kLabel));
  auto km = keygen(3, 1);
  ClientConfig ccfg;
  ccfg.retry.max_attempts = 8;
  ccfg.retry.initial_backoff = 2ms;
  ccfg.retry.max_backoff = 40ms;
  RpcClient client("127.0.0.1", d.port(), ccfg);
  EXPECT_FALSE(client.register_ro_committee("acme", km).get());
  auto [msg, sig] = make_signed(km, "reset chaos");

  constexpr int kReqs = 120;
  std::vector<std::atomic<int>> completions(kReqs);
  std::atomic<int> done{0}, wrong{0};
  {
    FaultSpec spec = FaultSpec::parse(
        "reset=0.004,short_read=0.15,short_write=0.15,eagain=0.1");
    ScopedInjector chaos(fault_seed(), spec);
    for (int j = 0; j < kReqs; ++j) {
      client.verify_async(
          "acme", msg, sig.serialize(),
          [&, j](bool ok, std::exception_ptr err) {
            completions[j].fetch_add(1);
            if (!err && !ok) wrong.fetch_add(1);
            done.fetch_add(1);
          });
    }
    // No hang: every callback fires within the suite's patience, faults on.
    for (int spin = 0; spin < 2000 && done.load() < kReqs; ++spin)
      std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(done.load(), kReqs);
  EXPECT_EQ(wrong.load(), 0);
  // Settle, then re-check: NO double completion, even from late responses.
  std::this_thread::sleep_for(50ms);
  for (int j = 0; j < kReqs; ++j) EXPECT_EQ(completions[j].load(), 1);

  // Chaos off: the same session (reconnected as needed) serves cleanly.
  RequestOptions sane;
  sane.max_attempts = 8;
  EXPECT_TRUE(client.verify("acme", msg, sig, sane).get());
}

// Accept-storm chaos: dropped accepts cost clients a connection attempt but
// never wedge the listener; once the storm passes, connects succeed.
TEST_F(FaultsTest, AcceptFailuresDoNotWedgeTheListener) {
  LiveDaemon d(testfx::daemon_config(kLabel));
  {
    FaultSpec spec = FaultSpec::parse("accept_fail=0.5");
    ScopedInjector chaos(fault_seed(), spec);
    int connected = 0;
    for (int j = 0; j < 12; ++j) {
      try {
        ClientConfig ccfg;
        ccfg.auto_reconnect = false;
        RpcClient c("127.0.0.1", d.port(), ccfg);
        c.ping().get();
        ++connected;
      } catch (const std::exception&) {
        // Dropped by the storm: connect succeeded TCP-wise but the daemon
        // closed immediately; the ping future fails fast, no hang.
      }
    }
    EXPECT_GT(chaos.inj->counts().accept_fails, 0u);
    EXPECT_GT(connected, 0);  // p=0.5 cannot eat all 12 (seeded schedule)
  }
  RpcClient after("127.0.0.1", d.port());
  after.ping().get();
  EXPECT_FALSE(after.closed());
}

// Crash-restart reconciliation: the daemon dies mid-pipeline and comes back
// on the SAME port; every pre-crash promise completes exactly once (answer
// or attributable error), the client reconnects, re-registers, and serves.
TEST_F(FaultsTest, CrashRestartReconcilesOnTheSamePort) {
  auto km = keygen(3, 1);
  ServerConfig cfg = testfx::daemon_config(kLabel);
  // Multi-loop on both sides of the crash: the restart rebinds all four
  // SO_REUSEPORT listeners to the SAME fixed port the first daemon held.
  cfg.io_threads = 4;
  auto first = std::make_unique<LiveDaemon>(cfg);
  uint16_t port = first->port();

  ClientConfig ccfg;
  ccfg.retry.max_attempts = 60;  // survives the restart gap
  ccfg.retry.initial_backoff = 5ms;
  ccfg.retry.max_backoff = 40ms;
  RpcClient client("127.0.0.1", port, ccfg);
  EXPECT_FALSE(client.register_ro_committee("acme", km).get());
  auto [msg, sig] = make_signed(km, "crash restart");

  constexpr int kPreCrash = 24;
  std::vector<std::future<bool>> futs;
  for (int j = 0; j < kPreCrash; ++j)
    futs.push_back(client.verify("acme", msg, sig));
  first->stop();  // mid-pipeline: some answered, some in flight
  first.reset();

  // Restart on the same port while the client's keeper is reconnecting.
  cfg.port = port;
  LiveDaemon second(cfg);
  ASSERT_EQ(second.port(), port);

  // Every pre-crash promise completes exactly once and within bounds: a
  // real answer (served before the crash) or an attributable error (the
  // retry landed on the restarted daemon, which does not know the tenant).
  int answered = 0, rpc_errors = 0, other = 0;
  for (auto& f : futs) {
    try {
      EXPECT_TRUE(f.get());
      ++answered;
    } catch (const RpcError&) {
      ++rpc_errors;  // DeadlineExceeded / RetriesExhausted derive from this
    } catch (const std::exception&) {
      ++other;  // ProtocolError et al: still exactly-once, still attributable
    }
  }
  EXPECT_EQ(answered + rpc_errors + other, kPreCrash);

  // Reconciliation: re-register on the SAME client session, then verify.
  EXPECT_FALSE(client.register_ro_committee("acme", km).get());
  RequestOptions opts;
  opts.max_attempts = 8;
  EXPECT_TRUE(client.verify("acme", msg, sig, opts).get());
  EXPECT_GE(client.client_stats().reconnects, 1u);
  EXPECT_FALSE(client.closed());
}

// A server that accepts but never answers cannot wedge the client: deadlines
// fail the futures in bounded time, and close() / the destructor drains for
// at most drain_timeout before failing the rest.
TEST_F(FaultsTest, StalledServerBoundsDeadlinesAndTeardown) {
  // Raw acceptor that parks every connection unread.
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  int one = 1;
  ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  uint16_t port = ntohs(addr.sin_port);
  ASSERT_EQ(::listen(lfd, 8), 0);
  std::vector<int> parked;
  std::thread acceptor([&] {
    for (;;) {
      int fd = ::accept(lfd, nullptr, nullptr);
      if (fd < 0) return;  // listener closed: test over
      parked.push_back(fd);
    }
  });

  auto t0 = std::chrono::steady_clock::now();
  {
    ClientConfig ccfg;
    ccfg.drain_timeout = 200ms;
    RpcClient client("127.0.0.1", port, ccfg);

    // A deadlined request against the black hole fails in ~its budget.
    RequestOptions opts;
    opts.deadline = 100ms;
    auto fut = client.ping(opts);
    EXPECT_THROW(fut.get(), DeadlineExceeded);

    // A deadline-less request is bounded by close(): drained for at most
    // drain_timeout, then failed with ProtocolError.
    auto hung = client.ping();
    client.close();
    EXPECT_THROW(hung.get(), ProtocolError);
  }
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, 3s);  // deadline + drain + slack; never the 10s+ of a hang

  ::shutdown(lfd, SHUT_RDWR);
  ::close(lfd);
  acceptor.join();
  for (int fd : parked) ::close(fd);
}

// ---------------------------------------------------------------------------
// PR 9: telemetry under chaos

// The observability layer itself must keep its invariants while the fault
// injector mangles IO under it:
//   1. the verify latency histogram holds EXACTLY one sample per committed
//      verdict — retries, short IO and injected delays never double-record;
//   2. the slow-trace ring holds only value-type records of COMPLETED
//      requests, still readable (over a fresh connection) after every
//      connection that produced them is gone — no pointers into freed
//      connection state (ASan enforces the "freed" half in CI);
//   3. a log-site storm suppresses at the site and the first line admitted
//      after the bucket refills carries the suppressed count.
TEST_F(FaultsTest, TelemetryInvariantsSurviveIoChaos) {
  bool obs_was = obs::enabled();
  obs::set_enabled(true);

  // Capture log lines for invariant 3; lines still reach the test's stderr
  // sink mutex-ordered, so counting is race-free.
  struct Capture {
    std::mutex m;
    std::vector<std::string> lines;
  } cap;
  obs::set_log_sink([&cap](std::string_view line) {
    std::lock_guard<std::mutex> lk(cap.m);
    cap.lines.emplace_back(line);
  });

  LiveDaemon d(testfx::daemon_config(kLabel));
  auto km = keygen(3, 1);
  {
    RpcClient client("127.0.0.1", d.port());
    EXPECT_FALSE(client.register_ro_committee("acme", km).get());
    auto [msg, sig] = make_signed(km, "telemetry chaos");
    Signature bad = forge(sig);

    FaultSpec spec = FaultSpec::parse(
        "short_read=0.25,short_write=0.25,eagain=0.15,"
        "frame_delay_p=0.1,frame_delay_us=200,task_delay_p=0.2,"
        "task_delay_us=300");
    ScopedInjector chaos(fault_seed(), spec);
    constexpr int kReqs = 120;
    std::vector<std::pair<std::future<bool>, bool>> futs;
    for (int j = 0; j < kReqs; ++j) {
      bool valid = j % 3 != 0;
      futs.emplace_back(client.verify("acme", msg, valid ? sig : bad),
                        valid);
    }
    for (auto& [f, expect] : futs) EXPECT_EQ(f.get(), expect);
    EXPECT_GT(chaos.inj->counts().short_io, 0u);  // the chaos actually ran
  }  // traffic client gone: every connection that produced traces is freed

  // Invariant 1+2, read over a FRESH connection.
  const DaemonStats st = d.server().snapshot_stats();
  RpcClient probe("127.0.0.1", d.port());
  auto m = probe.metrics_sync();
  uint64_t hist_total = 0;
  for (const auto& h : m.histograms)
    if (h.name == "bnr_verify_latency_seconds") hist_total += h.snap.count;
  EXPECT_EQ(hist_total, st.verify_accepted + st.verify_rejected);

  ASSERT_FALSE(m.slow_traces.empty());
  for (const auto& t : m.slow_traces) {
    EXPECT_TRUE(t.has(obs::Stage::kReceived));
    EXPECT_TRUE(t.has(obs::Stage::kFlushed));  // only COMPLETED requests
    EXPECT_EQ(t.total_ns, t.offset_ns(obs::Stage::kFlushed));
    EXPECT_GT(t.request_id, 0u);
  }
  EXPECT_LE(m.slow_traces.size(), m.slow_trace_cap);

  // Invariant 3: hammer one site (malformed frames -> protocol_error_close)
  // past its burst, let the bucket refill, and require the resync marker.
  for (int j = 0; j < 30; ++j) {
    ByteWriter w;
    w.u8(0xEE);
    w.u64(uint64_t(j));
    RawConn(d.port()).round_trip(w.bytes());
  }
  std::this_thread::sleep_for(400ms);  // refill at 8/sec: >1 token back
  {
    ByteWriter w;
    w.u8(0xEE);
    w.u64(999);
    RawConn(d.port()).round_trip(w.bytes());
  }
  bool saw_resync = false;
  {
    std::lock_guard<std::mutex> lk(cap.m);
    for (const std::string& line : cap.lines)
      saw_resync = saw_resync ||
                   (line.find("event=protocol_error_close") !=
                        std::string::npos &&
                    line.find("suppressed=") != std::string::npos);
  }
  EXPECT_TRUE(saw_resync);

  obs::set_log_sink(nullptr);
  obs::set_enabled(obs_was);
}

}  // namespace
}  // namespace bnr
