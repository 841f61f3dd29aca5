// The closed-loop driver and the daemon phase: the real RpcServer on
// loopback with its defaults, driven through RpcClient, every result checked
// against its planted expectation.
#include <sys/resource.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <mutex>
#include <semaphore>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "rpc/rpc_client.hpp"
#include "rpc/rpc_server.hpp"
#include "service/thread_pool.hpp"

namespace perfbench {

using namespace bnr;

namespace {

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

std::string describe(std::exception_ptr err) {
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

// A request that has not completed this long after the loops stopped is
// reported as lost rather than waited for.
constexpr auto kDrainLimit = std::chrono::seconds(60);

/// The benchmark's request id: connection in the top 16 bits, the
/// connection's sequence number below.
uint64_t request_id(size_t conn, uint64_t seq) {
  return (static_cast<uint64_t>(conn) << 48) | seq;
}

/// Threads that run posted jobs, each of which waits on one request's
/// future. RpcClient offers COMBINE only as a future, so this is how a
/// connection keeps several combines in flight. With one thread per request
/// the loop can have outstanding, no job waits for a thread. Not a
/// service::ThreadPool: its per-worker latency histograms would add about
/// half a MiB to rss_mb.
class FutureWaiters {
 public:
  explicit FutureWaiters(size_t threads) {
    for (size_t i = 0; i < threads; ++i)
      threads_.emplace_back([this] { serve(); });
  }
  ~FutureWaiters() {
    {
      std::lock_guard<std::mutex> l(m_);
      closed_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }
  FutureWaiters(const FutureWaiters&) = delete;
  FutureWaiters& operator=(const FutureWaiters&) = delete;

  void post(std::function<void()> job) {
    {
      std::lock_guard<std::mutex> l(m_);
      jobs_.push_back(std::move(job));
    }
    cv_.notify_one();
  }

 private:
  void serve() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> l(m_);
        cv_.wait(l, [this] { return closed_ || !jobs_.empty(); });
        if (jobs_.empty()) return;
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      job();
    }
  }

  std::mutex m_;
  std::condition_variable cv_;
  bool closed_ = false;
  std::deque<std::function<void()>> jobs_;
  std::vector<std::thread> threads_;
};

}  // namespace

std::vector<RequestStream> make_streams(const Inputs& in) {
  std::vector<RequestStream> streams;
  for (size_t c = 0; c < in.shape.conns; ++c) streams.emplace_back(in, c);
  return streams;
}

LoopResult run_closed_loop(const Inputs& in,
                           std::vector<RequestStream>& streams, size_t warmup,
                           double seconds, bool keep_records,
                           const Issuer& issue,
                           const std::function<void(bool start)>& on_window) {
  const size_t conns = streams.size();
  const auto window = static_cast<ptrdiff_t>(in.shape.window);

  struct ConnState {
    explicit ConnState(ptrdiff_t w) : slots(w) {}
    std::counting_semaphore<> slots;
    // Only the connection's driver thread grows this; callbacks write
    // through a pointer to their own record, which a deque never moves.
    std::deque<RequestRecord> records;
  };
  std::vector<std::unique_ptr<ConnState>> cs;
  for (size_t c = 0; c < conns; ++c)
    cs.push_back(std::make_unique<ConnState>(window));

  LoopResult out;
  out.tally = std::make_unique<WindowTally>();
  WindowTally& tally = *out.tally;
  std::atomic<Phase> phase{Phase::kWarmup};
  std::atomic<size_t> issued{0};
  std::atomic<bool> stop{false};
  std::mutex wrong_m;
  std::string wrong;

  auto driver = [&](size_t c) {
    ConnState& st = *cs[c];
    RequestStream& stream = streams[c];
    while (true) {
      if (!st.slots.try_acquire_for(std::chrono::milliseconds(20))) {
        if (stop.load()) break;
        continue;
      }
      if (stop.load()) {
        st.slots.release();
        break;
      }
      const uint64_t id = request_id(c, stream.drawn());
      const size_t item = stream.next();
      const Phase p = phase.load();
      RequestRecord* rec =
          keep_records ? &st.records.emplace_back(RequestRecord{id, item, p})
                       : nullptr;
      tally.issued(p);
      issued.fetch_add(1);
      const auto t0 = Clock::now();
      if (rec) rec->issued = t0;
      issue(c, item, id,
            [rec, t0, p, &st, &tally, &stop, &wrong_m, &wrong](
                Outcome o, std::string what) {
        const auto t1 = Clock::now();
        tally.completed(p, ms_between(t0, t1), o == Outcome::kOk);
        if (rec) rec->done = t1;
        if (o == Outcome::kWrong) {
          std::lock_guard<std::mutex> l(wrong_m);
          if (wrong.empty()) wrong = std::move(what);
          stop = true;
        }
        st.slots.release();
      });
    }
    // Drain: every outstanding request hands its slot back. A request still
    // open after the limit would call back into this frame once it is gone,
    // so the run ends here instead.
    for (ptrdiff_t i = 0; i < window; ++i)
      if (!st.slots.try_acquire_for(kDrainLimit)) {
        std::fprintf(stderr, "perfbench: a request on connection %zu never "
                             "completed\n", c);
        std::_Exit(3);
      }
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) threads.emplace_back(driver, c);

  while (issued.load() < warmup && !stop.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  on_window(true);
  const double cpu0 = process_cpu_ms();
  out.window.start = Clock::now();
  phase = Phase::kMeasured;
  const auto deadline =
      out.window.start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline && !stop.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  phase = Phase::kAfter;
  out.window.end = Clock::now();
  out.cpu_ms = process_cpu_ms() - cpu0;
  stop = true;
  on_window(false);
  for (auto& t : threads) t.join();

  for (auto& st : cs)
    out.records.insert(out.records.end(), st->records.begin(),
                       st->records.end());
  out.wrong = std::move(wrong);
  return out;
}

// ---------------------------------------------------------------------------
// Daemon

class Daemon {
 public:
  explicit Daemon(const Inputs& in) {
    rpc::ServerConfig cfg;
    cfg.port = 0;
    if (in.shape.cache_bytes) cfg.cache_bytes = in.shape.cache_bytes;
    server = std::make_unique<rpc::RpcServer>(cfg, pool);
    serving = std::thread([this] { server->run(); });
    try {
      admin = std::make_unique<rpc::RpcClient>("127.0.0.1", server->port());
      std::vector<std::future<bool>> regs;
      if (in.shape.kind == Kind::kCombine) {
        for (size_t c = 0; c < in.committees.size(); ++c)
          regs.push_back(admin->register_committee(
              in.keys[c], threshold::SchemeId::kRo, in.committees[c]));
      } else {
        for (size_t i = 0; i < in.pks.size(); ++i)
          regs.push_back(admin->register_key(
              in.keys[i], threshold::SchemeId::kRo, in.pks[i]));
      }
      for (auto& f : regs) f.get();
      for (size_t c = 0; c < in.shape.conns; ++c)
        clients.push_back(
            std::make_unique<rpc::RpcClient>("127.0.0.1", server->port()));
    } catch (...) {
      shutdown();
      throw;
    }
  }

  ~Daemon() { shutdown(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void shutdown() {
    for (auto& c : clients) c->close();
    if (admin) admin->close();
    server->stop();
    serving.join();
  }

  service::ThreadPool pool;  // one worker per core, as the daemon runs
  std::unique_ptr<rpc::RpcServer> server;
  std::thread serving;
  std::unique_ptr<rpc::RpcClient> admin;
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
};

DaemonPtr start_daemon(const Inputs& in) { return DaemonPtr(new Daemon(in)); }

void DaemonStop::operator()(Daemon* d) const { delete d; }

namespace {

std::string describe_request(const Inputs& in, uint64_t id, size_t item) {
  std::ostringstream os;
  os << "request " << id << " (connection " << (id >> 48) << ", #"
     << (id & ((uint64_t(1) << 48) - 1)) << ", ";
  if (in.shape.kind == Kind::kCombine) {
    const auto& it = in.combine_items[item];
    os << "committee " << in.keys[it.committee] << ", message #"
       << it.msg_index;
  } else {
    const auto& it = in.verify_items[item];
    os << "tenant " << in.keys[it.tenant] << ", message #" << it.msg_index
       << (it.expect ? ", valid" : ", signature over another message");
  }
  os << ")";
  return os.str();
}

/// The daemon and client counters the per-layer metrics are built from.
struct Counters {
  double verify_submitted = 0, verify_batches = 0, verify_fallbacks = 0;
  double combines = 0, cache_hits = 0, cache_misses = 0, frames_in = 0;
  double busy = 0, shed = 0, protocol_errors = 0, retries = 0;
};

constexpr double Counters::*kCounterFields[] = {
    &Counters::verify_submitted, &Counters::verify_batches,
    &Counters::verify_fallbacks, &Counters::combines,
    &Counters::cache_hits,       &Counters::cache_misses,
    &Counters::frames_in,        &Counters::busy,
    &Counters::shed,             &Counters::protocol_errors,
    &Counters::retries};

/// Adds what the counters grew by between `from` and `to` to `sum`.
void add_growth(Counters& sum, const Counters& from, const Counters& to) {
  for (auto f : kCounterFields) sum.*f += to.*f - from.*f;
}

Counters counters(const Daemon& d) {
  const rpc::DaemonStats s = d.server->snapshot_stats();
  const rpc::HealthStats h = d.server->snapshot_health();
  auto f = [](uint64_t v) { return static_cast<double>(v); };
  Counters c;
  c.verify_submitted = f(s.verify_submitted);
  c.verify_batches = f(s.verify_batches);
  c.verify_fallbacks = f(s.verify_fallbacks);
  c.combines = f(s.combines);
  c.cache_hits = f(s.cache_hits);
  c.cache_misses = f(s.cache_misses);
  c.frames_in = f(s.frames_in);
  c.busy = f(h.busy_inflight + h.busy_ratelimit);
  c.shed = f(h.shed_arrival + h.shed_in_service);
  c.protocol_errors = f(s.protocol_errors);
  for (const auto& cl : d.clients) c.retries += f(cl->client_stats().retries);
  return c;
}

}  // namespace

PhaseResult run_daemon_phase(Daemon& d, const Inputs& in, double seconds,
                             bool keep_spans, double ref_before_ms) {
  std::atomic<uint64_t> accepted{0}, rejected{0}, combined{0};
  std::unique_ptr<FutureWaiters> waiters;
  if (in.shape.kind == Kind::kCombine)
    waiters =
        std::make_unique<FutureWaiters>(in.shape.conns * in.shape.window);

  Issuer issue = [&](size_t conn, size_t item, uint64_t id,
                     std::function<void(Outcome, std::string)> done) {
    rpc::RpcClient& client = *d.clients[conn];
    if (in.shape.kind == Kind::kCombine) {
      const auto& it = in.combine_items[item];
      auto result = std::make_shared<std::future<rpc::CombineResult>>(
          client.combine_bytes(in.keys[it.committee], it.msg, it.partials));
      waiters->post([&, result, id, item, done = std::move(done)] {
        try {
          const rpc::CombineResult res = result->get();
          combined.fetch_add(1);
          if (res.sig != in.combine_items[item].expected ||
              !res.cheaters.empty())
            return done(Outcome::kWrong,
                        describe_request(in, id, item) +
                            ": combined signature differs from the expected "
                            "bytes");
          done(Outcome::kOk, {});
        } catch (const std::exception& e) {
          done(Outcome::kFailed, e.what());
        }
      });
      return;
    }
    const auto& it = in.verify_items[item];
    client.verify_async(
        in.keys[it.tenant], it.msg, it.sig,
        [&, id, item, expect = it.expect, done = std::move(done)](
            bool ok, std::exception_ptr err) {
          if (err) return done(Outcome::kFailed, describe(err));
          (ok ? accepted : rejected).fetch_add(1);
          if (ok != expect)
            return done(Outcome::kWrong,
                        describe_request(in, id, item) + ": daemon answered " +
                            (ok ? "accept" : "reject"));
          done(Outcome::kOk, {});
        });
  };

  std::vector<RequestStream> streams = make_streams(in);
  const rpc::DaemonStats before = d.server->snapshot_stats();
  PhaseResult out;
  auto fail = [&](std::string why) {
    if (out.correct) out.problem = std::move(why);
    out.correct = false;
  };

  // Each part: its own warm-up and window, then the host reference, so every
  // part lies between two references. The first part's warm-up fills the
  // caches; later ones only refill the pipeline the reference loop paused.
  Counters w;
  bnr::obs::HistogramSnapshot all;
  std::vector<double> rps, p50, p99, cpu;  // per part, as measured
  std::vector<double> slow;                // per part
  double ref = ref_before_ms;
  for (size_t k = 0; k < kWindowParts && out.correct; ++k) {
    Counters c0;
    const size_t warmup =
        k == 0 ? in.shape.warmup : 4 * in.shape.conns * in.shape.window;
    const LoopResult loop = run_closed_loop(
        in, streams, warmup, seconds / kWindowParts, keep_spans, issue,
        [&](bool start) {
          if (start)
            c0 = counters(d);
          else
            add_growth(w, c0, counters(d));
        });
    const double ref_after = host_reference_ms();
    out.host_ref_ms.push_back(ref_after);
    slow.push_back(slowdown(ref, ref_after));
    ref = ref_after;

    if (!loop.wrong.empty()) fail(loop.wrong);
    const WindowTally& t = *loop.tally;
    for (const auto& r : loop.records)
      if (r.phase == Phase::kMeasured) out.window_records.push_back(r);
    if (t.unfinished())
      fail(std::to_string(t.unfinished()) + " requests never completed");
    out.attempted += t.attempted;
    out.failed += t.failed + t.unfinished();
    const auto snap = t.latency.snapshot();
    all.merge(snap);
    const double ok = static_cast<double>(snap.count);
    rps.push_back(ok / (ms_between(loop.window.start, loop.window.end) / 1e3));
    p50.push_back(percentile(snap, 0.50).value);
    p99.push_back(percentile(snap, 0.99).value);
    cpu.push_back(ok > 0 ? loop.cpu_ms / ok : 0);
    std::printf("window part %zu as measured: throughput_rps=%.1f "
                "p50_ms=%.3f p99_ms=%.3f cpu_ms_per_req=%.4f slowdown=%.4f\n",
                k + 1, rps.back(), p50.back(), p99.back(), cpu.back(),
                slow.back());
  }
  out.samples = all.count;
  const Percentile tail = percentile(all, 0.99);
  if (out.correct && tail.beyond < kMinBeyond)
    fail("only " + std::to_string(tail.beyond) +
         " samples beyond p99 in the window; it is too short");

  // Each metric is the median over the parts, as measured and at the
  // nominal host speed.
  auto put = [&](const char* name, const std::vector<double>& v, bool rate,
                 const char* unit) {
    std::vector<double> scaled;
    for (size_t k = 0; k < v.size(); ++k)
      scaled.push_back(at_nominal_speed(v[k], rate, slow[k]));
    out.metrics[name] = {median_of(std::move(scaled)), unit};
    out.measured[name] = {median_of(v), unit};
  };
  put("throughput_rps", rps, true, "1/s");
  put("p50_ms", p50, false, "ms");
  put("p99_ms", p99, false, "ms");
  put("cpu_ms_per_req", cpu, false, "ms");
  out.metrics["fail_ratio"] = {
      out.attempted ? static_cast<double>(out.failed) /
                          static_cast<double>(out.attempted)
                    : 0,
      "ratio"};

  // Window counters from the daemon's own STATS / HEALTH.
  const double folds = w.verify_batches + w.combines;
  out.fold_size = folds > 0 ? (w.verify_submitted + w.combines) / folds : 0;
  out.fallback_ratio =
      w.verify_batches > 0 ? w.verify_fallbacks / w.verify_batches : 0;
  const double lookups = w.cache_hits + w.cache_misses;
  out.cache_hit_ratio = lookups > 0 ? w.cache_hits / lookups : 0;
  out.frames_per_req =
      out.attempted ? w.frames_in / static_cast<double>(out.attempted) : 0;
  out.busy = w.busy;
  out.shed = w.shed;
  out.protocol_errors = w.protocol_errors;
  out.client_retries = w.retries;

  // Books: the daemon's accounting identity, and its tallies against ours.
  const rpc::DaemonStats after = d.admin->stats_sync();
  if (after.verify_submitted !=
      after.verify_accepted + after.verify_rejected + after.verify_sheds +
          after.verify_errors + after.verify_in_progress)
    fail("daemon STATS break verify_submitted == accepted + rejected + "
         "sheds + errors + in_progress");
  if (after.verify_accepted - before.verify_accepted != accepted.load() ||
      after.verify_rejected - before.verify_rejected != rejected.load())
    fail("daemon accept/reject tallies (" +
         std::to_string(after.verify_accepted - before.verify_accepted) + "/" +
         std::to_string(after.verify_rejected - before.verify_rejected) +
         ") differ from the benchmark's (" + std::to_string(accepted.load()) +
         "/" + std::to_string(rejected.load()) + ")");
  if (after.combines - before.combines != combined.load())
    fail("daemon combine count differs from the benchmark's");
  if (after.protocol_errors != before.protocol_errors)
    fail("daemon closed connections on protocol errors");
  return out;
}

}  // namespace perfbench
