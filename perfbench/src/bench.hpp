// Shared declarations of the repository benchmark: workload shapes, seeded
// inputs, the closed-loop driver, the daemon phase and the traced run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "stats.hpp"
#include "threshold/ro_scheme.hpp"
#include "threshold/scheme_api.hpp"

namespace perfbench {

using bnr::Bytes;

enum class Kind { kVerifyHot, kVerifyTenants, kCombine };

/// The traffic shape of one workload. Each connection is one closed loop
/// keeping `window` requests in flight.
struct Shape {
  Kind kind{};
  std::string name;
  size_t conns = 4;
  size_t window = 1;
  size_t warmup = 0;       // requests issued before the window opens
  size_t cache_bytes = 0;  // daemon cache budget; 0 = the daemon default
};

/// Throws std::invalid_argument for an unknown workload name.
Shape shape_for(const std::string& workload);

/// One VERIFY request template: the tenant it names, the message, the
/// serialized signature and the verdict the daemon must return.
struct VerifyItem {
  uint32_t tenant = 0;
  uint32_t msg_index = 0;
  bool expect = true;
  Bytes msg;
  Bytes sig;
};

/// One COMBINE request template: t+1 serialized partials from a seeded signer
/// subset and the exact combined-signature bytes the daemon must return.
struct CombineItem {
  uint32_t committee = 0;
  uint32_t msg_index = 0;
  Bytes msg;
  std::vector<Bytes> partials;
  Bytes expected;
};

struct Inputs {
  Shape shape;
  uint64_t seed = 0;
  std::vector<std::string> keys;  // tenant / committee key per index
  std::vector<Bytes> pks;         // verify-only tenants (empty for combine)
  std::vector<bnr::threshold::Committee> committees;  // combine only
  std::vector<VerifyItem> verify_items;
  std::vector<CombineItem> combine_items;
  std::vector<double> zipf_cdf;  // verify_tenants popularity
  std::string digest;            // hex SHA-256 over everything above
};

/// Generates the workload's inputs from the seed, spreading key generation
/// and signing over `threads` threads. Deterministic in (workload, seed).
Inputs make_inputs(const Shape& shape, uint64_t seed, size_t threads);

/// Per-connection seeded request sequence: which item the k-th request of
/// connection `conn` sends. The traced replay draws the same sequence.
class RequestStream {
 public:
  RequestStream(const Inputs& in, size_t conn);
  size_t next();
  uint64_t drawn() const { return k_; }

 private:
  const Inputs& in_;
  bnr::Rng rng_;
  uint64_t k_ = 0;
  uint64_t invalid_offset_ = 0;
};

// ---------------------------------------------------------------------------
// Closed loop

enum class Outcome { kOk, kFailed, kWrong };

/// Issues one request for `item`; calls `done` exactly once, from any thread,
/// with the outcome and (for kWrong) what differed.
using Issuer = std::function<void(
    size_t conn, size_t item, uint64_t id,
    std::function<void(Outcome, std::string)> done)>;

struct LoopResult {
  Window window;
  std::unique_ptr<WindowTally> tally;
  double cpu_ms = 0;                   // process CPU while the window was open
  std::vector<RequestRecord> records;  // all phases; only when kept
  std::string wrong;                   // first wrong result, if any
};

/// Runs one closed loop per stream, each keeping `shape.window` requests
/// outstanding. The window opens once `warmup` requests were issued, lasts
/// `seconds`, and the loops drain before this returns. The streams carry on
/// where the previous call left them. `keep_records` keeps a record per
/// request (the traced run's spans); untraced runs keep only the tally, so
/// their memory does not grow with throughput. `on_window` runs at the
/// window's start and end (for counter snapshots).
LoopResult run_closed_loop(const Inputs& in,
                           std::vector<RequestStream>& streams, size_t warmup,
                           double seconds, bool keep_records,
                           const Issuer& issue,
                           const std::function<void(bool start)>& on_window);

std::vector<RequestStream> make_streams(const Inputs& in);

// ---------------------------------------------------------------------------
// Daemon phase and the traced run

/// The metric names a run prints: the end-to-end set untraced, the
/// per-layer set traced. BENCHMARK.json lists the same names.
inline constexpr std::string_view kEndToEndMetrics[] = {
    "setup_s", "throughput_rps", "p50_ms", "p99_ms", "cpu_ms_per_req",
    "rss_mb"};
inline constexpr std::string_view kPerLayerMetrics[] = {
    "field.mul_ns", "field.sqr_ns", "field.inv_us", "field.sqrt_us",
    "curve.hash_to_g1_us", "curve.g1_decompress_us",
    "curve.msm64_us_per_point", "curve.ms_per_req",
    "pairing.miller_loop_us", "pairing.final_exp_us",
    "pairing.g2_prepare_us", "pairing.ms_per_req",
    "threshold.fold_ms_per_req", "threshold.verify_ms",
    "threshold.combine_ms", "threshold.make_verifier_ms",
    "threshold.parse_us", "threshold.share_sign_us", "dkg.keygen_ms",
    "service.wait_ms.p50", "service.wait_ms.p99", "service.fold_size",
    "service.fallback_ratio", "service.cache_hit_ratio",
    "service.prepares_per_req", "service.redundant_prepares",
    "service.self_ms_per_req", "rpc.self_ms", "rpc.frames_per_req",
    "rpc.busy", "rpc.shed", "rpc.protocol_errors", "rpc.client_retries",
    "ladder.predicted_cpu_ms_per_req", "ladder.residual_ms_per_req",
    "trace.overhead_ratio"};

/// Metrics keyed by name, each with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// One reading of the benchmark-private host-speed reference, in ms: the
/// time one core takes for a million 256-bit Montgomery multiplications at
/// the rate the host gave while every core ran them (the median of five
/// 100 ms passes). No change to the repository can move it.
double host_reference_ms();

/// The daemon phase's measured window is cut into this many equal parts,
/// each with its own warm-up and followed by a host reference. Each part's
/// timing values are scaled by its own slowdown (stats.hpp), and every
/// end-to-end metric is the median over the parts, so a disturbance
/// confined to one or two parts does not move the result.
inline constexpr size_t kWindowParts = 8;

struct PhaseResult {
  Metrics metrics;   // the end-to-end set, at the nominal host speed
  Metrics measured;  // the timing metrics as measured
  std::vector<double> host_ref_ms;  // after each part
  /// A timing metric as measured.
  double metric(const std::string& name) const {
    return measured.at(name).value;
  }
  size_t attempted = 0;
  size_t failed = 0;
  size_t samples = 0;
  bool correct = true;
  std::string problem;  // first failed check
  // Daemon counters over the window, for the per-layer metrics.
  double fold_size = 0, fallback_ratio = 0, cache_hit_ratio = 0;
  double frames_per_req = 0;
  double busy = 0, shed = 0, protocol_errors = 0, client_retries = 0;
  std::vector<RequestRecord> window_records;  // client spans (rpc boundary)
};

/// A running daemon with every tenant / committee of `in` registered;
/// destroying it stops the daemon and joins its threads.
class Daemon;
struct DaemonStop {
  void operator()(Daemon* d) const;
};
using DaemonPtr = std::unique_ptr<Daemon, DaemonStop>;
DaemonPtr start_daemon(const Inputs& in);

/// Drives the workload against the daemon for `seconds` and checks every
/// result, the STATS accounting identity and the client/daemon tallies.
/// `keep_spans` keeps the window's client spans in the result.
/// `ref_before_ms` is a host reference timed just before the call.
PhaseResult run_daemon_phase(Daemon& d, const Inputs& in, double seconds,
                             bool keep_spans, double ref_before_ms);


/// The traced run's per-layer metrics. `untraced` is the same invocation's
/// plain daemon phase; `traced` the phase with client spans kept.
Metrics run_traced(const Inputs& in, double seconds,
                   const PhaseResult& untraced, const PhaseResult& traced,
                   const std::string& span_out);

}  // namespace perfbench
