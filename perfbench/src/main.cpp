// The repository benchmark: hosts the serving daemon in-process on loopback,
// drives one seeded closed-loop workload through RpcClient, checks every
// result, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as a JSON object on the last line of stdout.
//
//   perfbench --workload <verify_hot|verify_tenants|combine> --seed <n>
//             --seconds <s> --trace <0|1> [--span-out <file>] [--digest-only]
//   perfbench --list-metrics

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

extern char** environ;

namespace perfbench {
namespace {

// Set-up runs this many times per run and setup_s is their median; only the
// last daemon serves the measured traffic.
constexpr int kSetups = 5;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool digest_only = false;
  bool list_metrics = false;
  std::string span_out;
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--span-out") {
      o.span_out = value();
    } else if (a == "--digest-only") {
      o.digest_only = true;
    } else if (a == "--list-metrics") {
      o.list_metrics = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.list_metrics) return o;
  if (!have_workload || !have_seed)
    throw std::invalid_argument("--workload and --seed are required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

size_t cores() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

// The host reference: dependent 256-bit Montgomery multiplications modulo
// the BN254 base-field prime, the operation the library's pairing and curve
// arithmetic is built from, written here so no change to the library can
// move it. A slow host phase stretches it much as it stretches the library.
using u128 = unsigned __int128;
constexpr uint64_t kRefP[4] = {0x3c208c16d87cfd47ull, 0x97816a916871ca8dull,
                               0xb85045b68181585dull, 0x30644e72e131a029ull};
constexpr uint64_t kRefPInv = 0x87d20782e4866389ull;  // -p^-1 mod 2^64

void ref_mont_mul(uint64_t r[4], const uint64_t a[4], const uint64_t b[4]) {
  uint64_t t[6] = {};
  for (int i = 0; i < 4; ++i) {
    u128 c = 0;
    for (int j = 0; j < 4; ++j) {
      c += static_cast<u128>(a[j]) * b[i] + t[j];
      t[j] = static_cast<uint64_t>(c);
      c >>= 64;
    }
    c += t[4];
    t[4] = static_cast<uint64_t>(c);
    t[5] = static_cast<uint64_t>(c >> 64);
    const uint64_t m = t[0] * kRefPInv;
    c = (static_cast<u128>(m) * kRefP[0] + t[0]) >> 64;
    for (int j = 1; j < 4; ++j) {
      c += static_cast<u128>(m) * kRefP[j] + t[j];
      t[j - 1] = static_cast<uint64_t>(c);
      c >>= 64;
    }
    c += t[4];
    t[3] = static_cast<uint64_t>(c);
    t[4] = t[5] + static_cast<uint64_t>(c >> 64);
  }
  uint64_t d[4];
  uint64_t borrow = 0;
  for (int j = 0; j < 4; ++j) {
    const u128 x = static_cast<u128>(t[j]) - kRefP[j] - borrow;
    d[j] = static_cast<uint64_t>(x);
    borrow = static_cast<uint64_t>(x >> 64) & 1;
  }
  const bool reduce = t[4] != 0 || borrow == 0;
  for (int j = 0; j < 4; ++j) r[j] = reduce ? d[j] : t[j];
}

/// A reference reading is the time one core takes for this many
/// multiplications at the rate the host gave.
constexpr double kRefMuls = 1e6;

/// One pass of the reference: every core multiplies for `ms` of wall time.
/// The reading averages the cores' rates, so a core the hypervisor
/// withholds slows it about as much as it slows the daemon's pool, not as
/// much as the slowest core would.
double reference_pass_ms(double ms) {
  const size_t n = cores();
  std::vector<double> rates(n);  // multiplications per ms, per core
  const auto deadline = Clock::now() + std::chrono::microseconds(
                                           static_cast<int64_t>(ms * 1e3));
  std::atomic<uint64_t> sink{0};
  std::vector<std::thread> th;
  for (size_t c = 0; c < n; ++c)
    th.emplace_back([&, c] {
      uint64_t a[4] = {c + 1, 2, 3, 4};
      const uint64_t b[4] = {5, 6, 7, 8};
      const auto t0 = Clock::now();
      double done = 0;
      while (Clock::now() < deadline) {
        for (int i = 0; i < 1024; ++i) ref_mont_mul(a, a, b);
        done += 1024;
      }
      rates[c] = done / ms_between(t0, Clock::now());
      sink += a[0];
    });
  for (auto& t : th) t.join();
  double sum = 0;
  for (double r : rates) sum += r;
  return kRefMuls * static_cast<double>(n) / sum;
}

/// On the 4-vCPU VMs this benchmark was tuned on, the cores run up to four
/// times slower for about a second after idling. Spin every core for 1.5 s,
/// then until two consecutive short passes agree within 5% (at most about
/// three seconds in all), so set-up is not timed on a cold host.
void warm_host() {
  const auto t0 = Clock::now();
  double prev = 0;
  for (;;) {
    const double cur = reference_pass_ms(10);
    const double elapsed = ms_between(t0, Clock::now());
    if (elapsed > 3000) return;
    if (elapsed > 1500 && std::abs(cur - prev) <= 0.05 * prev) return;
    prev = cur;
  }
}

/// Peak resident set of this process image (VmHWM). Not ru_maxrss: Linux
/// carries that across exec, so it would report the launching interpreter's
/// footprint whenever that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

void print_environment(const Options& o) {
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace);
  std::printf("nproc=%zu build=%s\n", cores(), PERFBENCH_BUILD_TYPE);
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "BNR_", 4) == 0) std::printf("env %s\n", *e);
}

void print_json(bool correct, size_t attempted, size_t failed,
                const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, v] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v.value, v.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// The printed set must be exactly the declared one.
bool metric_set_matches(const Metrics& m, bool trace) {
  std::vector<std::string> want;
  if (trace)
    for (auto n : kPerLayerMetrics) want.emplace_back(n);
  else
    for (auto n : kEndToEndMetrics) want.emplace_back(n);
  std::sort(want.begin(), want.end());
  std::vector<std::string> got;
  for (const auto& [name, v] : m) {
    if (!valid_metric_name(name)) return false;
    got.push_back(name);
  }
  return got == want;
}

int run(const Options& o) {
  if (o.list_metrics) {
    for (auto n : kEndToEndMetrics)
      std::printf("end_to_end %.*s\n", static_cast<int>(n.size()), n.data());
    for (auto n : kPerLayerMetrics)
      std::printf("per_layer %.*s\n", static_cast<int>(n.size()), n.data());
    return 0;
  }
  const Shape shape = shape_for(o.workload);
  print_environment(o);

  if (o.digest_only) {
    const Inputs in = make_inputs(shape, o.seed, cores());
    std::printf("seed=%llu inputs_digest=%s\n",
                static_cast<unsigned long long>(o.seed), in.digest.c_str());
    return 0;
  }

  // Set-up, timed kSetups times, each between two host references and
  // scaled by its own slowdown; setup_s is the median.
  warm_host();
  double ref = host_reference_ms();
  std::vector<double> setup_refs = {ref};
  std::vector<double> setup_s, setup_measured_s;
  std::unique_ptr<Inputs> in;
  DaemonPtr daemon;
  const int setups = o.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    daemon.reset();
    const auto t0 = Clock::now();
    auto fresh = std::make_unique<Inputs>(make_inputs(shape, o.seed, cores()));
    daemon = start_daemon(*fresh);
    const double s = ms_between(t0, Clock::now()) / 1e3;
    const double ref_after = host_reference_ms();
    setup_refs.push_back(ref_after);
    setup_measured_s.push_back(s);
    setup_s.push_back(at_nominal_speed(s, false, slowdown(ref, ref_after)));
    ref = ref_after;
    if (in && in->digest != fresh->digest)
      throw std::runtime_error("the same seed produced different inputs");
    in = std::move(fresh);
  }
  std::printf("seed=%llu inputs_digest=%s\n",
              static_cast<unsigned long long>(o.seed), in->digest.c_str());

  PhaseResult phase = run_daemon_phase(*daemon, *in, o.seconds, false, ref);
  Metrics out;
  PhaseResult traced_phase;
  if (o.trace) {
    traced_phase = run_daemon_phase(*daemon, *in, o.seconds, true,
                                    phase.host_ref_ms.back());
    if (!traced_phase.correct && phase.correct) {
      phase.correct = false;
      phase.problem = traced_phase.problem;
    }
  }
  daemon.reset();
  const double rss_mb = peak_rss_mb();

  // The end-to-end set at the nominal host speed, and as measured.
  Metrics scaled = phase.metrics, measured = phase.measured;
  scaled.erase("fail_ratio");  // zero on a healthy run; see the doc
  scaled["setup_s"] = {median_of(setup_s), "s"};
  measured["setup_s"] = {median_of(setup_measured_s), "s"};
  scaled["rss_mb"] = measured["rss_mb"] = {rss_mb, "MiB"};
  if (o.trace) {
    if (phase.correct)
      out = run_traced(*in, o.seconds, phase, traced_phase, o.span_out);
  } else {
    out = scaled;
  }

  auto print_list = [](const char* what, const std::vector<double>& v) {
    std::printf("%s", what);
    for (double x : v) std::printf(" %.4g", x);
    std::printf("\n");
  };
  print_list("setup_s as measured:", setup_measured_s);
  print_list("host_ref_ms around set-ups:", setup_refs);
  print_list("host_ref_ms after window parts:", phase.host_ref_ms);
  std::printf("%-16s %14s %14s %-6s %s\n", "metric", "value", "as measured",
              "unit", "samples");
  for (const auto& [name, v] : scaled) {
    const std::string n =
        name == "setup_s"  ? std::to_string(setup_s.size()) + " setups"
        : name == "rss_mb" ? "peak"
        : name == "p50_ms" || name == "p99_ms" ? std::to_string(phase.samples)
                                               : std::to_string(phase.attempted);
    std::printf("%-16s %14.4f %14.4f %-6s %s\n", name.c_str(), v.value,
                measured.at(name).value, v.unit.c_str(), n.c_str());
  }
  const double fail_ratio = phase.metrics.at("fail_ratio").value;
  std::printf("%-16s %14.4f %14.4f %-6s %zu\n", "fail_ratio", fail_ratio,
              fail_ratio, "ratio", phase.attempted);
  std::printf("daemon: fold_size=%.2f cache_hit_ratio=%.3f "
              "fallback_ratio=%.4f\n",
              phase.fold_size, phase.cache_hit_ratio, phase.fallback_ratio);
  if (o.trace) {
    std::printf("traced daemon phase, as measured: throughput_rps %.1f "
                "p50_ms %.3f cpu_ms_per_req %.4f\n",
                traced_phase.metric("throughput_rps"),
                traced_phase.metric("p50_ms"),
                traced_phase.metric("cpu_ms_per_req"));
    for (const auto& [name, v] : out)
      std::printf("%-32s %14.6f %s\n", name.c_str(), v.value, v.unit.c_str());
  }
  if (phase.correct && !metric_set_matches(out, o.trace)) {
    phase.correct = false;
    phase.problem = "the printed metric set differs from the declared one";
  }
  if (!phase.correct)
    std::fprintf(stderr, "perfbench: check failed: %s\n",
                 phase.problem.c_str());
  print_json(phase.correct, phase.attempted, phase.failed, out);
  return phase.correct ? 0 : 1;
}

}  // namespace

double host_reference_ms() {
  std::vector<double> passes;
  for (int i = 0; i < 5; ++i) passes.push_back(reference_pass_ms(100));
  return median_of(std::move(passes));
}

}  // namespace perfbench

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
