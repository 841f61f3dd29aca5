// Self-test of the benchmark's own bookkeeping (stats.hpp): percentile
// selection and the ten-samples-beyond rule (sorted sample and latency
// histogram), span self time with nested and overlapping children, warm-up
// exclusion and window accounting, the host-speed slowdown, and metric name
// validation. Exits non-zero when any check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

Clock::time_point at(double ms) {
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms)));
}

bool near(double a, double b) { return std::abs(a - b) < 1e-6; }

/// Within the latency histogram's resolution above the exact value.
bool within_bucket(double got, double exact) {
  return got >= exact && got <= exact * (1 + 1.0 / 64);
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  check(percentile(v, 0.50).value == 500, "p50 of 1..1000 is 500");
  check(percentile(v, 0.99).value == 990, "p99 of 1..1000 is 990");
  check(percentile(v, 0.99).beyond == 10, "1000 samples leave 10 beyond p99");
  v.pop_back();
  check(percentile(v, 0.99).beyond == 9, "999 samples leave 9 beyond p99");
  const std::vector<double> one = {7.0}, none;
  check(percentile(one, 0.99).value == 7 && percentile(one, 0.0).value == 7,
        "a single sample is every percentile");
  check(percentile(none, 0.5).value == 0 && percentile(none, 0.5).beyond == 0,
        "an empty sample has no percentiles");
  check(median_of({3, 1, 2}) == 2 && median_of({4, 1, 3, 2}) == 2.5,
        "median of odd and even samples");
}

void test_self_time() {
  Span parent{"service", at(0), at(10), "request", 1};
  check(near(self_ms(parent, {}), 10), "no children: self time is duration");
  // Nested: [2,6] contains [3,4]; overlapping: [5,8] overlaps [2,6].
  std::vector<Span> kids = {{"fold", at(2), at(6), "service", 1},
                            {"verify", at(3), at(4), "service", 1},
                            {"prepare", at(5), at(8), "service", 1}};
  check(near(self_ms(parent, kids), 4), "nested and overlapping children");
  // Children reaching outside the parent are clipped to it.
  std::vector<Span> wide = {{"fold", at(-5), at(1), "service", 1},
                            {"fold", at(9), at(20), "service", 1}};
  check(near(self_ms(parent, wide), 8), "children clipped to the parent");
  std::vector<Span> all = {{"fold", at(-1), at(11), "service", 1}};
  check(near(self_ms(parent, all), 0), "a covering child leaves no self time");
  std::vector<Span> touching = {{"a", at(1), at(3), "service", 1},
                                {"b", at(3), at(5), "service", 1}};
  check(near(self_ms(parent, touching), 6), "touching children do not overlap");
}

void test_histogram() {
  // Against the sorted sample: the same rank, a value within the histogram's
  // 1/64 relative resolution, never below the exact one.
  std::vector<double> v;
  bnr::obs::Histogram h;
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double ms = static_cast<double>(x % 400000) / 1000.0;  // 0-400 ms
    v.push_back(ms);
    record_ms(h, ms);
  }
  std::sort(v.begin(), v.end());
  const auto snap = h.snapshot();
  bool close = snap.count == v.size();
  for (double q : {0.01, 0.5, 0.6, 0.9, 0.99, 0.999}) {
    const double exact = percentile(v, q).value, got = percentile(snap, q).value;
    close = close && got >= exact - 0.0005 && got <= exact * (1 + 1.0 / 64) + 0.001;
  }
  check(close, "histogram percentiles match the sorted sample");

  // The ten-beyond rule counts samples strictly above the percentile.
  bnr::obs::Histogram ten, nine;
  for (int i = 0; i < 990; ++i) record_ms(ten, 1);
  for (int i = 0; i < 10; ++i) record_ms(ten, 100);
  for (int i = 0; i < 991; ++i) record_ms(nine, 1);
  for (int i = 0; i < 9; ++i) record_ms(nine, 100);
  const Percentile p_ten = percentile(ten.snapshot(), 0.99);
  check(p_ten.beyond == 10 && within_bucket(p_ten.value, 1),
        "histogram: 10 beyond p99 when 1% of 1000 samples is slower");
  check(percentile(nine.snapshot(), 0.99).beyond == 9,
        "histogram: 9 beyond p99 when fewer are slower");
  bnr::obs::Histogram edge;
  record_ms(edge, -1);
  check(percentile(edge.snapshot(), 0.5).value == 0,
        "histogram: negative latencies are clamped to zero");
  check(percentile(bnr::obs::Histogram().snapshot(), 0.5).value == 0 &&
            percentile(bnr::obs::Histogram().snapshot(), 0.5).beyond == 0,
        "histogram: an empty histogram has no percentiles");
}

void test_window() {
  WindowTally t;
  // Warm-up requests, one completing after the window opened: excluded.
  t.issued(Phase::kWarmup);
  t.issued(Phase::kWarmup);
  t.completed(Phase::kWarmup, 140, true);
  // Measured: two ok, one failed, one never completed.
  for (int i = 0; i < 4; ++i) t.issued(Phase::kMeasured);
  t.completed(Phase::kMeasured, 10, true);
  t.completed(Phase::kMeasured, 70, true);
  t.completed(Phase::kMeasured, 5, false);
  // Issued after the window closed: excluded.
  t.issued(Phase::kAfter);
  t.completed(Phase::kAfter, 3, true);
  check(t.attempted == 4, "only requests issued in the window are attempted");
  check(t.ok == 2 && t.failed == 1 && t.unfinished() == 1,
        "measured outcomes: two ok, one failed, one unfinished");
  check(t.ok + t.failed + t.unfinished() == t.attempted,
        "every measured request has exactly one outcome");
  const auto snap = t.latency.snapshot();
  check(snap.count == 2 && snap.max == 70000 &&
            within_bucket(percentile(snap, 0.5).value, 10),
        "only measured ok latencies are kept");
  const Window w{at(100), at(200)};
  check(w.contains(at(100)) && w.contains(at(199.999)) &&
            !w.contains(at(200)) && !w.contains(at(99.999)),
        "the window is half-open");
}

void test_slowdown() {
  check(near(slowdown(kNominalRefMs, kNominalRefMs), 1),
        "a host at nominal speed has no slowdown");
  check(near(slowdown(1.5 * kNominalRefMs, 2.5 * kNominalRefMs), 2),
        "the slowdown is the mean of the references before and after");
  check(near(at_nominal_speed(30, false, 2), 15) &&
            near(at_nominal_speed(30, true, 2), 60),
        "times are divided by the slowdown, rates multiplied");
}

void test_names() {
  check(valid_metric_name("service.wait_ms.p50"), "dotted name is valid");
  check(valid_metric_name("setup_s") && valid_metric_name("p99_ms"),
        "plain names are valid");
  check(!valid_metric_name(""), "empty name is invalid");
  check(!valid_metric_name("rpc self"), "space is invalid");
  check(!valid_metric_name(".hidden") && !valid_metric_name("_x"),
        "a name starts with a letter or digit");
  check(!valid_metric_name(std::string(65, 'a')), "names are at most 64");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_histogram();
  test_window();
  test_slowdown();
  test_names();
  if (failures) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
