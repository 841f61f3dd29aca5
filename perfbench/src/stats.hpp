// Bookkeeping shared by the benchmark driver and its self-test: percentile
// selection, the measured-window tally, span self time, the host-speed
// scaling of timing metrics, and metric-name validation. Header-only, and
// its one library include (obs/histogram.hpp) is header-only too, so the
// self-test builds without the crypto stack.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Percentiles

/// Nearest-rank percentile of an ascending sample: the smallest value with at
/// least q of the sample at or below it, together with the number of samples
/// strictly beyond that rank. A tail percentile is only reported when at
/// least `kMinBeyond` samples lie beyond it.
struct Percentile {
  double value = 0;
  size_t beyond = 0;
};

inline constexpr size_t kMinBeyond = 10;

inline Percentile percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return {};
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return {sorted[rank - 1], n - rank};
}

inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Latency histogram

/// Latencies are recorded in microseconds into the library's fixed-footprint
/// obs::Histogram (about 30 KiB, at most 1/64 relative error), so the
/// benchmark's own memory neither grows with the number of requests nor
/// weighs much in rss_mb.
inline void record_ms(bnr::obs::Histogram& h, double ms) {
  h.record(static_cast<uint64_t>(std::llround(std::max(0.0, ms) * 1e3)));
}

/// Nearest-rank percentile of a histogram snapshot in ms (the upper bound of
/// the bucket holding that rank, at most the largest sample), with the
/// number of samples in higher buckets.
inline Percentile percentile(const bnr::obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) return {};
  const size_t n = h.count;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  size_t seen = 0;
  for (uint32_t i = 0; i < bnr::obs::kBucketCount; ++i) {
    seen += h.buckets[i];
    if (seen >= rank)
      return {static_cast<double>(std::min(bnr::obs::bucket_upper(i), h.max)) /
                  1e3,
              n - seen};
  }
  return {static_cast<double>(h.max) / 1e3, 0};
}

// ---------------------------------------------------------------------------
// Measured window

/// The phase a request belongs to, fixed when it is issued: requests issued
/// before the window opens are warm-up and are never counted, even when
/// they complete inside it; the loops stop issuing when it closes, and
/// anything issued after that is excluded too.
enum class Phase : uint8_t { kWarmup, kMeasured, kAfter };

/// Counts every measured request once at issue and once at completion, and
/// keeps the latencies of those that succeeded. Requests of the other
/// phases leave no trace. Thread-safe.
struct WindowTally {
  std::atomic<size_t> attempted{0}, ok{0}, failed{0};
  bnr::obs::Histogram latency;

  void issued(Phase p) {
    if (p == Phase::kMeasured) attempted.fetch_add(1);
  }
  void completed(Phase p, double latency_ms, bool success) {
    if (p != Phase::kMeasured) return;
    if (!success) {
      failed.fetch_add(1);
      return;
    }
    ok.fetch_add(1);
    record_ms(latency, latency_ms);
  }
  /// Measured requests with no completion (only meaningful after a drain).
  size_t unfinished() const { return attempted - ok - failed; }
};

/// Requests issued in [start, end) are measured.
struct Window {
  Clock::time_point start{}, end{};
  bool contains(Clock::time_point t) const { return t >= start && t < end; }
};

/// One client request, kept only by traced runs (their spans need ids).
struct RequestRecord {
  uint64_t id = 0;
  size_t item = 0;
  Phase phase = Phase::kWarmup;
  Clock::time_point issued{};
  Clock::time_point done{};
};

// ---------------------------------------------------------------------------
// Spans

/// One timed interval at a layer boundary. Spans of one request share
/// `request`; `parent` names the enclosing span of the same request (empty
/// at the top). Names are string literals.
struct Span {
  std::string_view name;
  Clock::time_point start{}, end{};
  std::string_view parent;
  uint64_t request = 0;
  double ms() const { return ms_between(start, end); }
};

/// Length in ms of the union of `intervals`, each first clipped to
/// [lo, hi]. Overlapping and nested intervals are counted once.
inline double covered_ms(
    std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals,
    Clock::time_point lo, Clock::time_point hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  bool open = false;
  Clock::time_point cur_lo{}, cur_hi{};
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += ms_between(cur_lo, cur_hi);
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += ms_between(cur_lo, cur_hi);
  return total;
}

/// A span's self time: its duration minus the part of it its children
/// cover.
inline double self_ms(const Span& s, const std::vector<Span>& children) {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
  iv.reserve(children.size());
  for (const auto& c : children) iv.emplace_back(c.start, c.end);
  return s.ms() - covered_ms(std::move(iv), s.start, s.end);
}

// ---------------------------------------------------------------------------
// Host speed

/// The host reference's time at the nominal host speed, about what it read
/// on the 4-vCPU VM the benchmark was tuned on.
inline constexpr double kNominalRefMs = 50;

/// How much slower than nominal the host ran a stretch of work (a set-up or
/// a window part): the mean of the host references timed just before and
/// just after it, over the nominal time. A time measured in the stretch is
/// divided by this, a rate multiplied by it.
inline double slowdown(double ref_before_ms, double ref_after_ms) {
  return 0.5 * (ref_before_ms + ref_after_ms) / kNominalRefMs;
}

/// A timing metric as measured, scaled to the nominal host speed.
inline double at_nominal_speed(double value, bool is_rate, double slow) {
  return is_rate ? value * slow : value / slow;
}

// ---------------------------------------------------------------------------
// Metric names

inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  const char first = name.front();
  return (first >= 'a' && first <= 'z') || (first >= 'A' && first <= 'Z') ||
         (first >= '0' && first <= '9');
}

}  // namespace perfbench
