// Shared helpers for the experiment binaries (E1-E10). Table printers keep
// the output in the shape of EXPERIMENTS.md rows; JsonWriter emits the
// machine-readable BENCH_*.json files that track the perf trajectory across
// PRs (one {"name", "ns_per_op"} record per measured operation).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

namespace bnr::bench {

/// Milliseconds of wall time for one invocation.
inline double time_ms(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Median of `reps` timings (first call warms caches and is discarded when
/// reps > 1).
inline double median_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) times.push_back(time_ms(fn));
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Nanoseconds per operation: runs `fn` until `min_total_ms` of wall time
/// has accumulated (at least `min_reps` times) and returns the median.
inline double ns_per_op(const std::function<void()>& fn, int min_reps = 5,
                        double min_total_ms = 50.0) {
  fn();  // warm-up, discarded
  std::vector<double> times;
  double total = 0;
  while (static_cast<int>(times.size()) < min_reps || total < min_total_ms) {
    times.push_back(time_ms(fn));
    total += times.back();
    if (times.size() >= 10000) break;
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2] * 1e6;
}

/// Times each of `fns` in `rounds` alternating same-process rounds and
/// returns each one's median ns/op over the rounds. For the ratios CI
/// gates or reports: timed once each, one block after the other, a ratio
/// follows whichever host phase each side happened to run in.
inline std::vector<double> alternating_ns(
    std::initializer_list<std::function<void()>> fns, int rounds,
    int min_reps, double min_total_ms) {
  std::vector<std::vector<double>> per(fns.size());
  for (int r = 0; r < rounds; ++r) {
    size_t i = 0;
    for (const auto& fn : fns)
      per[i++].push_back(ns_per_op(fn, min_reps, min_total_ms));
  }
  std::vector<double> medians;
  for (auto& v : per) {
    std::sort(v.begin(), v.end());
    medians.push_back(v[v.size() / 2]);
  }
  return medians;
}

inline void header(const char* title) {
  printf("\n==== %s ====\n", title);
}

/// Collects (name, ns/op) records and writes them as a JSON array on
/// flush/destruction. The schema is intentionally tiny so CI diffs of the
/// perf trajectory stay readable.
class JsonWriter {
 public:
  explicit JsonWriter(std::string path) : path_(std::move(path)) {}
  ~JsonWriter() { flush(); }

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void record(const std::string& name, double ns) {
    records_.push_back({name, ns});
    printf("%-48s %14.0f ns/op\n", name.c_str(), ns);
  }

  /// Times `fn` and records the result under `name`.
  void bench(const std::string& name, const std::function<void()>& fn,
             int min_reps = 5, double min_total_ms = 50.0) {
    record(name, ns_per_op(fn, min_reps, min_total_ms));
  }

  void flush() {
    if (flushed_) return;
    flushed_ = true;
    FILE* f = fopen(path_.c_str(), "w");
    if (!f) {
      fprintf(stderr, "JsonWriter: cannot open %s\n", path_.c_str());
      return;
    }
    fprintf(f, "[\n");
    for (size_t i = 0; i < records_.size(); ++i)
      fprintf(f, "  {\"name\": \"%s\", \"ns_per_op\": %.1f}%s\n",
              records_[i].name.c_str(), records_[i].ns,
              i + 1 < records_.size() ? "," : "");
    fprintf(f, "]\n");
    fclose(f);
    printf("wrote %s (%zu records)\n", path_.c_str(), records_.size());
  }

 private:
  struct Record {
    std::string name;
    double ns;
  };
  std::string path_;
  std::vector<Record> records_;
  bool flushed_ = false;
};

}  // namespace bnr::bench
