// Shared main for the google-benchmark experiments (E2, E8): a console
// reporter that also records every run into bench_util's JSON schema, so
// they write BENCH_*.json files like the hand-timed experiments do.
#pragma once

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.hpp"

namespace bnr::bench {

class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(JsonWriter& out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run_failed(run, 0)) continue;
      // GetAdjustedRealTime is per-iteration time in run.time_unit units;
      // normalize to ns for the shared JSON schema.
      double ns = run.GetAdjustedRealTime() * 1e9 /
                  benchmark::GetTimeUnitMultiplier(run.time_unit);
      out_.record(run.benchmark_name(), ns);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  // google-benchmark renamed Run::error_occurred to Run::skipped in 1.8;
  // detect whichever this library version has.
  template <class R>
  static auto run_failed(const R& r, int) -> decltype(bool(r.skipped)) {
    return bool(r.skipped);
  }
  template <class R>
  static bool run_failed(const R& r, long) {
    return r.error_occurred;
  }

  JsonWriter& out_;
};

/// Runs the registered benchmarks under google-benchmark's flags and
/// writes one record per run to `path` in the working directory.
inline int run_benchmarks_to_json(int argc, char** argv, const char* path) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonWriter out(path);
  JsonTeeReporter reporter(out);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  out.flush();
  return 0;
}

}  // namespace bnr::bench
