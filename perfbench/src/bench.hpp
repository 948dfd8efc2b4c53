// Shared pieces of the end-to-end benchmark: command-line options, the
// per-run report, the monotonic clock and small order statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/runner.hpp"

namespace perfbench {

/// Monotonic nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Reference runs only (README); the measured configuration is the
  /// hyperqueue backend at kDefaultWorkers.
  hq::pipe::backend backend = hq::pipe::backend::hyperqueue;
  unsigned workers = 0;
  /// Monotonic instant main() was entered (set-up time starts here).
  std::int64_t start_ns = 0;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
};

/// Pipeline workers of the measured configuration: 4, or fewer on a
/// smaller machine (the load never asks for more workers than CPUs).
unsigned default_workers();

/// A metric the benchmark can print. The table of them (metric_defs()) is
/// the one place a metric's unit is written in the program; run.py checks
/// the printed names and units against BENCHMARK.json.
struct metric_def {
  const char* name;
  const char* unit;
  bool per_layer;  ///< printed by traced runs; otherwise end-to-end
};
const std::vector<metric_def>& metric_defs();

/// What one run prints as its last line.
struct report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> values;

  /// Records a metric of metric_defs(); aborts on a name that is not there.
  void add(const std::string& name, double value);
  /// Count one operation whose run or output check failed; `why` goes to
  /// stderr. Wrong output also clears `correct`.
  void fail(const std::string& why, bool wrong_output);
};

/// Seconds from options::start_ns to now: the set-up time, taken once per
/// process just before the first timed operation.
double setup_seconds(const options& o);

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

/// Process peak resident set (getrusage), in MB (10^6 bytes).
double peak_rss_mb();

/// Writes `rep` as the final JSON line on stdout: every per-layer metric
/// when `traced` (one the workload did not record reads 0), otherwise every
/// end-to-end metric. Returns false, printing nothing, if an end-to-end
/// metric was not recorded.
bool print_report(const report& rep, bool traced);

}  // namespace perfbench
