#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench.hpp"

namespace perfbench {

unsigned default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min(4u, hw);
}

const std::vector<metric_def>& metric_defs() {
  // BENCHMARK.json order: end-to-end metrics, then per-layer metrics.
  static const std::vector<metric_def> defs = {
      {"setup_s", "s", false},
      {"peak_rss_mb", "MB", false},
      {"input_mb_per_s", "MB/s", false},
      {"records_per_s", "records/s", false},
      {"latency_p50_ms", "ms", false},
      {"apps.compress_s", "s", true},
      {"apps.block_compress_ms", "ms", true},
      {"apps.blocks", "count", true},
      {"core.push_ns", "ns", true},
      {"core.pop_ns", "ns", true},
      {"core.queue_peak_mb", "MB", true},
      {"core.segments_allocated", "count", true},
      {"core.segments_recycled", "count", true},
      {"core.segment_recycle_share", "ratio", true},
      {"sched.ctor_ms", "ms", true},
      {"sched.dtor_ms", "ms", true},
      {"sched.run_empty_us", "us", true},
      {"pipeline.compile_us", "us", true},
      {"pipeline.overhead_ms", "ms", true},
      {"pipeline.exec_ms", "ms", true},
      {"pipeline.mid_concurrency_max", "count", true},
      {"pipeline.source_emit_ns", "ns", true},
      {"pipeline.source_busy_s", "s", true},
      {"pipeline.mid_busy_s", "s", true},
      {"pipeline.sink_busy_s", "s", true},
      {"pipeline.sink_gap_ns", "ns", true},
  };
  return defs;
}

void report::add(const std::string& name, double value) {
  const auto& defs = metric_defs();
  if (std::none_of(defs.begin(), defs.end(), [&](const metric_def& d) { return name == d.name; })) {
    std::fprintf(stderr, "perfbench: metric %s is not in the metric table\n", name.c_str());
    std::abort();
  }
  values.emplace_back(name, value);
}

void report::fail(const std::string& why, bool wrong_output) {
  ++failed;
  if (wrong_output) correct = false;
  std::fprintf(stderr, "perfbench: operation failed: %s\n", why.c_str());
}

double setup_seconds(const options& o) {
  return static_cast<double>(now_ns() - o.start_ns) * 1e-9;
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  const auto n = static_cast<double>(xs.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, xs.size());
  auto it = xs.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(xs.begin(), it, xs.end());
  return *it;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

bool print_report(const report& rep, bool traced) {
  std::string out = "{\"correct\": ";
  out += rep.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const metric_def& d : metric_defs()) {
    if (d.per_layer != traced) continue;
    const auto it = std::find_if(rep.values.begin(), rep.values.end(),
                                 [&](const auto& v) { return v.first == d.name; });
    if (it == rep.values.end() && !traced) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s was not measured\n", d.name);
      return false;
    }
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", it == rep.values.end() ? 0.0 : it->second);
    if (!first) out += ", ";
    first = false;
    out += std::string("\"") + d.name + "\": {\"value\": " + num + ", \"unit\": \"" + d.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace perfbench
