// The workloads and the layer probes. Each workload fills the end-to-
// end metrics of the untraced run, or with options::trace the per-layer
// metrics (README.md has the layer -> end-to-end map).
#pragma once

#include "bench.hpp"

namespace perfbench {

report run_bzip2(const options& o);
report run_stream(const options& o);

/// Traced runs only: hq::scheduler construction, an empty run() and
/// destruction (sched.*), and a bare hyperqueue producer/consumer pair on
/// the stream record type (core.push_ns / core.pop_ns).
void probe_scheduler(const options& o, report* rep);
void probe_queue(const options& o, report* rep);

/// Times graph::compile() on a described pipeline (pipeline.compile_us),
/// recording the span under operation span `parent`.
double compile_us(const hq::pipe::graph& g, std::uint64_t parent);

/// core.queue_peak_mb / segments_* from each operation's exec_result::pool.
void add_pool_metrics(const std::vector<hq::seg_pool_stats>& pools, report* rep);

/// End-to-end metrics every workload reports in the same units.
struct e2e {
  double setup_s = 0;
  double input_mb_per_s = 0;
  double records_per_s = 0;
  double latency_p50_ms = 0;
};
void add_e2e(const e2e& m, report* rep);

}  // namespace perfbench
