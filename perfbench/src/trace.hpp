// Span recorder for the traced run (--trace 1).
//
// Spans are recorded by the benchmark's own code around each call it makes
// into a layer of the library (apps/util kernels, core queues, the
// scheduler, the pipeline runner). Each span carries a name, start, end and
// the id of the span that caused it; spans of one operation (a bzip2 pass
// or a stream pass) descend from that operation's span. Spans stay
// in per-thread memory until write() dumps them at exit, so recording takes
// no lock. Counters (busy nanoseconds summed per thread) sit next to the
// spans for boundaries crossed too often to keep every span.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench::trace {

struct span {
  const char* name = nullptr;  ///< string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: a root (an operation)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-thread accumulators, summed by total().
enum counter : unsigned {
  source_busy_ns,
  mid_busy_ns,
  sink_busy_ns,
  emit_ns,
  emitted,
  kCounters
};

/// Records one finished span; returns its id.
std::uint64_t record(const char* name, std::uint64_t parent,
                     std::int64_t start_ns, std::int64_t end_ns);

/// A fresh span id, for an operation whose children are recorded before
/// the operation's own span ends.
std::uint64_t next_id();

/// Records a span whose id was taken with next_id().
void record_with_id(const char* name, std::uint64_t id, std::uint64_t parent,
                    std::int64_t start_ns, std::int64_t end_ns);

void add(counter c, std::uint64_t v);

/// Most simultaneous activations of a stage body seen so far.
class concurrency_gauge {
 public:
  void enter() {
    const int now = in_.fetch_add(1, std::memory_order_relaxed) + 1;
    int seen = max_.load(std::memory_order_relaxed);
    while (now > seen && !max_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
  }
  void leave() { in_.fetch_sub(1, std::memory_order_relaxed); }
  [[nodiscard]] int max() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int> in_{0};
  std::atomic<int> max_{0};
};

/// Sum over all threads, then reset. Call only while no traced work runs
/// (after execute() returned: its workers have been joined).
std::uint64_t take(counter c);

/// All spans as JSON lines, one span per line.
void write(const std::string& path);

}  // namespace perfbench::trace
