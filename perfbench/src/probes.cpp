// Layer probes of the traced run and the metric helpers the workloads share.
#include <cstdio>
#include <memory>

#include "hq.hpp"
#include "inputs.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

double compile_us(const hq::pipe::graph& g, std::uint64_t parent) {
  const std::int64_t t0 = now_ns();
  const hq::pipe::graph::plan p = g.compile();
  const std::int64_t t1 = now_ns();
  (void)p;
  trace::record("pipeline.compile", parent, t0, t1);
  return static_cast<double>(t1 - t0) * 1e-3;
}

void add_pool_metrics(const std::vector<hq::seg_pool_stats>& pools, report* rep) {
  std::vector<double> peak, alloc, recycled;
  for (const auto& p : pools) {
    peak.push_back(static_cast<double>(p.peak_bytes) / 1e6);
    alloc.push_back(static_cast<double>(p.allocated));
    recycled.push_back(static_cast<double>(p.recycled));
  }
  const double a = median(alloc), r = median(recycled);
  rep->add("core.queue_peak_mb", median(peak));
  rep->add("core.segments_allocated", a);
  rep->add("core.segments_recycled", r);
  // Base: allocated + recycled segment requests of the median operation.
  rep->add("core.segment_recycle_share", a + r > 0 ? r / (a + r) : 0);
}

void add_e2e(const e2e& m, report* rep) {
  rep->add("setup_s", m.setup_s);
  rep->add("peak_rss_mb", peak_rss_mb());
  rep->add("input_mb_per_s", m.input_mb_per_s);
  rep->add("records_per_s", m.records_per_s);
  rep->add("latency_p50_ms", m.latency_p50_ms);
}

void probe_scheduler(const options& o, report* rep) {
  constexpr int kReps = 25;
  std::vector<double> ctor_ms, run_us, dtor_ms;
  for (int i = 0; i < kReps; ++i) {
    const std::int64_t t0 = now_ns();
    auto s = std::make_unique<hq::scheduler>(o.workers);
    const std::int64_t t1 = now_ns();
    s->run([] {});
    const std::int64_t t2 = now_ns();
    s.reset();
    const std::int64_t t3 = now_ns();
    trace::record("sched.ctor", 0, t0, t1);
    trace::record("sched.run_empty", 0, t1, t2);
    trace::record("sched.dtor", 0, t2, t3);
    ctor_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    run_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    dtor_ms.push_back(static_cast<double>(t3 - t2) * 1e-6);
  }
  rep->add("sched.ctor_ms", median(ctor_ms));
  rep->add("sched.dtor_ms", median(dtor_ms));
  rep->add("sched.run_empty_us", median(run_us));
}

void probe_queue(const options& o, report* rep) {
  // One producer task and one consumer task on the stream record type,
  // moving slices of 16 through segments of 32: the default edge_opts of
  // the stream pipeline, without the pipeline lowering around them.
  constexpr std::uint64_t kRecs = 1u << 18;
  constexpr std::size_t kBatch = 16;
  constexpr int kReps = 5;
  std::vector<double> push_ns, pop_ns;
  hq::scheduler sched(o.workers);
  for (int rep_i = 0; rep_i < kReps; ++rep_i) {
    std::int64_t push_total = 0, pop_total = 0;
    std::uint64_t in_order = 0;
    sched.run([&] {
      hq::hyperqueue<rec> q(2 * kBatch);
      hq::spawn(
          [&](hq::pushdep<rec> out) {
            const std::int64_t t0 = now_ns();
            std::uint64_t seq = 0;
            while (seq < kRecs) {
              auto ws = out.get_write_slice(kBatch);
              for (std::size_t i = 0; i < ws.size(); ++i) ws.emplace(i, make_rec(o.seed, seq++));
              ws.commit();
            }
            const std::int64_t t1 = now_ns();
            push_total = t1 - t0;
            trace::record("core.probe_push", 0, t0, t1);
          },
          (hq::pushdep<rec>)q);
      hq::spawn(
          [&](hq::popdep<rec> in) {
            const std::int64_t t0 = now_ns();
            for (;;) {
              auto rs = in.get_read_slice(kBatch);
              if (rs.empty()) break;
              for (const rec& r : rs) in_order += r.seq == in_order ? 1 : 0;
              rs.release();
            }
            const std::int64_t t1 = now_ns();
            pop_total = t1 - t0;
            trace::record("core.probe_pop", 0, t0, t1);
          },
          (hq::popdep<rec>)q);
      hq::sync();
    });
    if (in_order != kRecs) {
      rep->correct = false;
      std::fprintf(stderr, "perfbench: core probe lost or reordered records\n");
    }
    push_ns.push_back(static_cast<double>(push_total) / kRecs);
    pop_ns.push_back(static_cast<double>(pop_total) / kRecs);
  }
  rep->add("core.push_ns", median(push_ns));
  rep->add("core.pop_ns", median(pop_ns));
}

}  // namespace perfbench
