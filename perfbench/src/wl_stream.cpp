// stream: fine-grained records through a declared source -> parallel ->
// serial_in_order sink chain with default edge_opts. Each pass pushes the
// same kRecords 64-byte input records; the middle stage does a few ns of mixing per
// record, so the queue data path, slice batching and per-batch spawns do
// nearly all of the work. An operation is one pass.
#include <cstdio>

#include "checks.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kRecords = 1u << 20;
/// A traced run times the source's emit() calls per block of this many
/// records (one clock pair per block, not per record).
constexpr std::size_t kEmitBlock = 1024;
static_assert(kRecords % kEmitBlock == 0);
/// Traced runs keep a span for one record in this many.
constexpr std::uint64_t kSpanSample = 4096;

struct traced_state {
  std::uint64_t pass_span = 0;
  trace::concurrency_gauge mid;
  std::int64_t last_sink_end = 0;
  std::vector<double> sink_gaps;
};

}  // namespace

report run_stream(const options& o) {
  report rep;
  // The input is materialized up front, like the other workloads' inputs,
  // so the source only reads it.
  std::vector<rec> input(kRecords);
  for (std::uint64_t i = 0; i < kRecords; ++i) input[i] = make_rec(o.seed, i);
  const std::uint64_t expected = reference_fold(o.seed, kRecords);
  const double setup_s = setup_seconds(o);

  hq::pipe::exec_options opt;
  opt.workers = o.workers;
  opt.seed = o.seed;

  std::vector<double> pass_s, exec_ms, overhead_ms, compile, emit_ns, gap_ns,
      src_busy, mid_busy, sink_busy;
  std::vector<hq::seg_pool_stats> pools;
  traced_state ts;
  double measured = 0;
  while (measured < o.seconds) {
    stream_checker chk;
    if (o.trace) {
      ts.pass_span = trace::next_id();
      ts.sink_gaps.clear();
      ts.sink_gaps.reserve(kRecords);
      ts.last_sink_end = 0;
    }
    const std::int64_t t0 = now_ns();
    hq::pipe::graph g;
    auto src = g.source<rec>("source", [&](hq::pipe::emit<rec> out) {
      const std::int64_t s0 = o.trace ? now_ns() : 0;
      for (std::uint64_t base = 0; base < kRecords; base += kEmitBlock) {
        const std::int64_t e0 = o.trace ? now_ns() : 0;
        for (std::uint64_t i = base; i < base + kEmitBlock; ++i) out(rec(input[i]));
        if (o.trace) {
          const std::int64_t e1 = now_ns();
          trace::add(trace::emit_ns, static_cast<std::uint64_t>(e1 - e0));
          trace::add(trace::emitted, kEmitBlock);
          if ((base / kEmitBlock) % 64 == 0)
            trace::record("pipeline.emit_block", ts.pass_span, e0, e1);
        }
      }
      if (o.trace) {
        const std::int64_t s1 = now_ns();
        trace::add(trace::source_busy_ns, static_cast<std::uint64_t>(s1 - s0));
        trace::record("pipeline.source", ts.pass_span, s0, s1);
      }
    });
    auto mid = g.stage<rec, rec>(
        "mix", hq::pipe::stage_kind::parallel, [&](rec&& r, hq::pipe::emit<rec> out) {
          if (!o.trace) {
            r.w[0] = mix(r);
            out(std::move(r));
            return;
          }
          const std::int64_t m0 = now_ns();
          ts.mid.enter();
          const std::uint64_t seq = r.seq;
          r.w[0] = mix(r);
          out(std::move(r));
          ts.mid.leave();
          const std::int64_t m1 = now_ns();
          trace::add(trace::mid_busy_ns, static_cast<std::uint64_t>(m1 - m0));
          if (seq % kSpanSample == 0) trace::record("pipeline.mid", ts.pass_span, m0, m1);
        });
    auto snk = g.sink<rec>("sink", hq::pipe::stage_kind::serial_in_order, [&](rec&& r) {
      if (!o.trace) {
        chk.observe(r.seq, r.w[0]);
        return;
      }
      const std::int64_t k0 = now_ns();
      if (ts.last_sink_end != 0) ts.sink_gaps.push_back(static_cast<double>(k0 - ts.last_sink_end));
      chk.observe(r.seq, r.w[0]);
      const std::int64_t k1 = now_ns();
      ts.last_sink_end = k1;
      trace::add(trace::sink_busy_ns, static_cast<std::uint64_t>(k1 - k0));
      if (r.seq % kSpanSample == 0) trace::record("pipeline.sink", ts.pass_span, k0, k1);
    });
    g.connect(src, mid);
    g.connect(mid, snk);
    if (o.trace) compile.push_back(compile_us(g, ts.pass_span));

    ++rep.attempted;
    hq::pipe::exec_result ex;
    const std::int64_t x0 = now_ns();
    try {
      ex = hq::pipe::execute(g, o.backend, opt);
    } catch (const std::exception& e) {
      rep.fail(std::string("stream: execute threw: ") + e.what(), false);
      measured += static_cast<double>(now_ns() - t0) * 1e-9;
      continue;
    }
    const std::int64_t t1 = now_ns();
    const double s = static_cast<double>(t1 - t0) * 1e-9;
    measured += s;
    if (std::string why = chk.verdict(kRecords, expected); !why.empty()) {
      rep.fail(why, true);
      continue;
    }
    pass_s.push_back(s);
    if (!o.trace) continue;

    trace::record_with_id("op.stream_pass", ts.pass_span, 0, t0, t1);
    trace::record("pipeline.execute", ts.pass_span, x0, t1);
    const double wall_ms = static_cast<double>(t1 - x0) * 1e-6;
    exec_ms.push_back(ex.seconds * 1e3);
    overhead_ms.push_back(wall_ms - ex.seconds * 1e3);
    const auto emitted = static_cast<double>(trace::take(trace::emitted));
    emit_ns.push_back(static_cast<double>(trace::take(trace::emit_ns)) / emitted);
    src_busy.push_back(static_cast<double>(trace::take(trace::source_busy_ns)) * 1e-9);
    mid_busy.push_back(static_cast<double>(trace::take(trace::mid_busy_ns)) * 1e-9);
    sink_busy.push_back(static_cast<double>(trace::take(trace::sink_busy_ns)) * 1e-9);
    gap_ns.push_back(median(std::move(ts.sink_gaps)));
    pools.push_back(ex.pool);
  }

  std::fprintf(stderr, "perfbench: stream: %zu passes of %llu records, pass s q1 %.4f median %.4f q3 %.4f\n",
               pass_s.size(), static_cast<unsigned long long>(kRecords), quantile(pass_s, 0.25),
               median(pass_s), quantile(pass_s, 0.75));
  if (!o.trace) {
    e2e m;
    m.setup_s = setup_s;
    const double p50 = median(pass_s);
    m.input_mb_per_s = p50 > 0 ? static_cast<double>(kRecords * sizeof(rec)) / 1e6 / p50 : 0;
    m.records_per_s = p50 > 0 ? static_cast<double>(kRecords) / p50 : 0;
    m.latency_p50_ms = p50 * 1e3;
    add_e2e(m, &rep);
    return rep;
  }
  rep.add("pipeline.compile_us", median(compile));
  rep.add("pipeline.exec_ms", median(exec_ms));
  rep.add("pipeline.overhead_ms", median(overhead_ms));
  rep.add("pipeline.source_emit_ns", median(emit_ns));
  rep.add("pipeline.source_busy_s", median(src_busy));
  rep.add("pipeline.mid_busy_s", median(mid_busy));
  rep.add("pipeline.sink_busy_s", median(sink_busy));
  rep.add("pipeline.sink_gap_ns", median(gap_ns));
  rep.add("pipeline.mid_concurrency_max", ts.mid.max());
  add_pool_metrics(pools, &rep);
  return rep;
}

}  // namespace perfbench
