// bzip2: the paper's Section 6.3 block compressor through
// apps::bzip2::describe_pipeline over a generated text document: serial
// read, parallel per-block util::mbzip_compress_block (BWT, MTF, Huffman),
// serial in-order write. The mbzip kernel does most of the work; a pass
// moves 128 blocks of 128 KiB through each queue. An operation is one pass
// over the whole document.
#include <algorithm>
#include <cstdio>

#include "apps/bzip2/bzip2.hpp"
#include "checks.hpp"
#include "trace.hpp"
#include "util/mbzip.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kInputBytes = 16u << 20;

/// Traced runs: the block kernel timed per call over the whole input,
/// serially, the way the serial elision calls it (apps.*).
void kernel_pass(const hq::apps::bzip2::config& cfg, const std::vector<std::uint8_t>& input,
                 report* rep) {
  const std::uint64_t pass = trace::next_id();
  const std::int64_t p0 = now_ns();
  std::vector<double> call_ms;
  std::int64_t busy = 0;
  for (std::size_t off = 0; off < input.size(); off += cfg.block_bytes) {
    const std::size_t len = std::min(cfg.block_bytes, input.size() - off);
    const std::int64_t t0 = now_ns();
    const std::vector<std::uint8_t> comp = hq::util::mbzip_compress_block(input.data() + off, len);
    const std::int64_t t1 = now_ns();
    busy += t1 - t0;
    call_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    trace::record("apps.mbzip_compress_block", pass, t0, t1);
  }
  trace::record_with_id("op.bzip2_kernel_pass", pass, 0, p0, now_ns());
  rep->add("apps.compress_s", static_cast<double>(busy) * 1e-9);
  rep->add("apps.block_compress_ms", median(call_ms));
  rep->add("apps.blocks", static_cast<double>(call_ms.size()));
}

}  // namespace

report run_bzip2(const options& o) {
  report rep;
  const std::vector<std::uint8_t> input = make_text(kInputBytes, derive_seed(o.seed, 1));
  hq::apps::bzip2::config cfg;  // the app's defaults: 128 KiB blocks, slices of 16
  cfg.input_bytes = input.size();
  const double setup_s = setup_seconds(o);

  hq::pipe::exec_options opt;
  opt.workers = o.workers;
  opt.seed = o.seed;

  std::vector<double> pass_s, block_rate, exec_ms, overhead_ms, compile;
  std::vector<hq::seg_pool_stats> pools;
  std::vector<std::uint8_t> verified;  // last output that passed check_bzip2
  double measured = 0;
  while (measured < o.seconds) {
    const std::uint64_t span = o.trace ? trace::next_id() : 0;
    hq::apps::bzip2::result r;
    ++rep.attempted;
    const std::int64_t t0 = now_ns();
    hq::pipe::graph g;
    hq::apps::bzip2::describe_pipeline(cfg, input, &r, g);
    if (o.trace) compile.push_back(compile_us(g, span));
    const std::int64_t x0 = now_ns();
    hq::pipe::exec_result ex;
    try {
      ex = hq::pipe::execute(g, o.backend, opt);
    } catch (const std::exception& e) {
      rep.fail(std::string("bzip2: execute threw: ") + e.what(), false);
      measured += static_cast<double>(now_ns() - t0) * 1e-9;
      continue;
    }
    const std::int64_t t1 = now_ns();
    const double s = static_cast<double>(t1 - t0) * 1e-9;
    measured += s;
    // Blocks are compressed independently and written in order, so the
    // stream is byte-identical on every schedule: one output checked in
    // full vouches for every pass that repeats it.
    if (r.output != verified) {
      if (std::string why = check_bzip2(input, r.output); !why.empty()) {
        rep.fail(why, true);
        continue;
      }
      verified = std::move(r.output);
    }
    pass_s.push_back(s);
    block_rate.push_back(static_cast<double>(r.blocks) / s);
    if (!o.trace) continue;
    trace::record_with_id("op.bzip2_pass", span, 0, t0, t1);
    trace::record("pipeline.execute", span, x0, t1);
    exec_ms.push_back(ex.seconds * 1e3);
    overhead_ms.push_back(static_cast<double>(t1 - x0) * 1e-6 - ex.seconds * 1e3);
    pools.push_back(ex.pool);
  }

  std::fprintf(stderr,
               "perfbench: bzip2: %zu passes, pass s q1 %.4f median %.4f q3 %.4f; "
               "output %zu of %zu bytes\n",
               pass_s.size(), quantile(pass_s, 0.25), median(pass_s), quantile(pass_s, 0.75),
               verified.size(), input.size());
  if (!o.trace) {
    e2e m;
    m.setup_s = setup_s;
    const double p50 = median(pass_s);
    m.input_mb_per_s = p50 > 0 ? static_cast<double>(input.size()) / 1e6 / p50 : 0;
    m.records_per_s = median(block_rate);
    m.latency_p50_ms = p50 * 1e3;
    add_e2e(m, &rep);
    return rep;
  }
  kernel_pass(cfg, input, &rep);
  rep.add("pipeline.compile_us", median(compile));
  rep.add("pipeline.exec_ms", median(exec_ms));
  rep.add("pipeline.overhead_ms", median(overhead_ms));
  add_pool_metrics(pools, &rep);
  return rep;
}

}  // namespace perfbench
