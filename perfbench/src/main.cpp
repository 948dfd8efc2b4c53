// perfbench: end-to-end benchmark driver (see README.md). Normally started
// by run.py, which builds it first:
//
//   perfbench --workload bzip2|stream --seed N --seconds S
//             --trace 0|1 [--trace-out PATH]
//             [--backend serial|hyperqueue|hyperqueue_element|pthreads|tbb]
//             [--workers W]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::options;

bool parse_backend(const std::string& s, hq::pipe::backend* b) {
  for (auto c : {hq::pipe::backend::serial, hq::pipe::backend::hyperqueue,
                 hq::pipe::backend::hyperqueue_element, hq::pipe::backend::pthreads,
                 hq::pipe::backend::tbb}) {
    if (s == hq::pipe::to_string(c)) {
      *b = c;
      return true;
    }
  }
  return false;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  o.start_ns = perfbench::now_ns();
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds must be in (0, 600]");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else if (a == "--backend") {
      if (!parse_backend(v, &o.backend)) usage("unknown --backend");
    } else if (a == "--workers") {
      const unsigned long w = std::strtoul(v.c_str(), &end, 10);
      if (w < 1 || w > 64) usage("--workers must be in [1, 64]");
      o.workers = static_cast<unsigned>(w);
    } else {
      usage(("unknown argument " + a).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + a).c_str());
  }
  if (o.workload.empty() || !have_trace) usage("--workload and --trace are required");
  if (o.workers == 0) o.workers = perfbench::default_workers();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const options o = parse(argc, argv);
  perfbench::report rep;
  if (o.workload == "bzip2") {
    rep = perfbench::run_bzip2(o);
  } else if (o.workload == "stream") {
    rep = perfbench::run_stream(o);
  } else {
    usage("unknown --workload");
  }
  if (o.trace) {
    perfbench::probe_scheduler(o, &rep);
    perfbench::probe_queue(o, &rep);
    if (!o.trace_out.empty()) perfbench::trace::write(o.trace_out);
  }
  if (rep.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation completed\n");
    return 1;
  }
  return perfbench::print_report(rep, o.trace) ? 0 : 1;
}
