// Self-test of the benchmark's output checks: each check must accept a
// correct output and reject deliberately corrupted ones (a flipped byte, a
// dropped, duplicated or reordered record), so that no check is one that
// cannot fail. Run with `python3 perfbench/run.py --selftest`; exits 0 only
// when every case behaves.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "apps/bzip2/bzip2.hpp"
#include "checks.hpp"
#include "pipeline/runner.hpp"
#include "util/mbzip.hpp"

namespace {

using namespace perfbench;

int g_bad = 0;

void expect(const char* what, const std::string& verdict, bool want_ok) {
  const bool ok = verdict.empty();
  const bool pass = ok == want_ok;
  if (!pass) ++g_bad;
  std::printf("%s  %-44s %s\n", pass ? "pass" : "FAIL", what,
              ok ? "(accepted)" : verdict.c_str());
}

/// An mbzip stream of `blocks`, in the layout bzip2 writes.
std::vector<std::uint8_t> mbzip_stream(const std::vector<std::vector<std::uint8_t>>& blocks) {
  std::vector<std::uint8_t> s;
  auto put_u32 = [&s](std::size_t v) {
    for (int i = 0; i < 4; ++i) s.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put_u32(blocks.size());
  for (const auto& b : blocks) {
    put_u32(b.size());
    s.insert(s.end(), b.begin(), b.end());
  }
  return s;
}

void bzip2_cases() {
  const std::vector<std::uint8_t> text = make_text(300000, 7);
  hq::apps::bzip2::config cfg;
  cfg.block_bytes = 64u << 10;
  cfg.input_bytes = text.size();
  hq::apps::bzip2::result r;
  hq::pipe::graph g;
  hq::apps::bzip2::describe_pipeline(cfg, text, &r, g);
  (void)hq::pipe::execute(g, hq::pipe::backend::serial);
  const std::vector<std::uint8_t>& out = r.output;
  expect("bzip2: correct output", check_bzip2(text, out), true);

  std::vector<std::uint8_t> flipped = out;
  flipped[flipped.size() / 2] ^= 0x20;
  expect("bzip2: flipped byte", check_bzip2(text, flipped), false);

  std::vector<std::uint8_t> cut(out.begin(), out.end() - 1);
  expect("bzip2: truncated stream", check_bzip2(text, cut), false);

  std::vector<std::vector<std::uint8_t>> blocks;
  for (std::size_t off = 0; off < text.size(); off += cfg.block_bytes)
    blocks.push_back(hq::util::mbzip_compress_block(
        text.data() + off, std::min(cfg.block_bytes, text.size() - off)));
  expect("bzip2: rebuilt stream (control)", check_bzip2(text, mbzip_stream(blocks)), true);

  auto reordered = blocks;
  std::swap(reordered[1], reordered[2]);
  expect("bzip2: reordered blocks", check_bzip2(text, mbzip_stream(reordered)), false);

  auto dropped = blocks;
  dropped.erase(dropped.begin() + 2);
  expect("bzip2: dropped block", check_bzip2(text, mbzip_stream(dropped)), false);
}

std::string stream_verdict(const std::vector<std::pair<std::uint64_t, std::uint64_t>>& seen,
                           std::uint64_t n, std::uint64_t seed) {
  stream_checker chk;
  for (const auto& [seq, v] : seen) chk.observe(seq, v);
  return chk.verdict(n, reference_fold(seed, n));
}

void stream_cases() {
  constexpr std::uint64_t kN = 1000, kSeed = 3;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> good;
  for (std::uint64_t i = 0; i < kN; ++i) good.emplace_back(i, mix(make_rec(kSeed, i)));
  expect("stream: correct sequence", stream_verdict(good, kN, kSeed), true);

  auto dropped = good;
  dropped.erase(dropped.begin() + 500);
  expect("stream: dropped record", stream_verdict(dropped, kN, kSeed), false);

  auto reordered = good;
  std::swap(reordered[10], reordered[11]);
  expect("stream: reordered records", stream_verdict(reordered, kN, kSeed), false);

  auto duplicated = good;
  duplicated[600] = duplicated[599];
  expect("stream: duplicated record", stream_verdict(duplicated, kN, kSeed), false);

  auto flipped = good;
  flipped[123].second ^= 1;
  expect("stream: flipped value bit", stream_verdict(flipped, kN, kSeed), false);
}

}  // namespace

int main() {
  bzip2_cases();
  stream_cases();
  std::printf("%s\n", g_bad == 0 ? "selftest: all checks behave" : "selftest: FAILED");
  return g_bad == 0 ? 0 : 1;
}
