// Seeded input generators of the workloads. The generators live in
// the benchmark, not the library, so a change to the library's own data
// generators cannot change what the benchmark feeds it: the same seed gives
// the same bytes on every commit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// splitmix64 step: the benchmark's only random source.
class rng {
 public:
  explicit rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound), bound > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Independent stream per (seed, purpose), so adding draws for one input
/// never shifts another.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

// ---- bzip2 ------------------------------------------------------------------

/// Text-like document: words from a fixed 1024-word vocabulary drawn with
/// a skewed (Zipf-like) rank distribution, spaces, punctuation, line
/// breaks. The seed picks the word sequence.
std::vector<std::uint8_t> make_text(std::size_t bytes, std::uint64_t seed);

// ---- stream -----------------------------------------------------------------

/// The stream workload's record: 64 bytes, trivially copyable.
struct rec {
  std::uint64_t seq;
  std::uint64_t w[7];
};
static_assert(sizeof(rec) == 64);

/// Record `seq` of the stream generated from `seed`.
rec make_rec(std::uint64_t seed, std::uint64_t seq);

/// The middle stage's per-record work: a few ns of mixing over the payload.
std::uint64_t mix(const rec& r);

}  // namespace perfbench
