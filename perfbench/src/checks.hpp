// Output checks of the workloads. Each is computed independently of
// the backend that produced the output, and each returns an empty string
// when the output is right or a one-line reason when it is not. The
// self-test (selftest.cpp) feeds each a corrupted output to show it can
// fail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace perfbench {

// ---- bzip2 ------------------------------------------------------------------

/// The output must be an mbzip stream (block count, then each block's
/// length and bytes) that decompresses to `input` byte for byte, blocks in
/// order.
std::string check_bzip2(const std::vector<std::uint8_t>& input,
                        const std::vector<std::uint8_t>& output);

// ---- stream -----------------------------------------------------------------

/// Order-sensitive fold of the values the sink receives.
inline std::uint64_t fold_step(std::uint64_t acc, std::uint64_t v) {
  return (acc ^ v) * 0x9e3779b97f4a7c15ull + 1;
}
inline constexpr std::uint64_t kFoldInit = 0xcbf29ce484222325ull;

/// The same fold over the first `n` records of the seed's stream, computed
/// by a plain loop (no pipeline, no backend).
std::uint64_t reference_fold(std::uint64_t seed, std::uint64_t n);

/// Sink-side check: sequence numbers must arrive as 0..n-1, each once, in
/// order, and the fold of the delivered values must match the reference.
class stream_checker {
 public:
  void observe(std::uint64_t seq, std::uint64_t value) {
    if (seq != next_) ++out_of_order_;
    next_ = seq + 1;
    ++seen_;
    fold_ = fold_step(fold_, value);
  }
  [[nodiscard]] std::string verdict(std::uint64_t n, std::uint64_t expected_fold) const;

 private:
  std::uint64_t next_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::uint64_t fold_ = kFoldInit;
};

}  // namespace perfbench
