#include "checks.hpp"

#include <exception>

#include "util/mbzip.hpp"

namespace perfbench {

std::string check_bzip2(const std::vector<std::uint8_t>& input,
                        const std::vector<std::uint8_t>& output) {
  std::vector<std::uint8_t> back;
  try {
    back = hq::util::mbzip_decompress(output.data(), output.size());
  } catch (const std::exception& e) {
    return std::string("bzip2: output does not decompress: ") + e.what();
  }
  if (back != input)
    return "bzip2: decompressed output (" + std::to_string(back.size()) +
           " bytes) differs from the input";
  return {};
}

std::uint64_t reference_fold(std::uint64_t seed, std::uint64_t n) {
  std::uint64_t acc = kFoldInit;
  for (std::uint64_t i = 0; i < n; ++i) acc = fold_step(acc, mix(make_rec(seed, i)));
  return acc;
}

std::string stream_checker::verdict(std::uint64_t n, std::uint64_t expected_fold) const {
  if (seen_ != n)
    return "stream: sink saw " + std::to_string(seen_) + " records, expected " +
           std::to_string(n);
  if (out_of_order_ != 0)
    return "stream: " + std::to_string(out_of_order_) + " records out of sequence";
  if (fold_ != expected_fold) return "stream: fold differs from the reference loop";
  return {};
}

}  // namespace perfbench
