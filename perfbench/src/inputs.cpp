#include "inputs.hpp"

#include <string>

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  rng r(seed ^ (purpose * 0xd1b54a32d192ed03ull));
  return r.next();
}

std::vector<std::uint8_t> make_text(std::size_t bytes, std::uint64_t seed) {
  // One vocabulary for every seed: with a per-seed vocabulary the serial
  // compression time of 16 MiB varied by 15% between seeds (how well a
  // text compresses, and how long its BWT takes, follows its words), so
  // seeds changed the amount of work, not only the content.
  rng v(0x766f636162756c61ull);
  std::vector<std::string> vocab(1024);
  for (auto& w : vocab) {
    const std::size_t len = 2 + v.below(9);
    for (std::size_t i = 0; i < len; ++i) w.push_back(static_cast<char>('a' + v.below(26)));
  }
  rng r(seed);
  std::vector<std::uint8_t> out;
  out.reserve(bytes + 16);
  std::size_t col = 0;
  while (out.size() < bytes) {
    const double u = r.uniform();
    const std::string& w = vocab[static_cast<std::size_t>(u * u * u * 1023.0)];
    out.insert(out.end(), w.begin(), w.end());
    col += w.size() + 1;
    if (r.below(12) == 0) out.push_back('.');
    if (col > 72) {
      out.push_back('\n');
      col = 0;
    } else {
      out.push_back(' ');
    }
  }
  out.resize(bytes);
  return out;
}

rec make_rec(std::uint64_t seed, std::uint64_t seq) {
  rng r(seed ^ (seq * 0x9e3779b97f4a7c15ull));
  rec x{};
  x.seq = seq;
  const std::uint64_t base = r.next();
  for (int k = 0; k < 7; ++k) x.w[k] = base ^ (0x2545f4914f6cdd1dull * static_cast<std::uint64_t>(k + 1));
  return x;
}

std::uint64_t mix(const rec& r) {
  std::uint64_t h = r.seq;
  for (std::uint64_t w : r.w) h = (h ^ w) * 0x100000001b3ull;
  return h ^ (h >> 29);
}

}  // namespace perfbench
