#include "util/rng.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>

namespace certquic {
namespace {

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256** step over `s`.
std::uint64_t step(std::array<std::uint64_t, 4>& s) noexcept {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

rng::rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = splitmix64(s);
  }
}

std::uint64_t rng::next() noexcept { return step(state_); }

std::uint64_t rng::uniform(std::uint64_t lo, std::uint64_t hi) {
  if (lo > hi) {
    throw config_error("rng::uniform: lo > hi");
  }
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) {  // full 64-bit range
    return next();
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t v = next();
  while (v >= limit) {
    v = next();
  }
  return lo + v % span;
}

double rng::uniform01() noexcept {
  // 53 random mantissa bits.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool rng::chance(double p) noexcept {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return uniform01() < p;
}

double rng::normal(double mean, double stddev) noexcept {
  // Box-Muller; one value per call keeps the stream layout simple and
  // deterministic across platforms.
  double u1 = uniform01();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double u2 = uniform01();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double rng::pareto(double lo, double hi, double alpha) {
  if (!(lo > 0.0) || hi < lo || !(alpha > 0.0)) {
    throw config_error("rng::pareto: invalid parameters");
  }
  // Inverse-CDF sampling of a bounded Pareto distribution.
  const double u = uniform01();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

std::size_t rng::weighted_index(std::span<const double> weights) {
  double total = 0.0;
  for (const double w : weights) {
    total += (w > 0.0 ? w : 0.0);
  }
  if (weights.empty() || total <= 0.0) {
    throw config_error("rng::weighted_index: empty or all-zero weights");
  }
  double point = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (point < w) {
      return i;
    }
    point -= w;
  }
  return weights.size() - 1;  // guard against floating-point edge
}

std::string rng::ascii_label(std::size_t min_len, std::size_t max_len) {
  if (min_len > max_len || max_len == 0) {
    throw config_error("rng::ascii_label: invalid length range");
  }
  const auto len = static_cast<std::size_t>(uniform(min_len, max_len));
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>('a' + uniform(0, 25)));
  }
  return out;
}

void rng::fill(std::span<std::uint8_t> out) noexcept {
  // Each output word is stored least significant byte first, which on a
  // little-endian host is its memory layout: 8 bytes per copy.
  static_assert(std::endian::native == std::endian::little,
                "rng::fill copies words in little-endian byte order");
  // The state is stepped in a local copy: a byte store may alias
  // state_, which would make the compiler reload it after every word.
  std::array<std::uint64_t, 4> s = state_;
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t v = step(s);
    std::memcpy(out.data() + i, &v, 8);
  }
  if (i < out.size()) {
    const std::uint64_t v = step(s);
    std::memcpy(out.data() + i, &v, out.size() - i);
  }
  state_ = s;
}

rng rng::fork(std::uint64_t tag) noexcept {
  // Mix the tag into a fresh seed derived from this generator's stream.
  std::uint64_t s = next() ^ (tag * 0x9e3779b97f4a7c15ULL);
  return rng{splitmix64(s)};
}

}  // namespace certquic
