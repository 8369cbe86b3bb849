// Deterministic random number generation for reproducible simulations.
//
// Every stochastic decision in the synthetic Internet (domain names, CA
// assignment, key algorithms, loss, ...) flows through this generator so
// that a fixed seed reproduces the entire corpus bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/errors.hpp"

namespace certquic {

/// One splitmix64 step: advances `x` and returns the mixed output.
/// The seeding/mixing primitive shared by `rng` construction, stream
/// forking, and the engine's per-probe seed derivation.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& x) noexcept;

/// xoshiro256** PRNG seeded through splitmix64.
///
/// Small, fast and with well-understood statistical quality; good enough
/// for simulation workloads (not for cryptography — none is needed here,
/// signatures in this project are size-faithful placeholders).
class rng {
 public:
  /// Seeds the generator deterministically from a 64-bit seed.
  explicit rng(std::uint64_t seed = 0x5eed'cafe'f00d'd00dULL) noexcept;

  /// Next raw 64-bit output.
  [[nodiscard]] std::uint64_t next() noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Throws config_error if lo > hi.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept;

  /// Bernoulli trial with probability `p` (clamped to [0, 1]).
  [[nodiscard]] bool chance(double p) noexcept;

  /// Standard normal via Box-Muller.
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0) noexcept;

  /// Bounded Pareto draw over [lo, hi] with tail index `alpha`.
  /// Used for SAN counts ("cruise-liner" certificates) and similar
  /// heavy-tailed count distributions.
  [[nodiscard]] double pareto(double lo, double hi, double alpha);

  /// Picks an index in [0, weights.size()) with probability proportional
  /// to weights[i]. Throws config_error on empty or all-zero weights.
  [[nodiscard]] std::size_t weighted_index(std::span<const double> weights);

  /// Uniformly picks one element of a non-empty container.
  template <typename Container>
  [[nodiscard]] const auto& pick(const Container& c) {
    if (c.empty()) {
      throw config_error("rng::pick on empty container");
    }
    return c[static_cast<std::size_t>(uniform(0, c.size() - 1))];
  }

  /// Random lowercase ASCII label of length in [min_len, max_len];
  /// used for synthetic domain names and DN fields.
  [[nodiscard]] std::string ascii_label(std::size_t min_len,
                                        std::size_t max_len);

  /// Fills `out` with random bytes.
  void fill(std::span<std::uint8_t> out) noexcept;

  /// Derives an independent child generator; `tag` separates streams so
  /// that adding draws in one subsystem does not disturb another.
  [[nodiscard]] rng fork(std::uint64_t tag) noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace certquic
