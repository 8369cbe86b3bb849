// Streaming summary statistics (count / mean / stddev / min / max).
#pragma once

#include <cstddef>
#include <limits>

namespace certquic::stats {

/// Welford-style accumulator: numerically stable mean and variance in one
/// pass, no sample storage. Used wherever only moments are reported
/// (e.g. mean amplification factors with confidence intervals, Fig. 11).
class summary {
 public:
  /// Adds one observation.
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  /// Sample standard deviation.
  [[nodiscard]] double stddev() const noexcept;
  /// Half-width of the 95% normal-approximation confidence interval for
  /// the mean (1.96 * stddev / sqrt(n)); 0 with fewer than two samples.
  [[nodiscard]] double ci95_half_width() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double total() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace certquic::stats
