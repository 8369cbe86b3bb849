#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>

namespace certquic::stats {

void summary::add(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double summary::variance() const noexcept {
  if (n_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(n_ - 1);
}

double summary::stddev() const noexcept { return std::sqrt(variance()); }

double summary::ci95_half_width() const noexcept {
  if (n_ < 2) {
    return 0.0;
  }
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

}  // namespace certquic::stats
