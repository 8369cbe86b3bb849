#include "stats/cdf.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace certquic::stats {

void sample_set::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void sample_set::reserve(std::size_t n) { samples_.reserve(n); }

void sample_set::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double sample_set::quantile(double q) const {
  if (samples_.empty()) {
    throw std::logic_error("quantile of empty sample_set");
  }
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double idx = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(idx));
  const auto hi = static_cast<std::size_t>(std::ceil(idx));
  const double frac = idx - std::floor(idx);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double sample_set::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double sample_set::fraction_at_or_below(double x) const {
  if (samples_.empty()) {
    return 0.0;
  }
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double sample_set::fraction_above(double x) const {
  return 1.0 - fraction_at_or_below(x);
}

std::vector<cdf_point> sample_set::cdf_series(std::size_t points) const {
  std::vector<cdf_point> out;
  if (samples_.empty() || points == 0) {
    return out;
  }
  ensure_sorted();
  const std::size_t n = points < 2 ? 2 : points;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(n - 1);
    out.push_back({quantile(q), q});
  }
  return out;
}

}  // namespace certquic::stats
