#include "stats/cdf.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>


namespace certquic::stats {

sample_set::sample_set(const sample_set& other)
    : samples_(other.samples_),
      sorted_(other.sorted_.load(std::memory_order_acquire)) {}

sample_set& sample_set::operator=(const sample_set& other) {
  if (this != &other) {
    samples_ = other.samples_;
    sorted_.store(other.sorted_.load(std::memory_order_acquire),
                  std::memory_order_release);
  }
  return *this;
}

sample_set::sample_set(sample_set&& other) noexcept
    : samples_(std::move(other.samples_)),
      sorted_(other.sorted_.load(std::memory_order_acquire)) {}

sample_set& sample_set::operator=(sample_set&& other) noexcept {
  if (this != &other) {
    samples_ = std::move(other.samples_);
    sorted_.store(other.sorted_.load(std::memory_order_acquire),
                  std::memory_order_release);
  }
  return *this;
}

namespace {

#if defined(CERTQUIC_ENABLE_ASSERTS)
constexpr const char* kMutateDuringRead =
    "sample_set: mutation while a concurrent query is in flight — "
    "finalize() the set and stop mutating before sharing it across "
    "threads";
#endif

}  // namespace

void sample_set::add(double x) {
  CERTQUIC_ASSERT(readers_.load(std::memory_order_acquire) == 0,
                  kMutateDuringRead);
  samples_.push_back(x);
  sorted_.store(false, std::memory_order_relaxed);
}

void sample_set::reserve(std::size_t n) {
  CERTQUIC_ASSERT(readers_.load(std::memory_order_acquire) == 0,
                  kMutateDuringRead);
  samples_.reserve(n);
}

void sample_set::finalize() { ensure_sorted(); }

void sample_set::ensure_sorted() const {
  // Double-checked: the release-store below pairs with this acquire,
  // so a thread seeing sorted_ == true also sees the sorted samples_.
  if (sorted_.load(std::memory_order_acquire)) {
    return;
  }
  const std::lock_guard<std::mutex> lock{sort_mutex_};
  if (!sorted_.load(std::memory_order_relaxed)) {
    std::sort(samples_.begin(), samples_.end());
    sorted_.store(true, std::memory_order_release);
  }
}

double sample_set::quantile(double q) const {
#if defined(CERTQUIC_ENABLE_ASSERTS)
  const read_guard guard{readers_};
#endif
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
#if defined(CERTQUIC_ENABLE_ASSERTS)
  const read_guard guard{readers_};
#endif
  if (samples_.empty()) {
    return 0.0;
  }
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double sample_set::fraction_at_or_below(double x) const {
#if defined(CERTQUIC_ENABLE_ASSERTS)
  const read_guard guard{readers_};
#endif
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
