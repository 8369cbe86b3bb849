// Empirical distributions: quantiles, CDF evaluation and CDF series for
// regenerating the paper's cumulative plots.
#pragma once

#include <cstddef>
#include <vector>

namespace certquic::stats {

/// One (x, F(x)) point of an empirical CDF.
struct cdf_point {
  double x = 0.0;
  double f = 0.0;
};

/// Stores samples and answers distribution queries.
///
/// Samples are sorted lazily on first query; adding after a query is
/// allowed and re-sorts on the next query. A plain single-threaded
/// container: neither mutation nor the const queries (which may sort)
/// are synchronized, so a set is used from one thread at a time.
class sample_set {
 public:
  /// Adds one observation.
  void add(double x);
  /// Pre-allocates capacity for `n` total samples; hot aggregation
  /// paths call this once with the planned probe count so large sweeps
  /// do not pay reallocation churn per add().
  void reserve(std::size_t n);

  /// Sorts the stored samples now. Quantile queries sort lazily anyway;
  /// what this fixes is mean(), which sums in stored order. Aggregators
  /// call it at on_end so their means sum ascending, the order the
  /// pinned digests were taken in.
  void finalize() { ensure_sorted(); }

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  /// Quantile by linear interpolation between order statistics;
  /// q clamped to [0, 1]. Throws std::logic_error on an empty set.
  [[nodiscard]] double quantile(double q) const;
  /// Convenience median == quantile(0.5).
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const { return quantile(0.0); }
  [[nodiscard]] double max() const { return quantile(1.0); }
  /// Arithmetic mean, summed in stored order: insertion order until a
  /// query or finalize() sorts the set, ascending after. 0 when empty.
  [[nodiscard]] double mean() const;

  /// Empirical CDF at x: fraction of samples <= x. 0 for an empty set.
  [[nodiscard]] double fraction_at_or_below(double x) const;
  /// Fraction of samples strictly above x.
  [[nodiscard]] double fraction_above(double x) const;

  /// Evenly spaced CDF series with `points` entries (by quantile), e.g.
  /// for printing figure data. Always includes min and max.
  [[nodiscard]] std::vector<cdf_point> cdf_series(std::size_t points) const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace certquic::stats
