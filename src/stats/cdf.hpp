// Empirical distributions: quantiles, CDF evaluation and CDF series for
// regenerating the paper's cumulative plots.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "util/assert.hpp"

namespace certquic::stats {

/// One (x, F(x)) point of an empirical CDF.
struct cdf_point {
  double x = 0.0;
  double f = 0.0;
};

/// Stores samples and answers distribution queries.
///
/// Samples are sorted lazily on first query; adding after a query is
/// allowed and re-sorts on the next query.
///
/// Thread-safety contract: mutation (add/reserve) is
/// single-threaded, like any container. Const queries are safe to call
/// concurrently — the lazy sort is guarded, so the first query from
/// any thread sorts exactly once and later queries are pure reads.
/// Aggregators that share a finished set across threads should still
/// call finalize() once before publishing it; that makes every
/// subsequent query lock-free instead of paying the guard's fast-path
/// atomic load under contention.
class sample_set {
 public:
  sample_set() = default;
  // The sort guard (a mutex) is per-object state, not data: copies and
  // moves transfer the samples and sort flag and get fresh guards.
  // Copying concurrently with a query on the source is outside the
  // contract above (it reads samples_ unguarded).
  sample_set(const sample_set& other);
  sample_set& operator=(const sample_set& other);
  sample_set(sample_set&& other) noexcept;
  sample_set& operator=(sample_set&& other) noexcept;

  /// Adds one observation.
  void add(double x);
  /// Pre-allocates capacity for `n` total samples; hot aggregation
  /// paths call this once with the planned probe count so large sweeps
  /// do not pay reallocation churn per add().
  void reserve(std::size_t n);

  /// Sorts eagerly so the set can be shared read-only across threads
  /// with no synchronization on the query path. Called by aggregators
  /// in on_end(), before results fan out to parallel readers.
  void finalize();

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  /// Quantile by linear interpolation between order statistics;
  /// q clamped to [0, 1]. Throws std::logic_error on an empty set.
  [[nodiscard]] double quantile(double q) const;
  /// Convenience median == quantile(0.5).
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const { return quantile(0.0); }
  [[nodiscard]] double max() const { return quantile(1.0); }
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

#if defined(CERTQUIC_ENABLE_ASSERTS)
  /// Debug invariant check: queries bump this counter for their
  /// duration, and mutation asserts it is zero — catching the
  /// out-of-contract shape (an aggregator mutating a set it already
  /// published to concurrent readers, i.e. a missing finalize-then-
  /// stop-mutating handoff) with a named failure instead of a silent
  /// race.
  class read_guard {
   public:
    explicit read_guard(std::atomic<int>& readers) noexcept
        : readers_(readers) {
      readers_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~read_guard() { readers_.fetch_sub(1, std::memory_order_acq_rel); }
    read_guard(const read_guard&) = delete;
    read_guard& operator=(const read_guard&) = delete;

   private:
    std::atomic<int>& readers_;
  };
  mutable std::atomic<int> readers_{0};
#endif

  mutable std::vector<double> samples_;
  /// Guards the lazy sort only; queries after the acquire-load of
  /// sorted_ touch samples_ without locking.
  mutable std::mutex sort_mutex_;
  mutable std::atomic<bool> sorted_{true};
};

}  // namespace certquic::stats
