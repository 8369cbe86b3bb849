// Unit and property tests for the stats module.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "stats/cdf.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"

namespace certquic::stats {
namespace {

TEST(Summary, BasicMoments) {
  summary s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(v);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.total(), 40.0);
}

TEST(Summary, EmptyIsSafe) {
  const summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_half_width(), 0.0);
}

TEST(SampleSet, QuantilesInterpolate) {
  sample_set s;
  for (const double v : {10.0, 20.0, 30.0, 40.0}) {
    s.add(v);
  }
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0 / 3.0), 20.0);
}

TEST(SampleSet, EmptyThrowsOnQuantile) {
  const sample_set s;
  EXPECT_THROW((void)s.quantile(0.5), std::logic_error);
  EXPECT_EQ(s.fraction_at_or_below(1.0), 0.0);
}

TEST(SampleSet, FractionQueries) {
  sample_set s;
  for (int x = 1; x <= 10; ++x) {
    s.add(x);
  }
  EXPECT_DOUBLE_EQ(s.fraction_at_or_below(5.0), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_above(5.0), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_at_or_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.fraction_above(10.0), 0.0);
}

TEST(SampleSet, AddAfterQueryResorts) {
  sample_set s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  s.add(1.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SampleSet, FinalizeAfterAddResorts) {
  sample_set s;
  for (const double v : {5.0, 1.0, 3.0}) {
    s.add(v);
  }
  s.finalize();
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  // Adding again invalidates the sort; finalize restores it.
  s.add(0.0);
  s.finalize();
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

TEST(SampleSet, CopyAndMovePreserveSamplesAndSortState) {
  sample_set s;
  for (const double v : {9.0, 2.0, 7.0}) {
    s.add(v);
  }
  sample_set copied = s;  // unsorted copy
  EXPECT_DOUBLE_EQ(copied.median(), 7.0);
  s.finalize();
  sample_set moved = std::move(s);
  EXPECT_DOUBLE_EQ(moved.median(), 7.0);
  sample_set assigned;
  assigned = copied;
  EXPECT_DOUBLE_EQ(assigned.quantile(0.0), 2.0);
}

TEST(SampleSet, CdfSeriesSpansRange) {
  sample_set s;
  for (int i = 1; i <= 100; ++i) {
    s.add(i);
  }
  const auto series = s.cdf_series(11);
  ASSERT_EQ(series.size(), 11u);
  EXPECT_DOUBLE_EQ(series.front().x, 1.0);
  EXPECT_DOUBLE_EQ(series.front().f, 0.0);
  EXPECT_DOUBLE_EQ(series.back().x, 100.0);
  EXPECT_DOUBLE_EQ(series.back().f, 1.0);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_LE(series[i - 1].x, series[i].x);
    EXPECT_LT(series[i - 1].f, series[i].f);
  }
}

TEST(SampleSet, MeanMatchesDefinition) {
  sample_set s;
  s.add(2.0);
  s.add(4.0);
  s.add(6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
}

TEST(SampleSet, MeanSumsInStoredOrder) {
  // mean() sums whatever order the samples are stored in: insertion
  // order until something sorts the set, ascending after. The pinned
  // study digests depend on this rule, so it is pinned here with a sum
  // whose result depends on its order.
  const auto fill = [](sample_set& s) {
    for (const double v : {1e16, -1e16, 1.0}) {
      s.add(v);
    }
  };
  sample_set s;
  fill(s);
  EXPECT_EQ(s.mean(), 1.0 / 3.0);  // (1e16 - 1e16) + 1
  s.finalize();
  EXPECT_EQ(s.mean(), 0.0);  // (-1e16 + 1) + 1e16, the 1 absorbed

  sample_set queried;
  fill(queried);
  EXPECT_DOUBLE_EQ(queried.median(), 1.0);  // a query sorts too
  EXPECT_EQ(queried.mean(), 0.0);
}

TEST(SampleSet, ReserveKeepsQueriesIntact) {
  sample_set s;
  s.reserve(1000);
  EXPECT_TRUE(s.empty());
  s.add(3.0);
  s.add(1.0);
  s.reserve(2000);  // reserve after adds must not disturb samples
  s.add(2.0);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

// Property: for random corpora, quantile and fraction_at_or_below are
// consistent inverses (F(Q(q)) >= q).
class QuantileConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileConsistency, FractionOfQuantileCoversQ) {
  rng r{GetParam()};
  sample_set s;
  for (int i = 0; i < 500; ++i) {
    s.add(std::exp(r.normal(5.0, 1.5)));
  }
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double x = s.quantile(q);
    EXPECT_GE(s.fraction_at_or_below(x) + 1e-9, q);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileConsistency,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace certquic::stats
