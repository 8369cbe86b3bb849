// Unit tests for the HTTPS certificate-collection pipeline.
#include <gtest/gtest.h>

#include "http/collector.hpp"

namespace certquic::http {
namespace {

class CollectorTest : public ::testing::Test {
 protected:
  static const internet::model& shared() {
    static const internet::model m =
        internet::model::generate({.domains = 4000, .seed = 42});
    return m;
  }
};

TEST_F(CollectorTest, FunnelOrderingHolds) {
  const collector c{shared()};
  const auto stats = c.collect_all();
  EXPECT_EQ(stats.names_total, 4000u);
  EXPECT_LE(stats.names_with_a_record, stats.names_total);
  EXPECT_LE(stats.http_reachable, stats.names_with_a_record);
  EXPECT_LE(stats.https_reachable, stats.http_reachable);
  EXPECT_LE(stats.unique_certificates, stats.names_covered);
  EXPECT_LE(stats.quic_capable, stats.names_covered);
  EXPECT_GT(stats.https_reachable, 0u);
  EXPECT_GT(stats.redirects_followed, 0u);
}

TEST_F(CollectorTest, CollectionIsDeterministic) {
  const collector c{shared()};
  const auto a = c.collect_all();
  const auto b = c.collect_all();
  EXPECT_EQ(a.names_covered, b.names_covered);
  EXPECT_EQ(a.unique_certificates, b.unique_certificates);
  EXPECT_EQ(a.redirects_followed, b.redirects_followed);
}

}  // namespace
}  // namespace certquic::http
