// Unit tests for the synthetic-Internet generator.
#include <gtest/gtest.h>

#include <set>

#include "internet/model.hpp"

namespace certquic::internet {
namespace {

class ModelTest : public ::testing::Test {
 protected:
  static const model& shared() {
    static const model m = model::generate({.domains = 8000, .seed = 42});
    return m;
  }
};

TEST_F(ModelTest, PopulationSizeAndRanks) {
  const auto& m = shared();
  ASSERT_EQ(m.records().size(), 8000u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(m.records()[i].rank, i + 1);
  }
}

TEST_F(ModelTest, GenerationIsDeterministic) {
  const auto a = model::generate({.domains = 500, .seed = 9});
  const auto b = model::generate({.domains = 500, .seed = 9});
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    EXPECT_TRUE(a.records()[i] == b.records()[i]) << "record " << i;
  }
}

TEST_F(ModelTest, RecordFitsInSixtyFourBytes) {
  // The record table stays resident for a whole run (the out-of-core
  // spill bounds only the probe records), so this is per-domain RSS.
  EXPECT_LE(sizeof(service_record), 64u);
}

TEST_F(ModelTest, DeploymentSharesMatchFig12) {
  const auto& m = shared();
  std::size_t quic = 0;
  std::size_t https_only = 0;
  for (const auto& rec : m.records()) {
    quic += rec.serves_quic() ? 1 : 0;
    https_only += rec.svc == service_class::https_only ? 1 : 0;
  }
  const double n = static_cast<double>(m.records().size());
  EXPECT_NEAR(quic / n, 0.21, 0.04);        // ~21% QUIC
  EXPECT_NEAR(https_only / n, 0.59, 0.05);  // ~59% HTTPS-only
}

TEST_F(ModelTest, CloudflareDominatesQuicChains) {
  const auto& m = shared();
  std::size_t quic = 0;
  std::size_t cloudflare = 0;
  for (const auto& rec : m.records()) {
    if (!rec.serves_quic()) {
      continue;
    }
    ++quic;
    cloudflare += rec.profile == ca::profile_id::cloudflare ? 1 : 0;
  }
  ASSERT_GT(quic, 0u);
  EXPECT_NEAR(static_cast<double>(cloudflare) / static_cast<double>(quic),
              0.60, 0.05);  // Fig. 7a: 61.5%
}

TEST_F(ModelTest, ChainMaterializationIsDeterministic) {
  const auto& m = shared();
  for (const auto& rec : m.records()) {
    if (!rec.serves_tls()) {
      continue;
    }
    const auto a = m.chain_of(rec, fetch_protocol::https);
    const auto b = m.chain_of(rec, fetch_protocol::https);
    EXPECT_EQ(a.leaf().der(), b.leaf().der());
    break;
  }
}

TEST_F(ModelTest, RotatedServicesServeDifferentLeafOverQuic) {
  const auto& m = shared();
  std::size_t rotated_seen = 0;
  for (const auto& rec : m.records()) {
    if (!rec.serves_quic()) {
      continue;
    }
    const auto https = m.chain_of(rec, fetch_protocol::https);
    const auto quic = m.chain_of(rec, fetch_protocol::quic);
    if (rec.rotated_cert) {
      ++rotated_seen;
      EXPECT_NE(https.leaf().serial(), quic.leaf().serial());
    } else {
      EXPECT_EQ(https.leaf().der(), quic.leaf().der());
    }
    if (rotated_seen >= 3) {
      break;
    }
  }
  EXPECT_GT(rotated_seen, 0u);
}

TEST_F(ModelTest, BehaviorMappingIsConsistent) {
  const auto& m = shared();
  for (const auto& rec : m.records()) {
    if (!rec.serves_quic()) {
      continue;
    }
    const auto b = m.behavior_of(rec);
    switch (rec.behavior) {
      case behavior_kind::cloudflare:
        EXPECT_FALSE(b.count_padding_in_limit);
        EXPECT_TRUE(b.ack_in_separate_datagram);
        break;
      case behavior_kind::legacy_amplifier:
        EXPECT_EQ(b.policy, quic::amplification_policy::min_initial_only);
        break;
      case behavior_kind::standard_no_coalesce:
        EXPECT_FALSE(b.coalesce_levels);
        EXPECT_TRUE(b.count_padding_in_limit);
        break;
      case behavior_kind::standard_lean:
        EXPECT_FALSE(b.ack_in_separate_datagram);
        break;
      case behavior_kind::compliant_coalesce:
        EXPECT_TRUE(b.coalesce_levels);
        break;
      case behavior_kind::retry_always:
        EXPECT_TRUE(b.always_retry);
        break;
    }
  }
}

TEST_F(ModelTest, BrotliSupportMatchesTable1) {
  const auto& m = shared();
  std::size_t quic = 0;
  std::size_t brotli = 0;
  for (const auto& rec : m.records()) {
    if (!rec.serves_quic()) {
      continue;
    }
    ++quic;
    brotli += rec.supports_brotli ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(brotli) / static_cast<double>(quic), 0.96,
              0.03);
}

TEST_F(ModelTest, LoadBalancersConcentrateAtTopRanks) {
  // §4.1: top-1k 25%, top-10k 12%, elsewhere ~1%.
  const auto m = model::generate({.domains = 50000, .seed = 11});
  std::size_t top_lb = 0;
  std::size_t top_n = 0;
  std::size_t tail_lb = 0;
  std::size_t tail_n = 0;
  for (const auto& rec : m.records()) {
    if (!rec.serves_quic()) {
      continue;
    }
    if (rec.rank <= 50) {  // scaled top-1k equivalent (0.1%)
      ++top_n;
      top_lb += rec.lb_overhead > 0 ? 1 : 0;
    } else if (rec.rank > 5000) {
      ++tail_n;
      tail_lb += rec.lb_overhead > 0 ? 1 : 0;
    }
  }
  ASSERT_GT(top_n, 0u);
  ASSERT_GT(tail_n, 0u);
  const double top_rate = static_cast<double>(top_lb) / top_n;
  const double tail_rate = static_cast<double>(tail_lb) / tail_n;
  EXPECT_GT(top_rate, 0.10);
  EXPECT_LT(tail_rate, 0.03);
}

TEST_F(ModelTest, RankGroupPartitioning) {
  const auto& m = shared();
  const auto& first = m.records().front();
  const auto& last = m.records().back();
  EXPECT_EQ(m.rank_group(first), 0u);
  EXPECT_EQ(m.rank_group(last), model::kRankGroups - 1);
}

TEST_F(ModelTest, MetaPopHostGroups) {
  const auto& m = shared();
  const auto pre = m.meta_pop(false);
  EXPECT_GT(pre.size(), 60u);
  std::set<int> octets;
  bool found_facebook = false;
  bool found_instagram = false;
  bool found_silent = false;
  for (const auto& host : pre) {
    octets.insert(host.address.host_octet());
    if (host.address.host_octet() == 35) {
      EXPECT_TRUE(host.serves_quic);
      EXPECT_EQ(host.retransmissions, 1u);
      found_facebook = true;
    }
    if (host.address.host_octet() == 60) {
      EXPECT_GE(host.retransmissions, 7u);
      found_instagram = true;
    }
    found_silent |= !host.serves_quic;
  }
  EXPECT_TRUE(found_facebook);
  EXPECT_TRUE(found_instagram);
  EXPECT_TRUE(found_silent);
  EXPECT_TRUE(octets.contains(183));
  EXPECT_FALSE(octets.contains(44));  // gap in the observed octet list

  const auto post = m.meta_pop(true);
  for (const auto& host : post) {
    if (host.serves_quic) {
      EXPECT_EQ(host.retransmissions, 1u);  // homogeneous after the fix
    }
  }
}

TEST_F(ModelTest, MetaChainsScaleWithSans) {
  const auto& m = shared();
  const auto pop = m.meta_pop(false);
  const meta_host* fb = nullptr;
  const meta_host* ig = nullptr;
  for (const auto& host : pop) {
    if (host.address.host_octet() == 35) {
      fb = &host;
    }
    if (host.address.host_octet() == 60) {
      ig = &host;
    }
  }
  ASSERT_NE(fb, nullptr);
  ASSERT_NE(ig, nullptr);
  EXPECT_GT(m.meta_chain(*ig).wire_size(), m.meta_chain(*fb).wire_size());
  EXPECT_FALSE(m.meta_behavior(*ig).limit_covers_retransmissions);
}

class ChurnTest : public ::testing::Test {
 protected:
  static constexpr config kConfig{.domains = 1500, .seed = 7};

  static void expect_same_records(const model& a, const model& b) {
    ASSERT_EQ(a.records().size(), b.records().size());
    for (std::size_t i = 0; i < a.records().size(); ++i) {
      EXPECT_TRUE(a.records()[i] == b.records()[i]) << "record " << i;
    }
  }
};

TEST_F(ChurnTest, EpochZeroIsTheBasePopulation) {
  const model base = model::generate(kConfig);
  const model at0 = model::at_epoch(kConfig, {}, 0);
  expect_same_records(base, at0);
}

TEST_F(ChurnTest, EpochIsPureFunctionOfConfigAndIndex) {
  // Epoch 3 must be bit-identical whether epochs 0..2 were ever
  // materialized (a resumed service regenerates exactly the world the
  // killed process probed).
  const model direct = model::at_epoch(kConfig, {}, 3);
  for (std::uint64_t e = 0; e < 3; ++e) {
    const model detour = model::at_epoch(kConfig, {}, e);
    ASSERT_EQ(detour.records().size(), kConfig.domains);
  }
  const model again = model::at_epoch(kConfig, {}, 3);
  expect_same_records(direct, again);
}

TEST_F(ChurnTest, SteppingOneWorldEqualsAtEpoch) {
  // The epoch service generates once and steps in place; every
  // intermediate world, and each step's summary, must be what at_epoch
  // computes from scratch.
  const churn_config churn{};
  model stepped = model::generate(kConfig);
  EXPECT_EQ(stepped.epoch(), 0u);
  for (std::uint64_t e = 1; e <= 3; ++e) {
    const churn_summary step = stepped.step_epoch(churn);
    churn_summary fresh;
    const model direct = model::at_epoch(kConfig, churn, e, &fresh);
    EXPECT_EQ(stepped.epoch(), e);
    EXPECT_EQ(step, fresh) << "epoch " << e;
    EXPECT_EQ(step.epoch, e);
    EXPECT_GT(step.total(), 0u) << "epoch " << e;
    expect_same_records(stepped, direct);
  }
}

TEST_F(ChurnTest, ChurnActuallyChangesThePopulation) {
  churn_summary summary;
  const model base = model::at_epoch(kConfig, {}, 0);
  const model evolved = model::at_epoch(kConfig, {}, 4, &summary);
  EXPECT_EQ(summary.epoch, 4u);
  EXPECT_GT(summary.total(), 0u);
  EXPECT_GT(summary.key_rotations, 0u);

  std::size_t differing = 0;
  ASSERT_EQ(base.records().size(), evolved.records().size());
  for (std::size_t i = 0; i < base.records().size(); ++i) {
    const service_record& rb = base.records()[i];
    const service_record& re = evolved.records()[i];
    EXPECT_EQ(rb.domain, re.domain) << "churn must not rename domains";
    EXPECT_EQ(rb.rank, re.rank);
    if (rb.seed != re.seed || rb.svc != re.svc || rb.profile != re.profile) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST_F(ChurnTest, EpochSeedsAreDistinctPerEpoch) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t e = 0; e < 64; ++e) {
    seeds.insert(epoch_seed(42, e));
  }
  EXPECT_EQ(seeds.size(), 64u);
  EXPECT_NE(epoch_seed(42, 1), epoch_seed(43, 1));
}

}  // namespace
}  // namespace certquic::internet
