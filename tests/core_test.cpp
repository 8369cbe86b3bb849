// Unit tests for the core analysis library.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/amplification_study.hpp"
#include "core/browsers.hpp"
#include "core/census.hpp"
#include "core/certificates.hpp"
#include "core/compression_study.hpp"
#include "core/funnel.hpp"
#include "core/policy_study.hpp"
#include "core/serial_set.hpp"
#include "core/tuner.hpp"
#include "x509/extensions.hpp"

namespace certquic::core {
namespace {

const internet::model& shared_model() {
  static const internet::model m =
      internet::model::generate({.domains = 6000, .seed = 42});
  return m;
}

TEST(Census, SweepCoversExpectedSizes) {
  const auto sizes = initial_size_sweep();
  EXPECT_EQ(sizes.front(), 1200u);
  EXPECT_EQ(sizes.back(), 1472u);
  EXPECT_GE(sizes.size(), 27u);
}

TEST(Census, ClassSharesMatchFig3) {
  census_options opt;
  opt.initial_size = 1362;
  opt.max_services = 900;
  const auto census = run_census(shared_model(), opt);
  ASSERT_GT(census.probed, 500u);
  // Paper @1362: 61% amplification, 38% multi-RTT, <1% the rest.
  EXPECT_NEAR(census.share(scan::handshake_class::amplification), 0.61, 0.06);
  EXPECT_NEAR(census.share(scan::handshake_class::multi_rtt), 0.38, 0.06);
  EXPECT_LT(census.share(scan::handshake_class::one_rtt), 0.03);
}

TEST(Census, CloudflareAttribution) {
  census_options opt;
  opt.initial_size = 1362;
  opt.max_services = 900;
  const auto census = run_census(shared_model(), opt);
  ASSERT_GT(census.amplifying, 0u);
  EXPECT_NEAR(static_cast<double>(census.amplifying_cloudflare) /
                  static_cast<double>(census.amplifying),
              0.96, 0.04);
  // §4.1: the superfluous padding is constant.
  EXPECT_DOUBLE_EQ(census.cloudflare_padding.min(), 2462.0);
  EXPECT_DOUBLE_EQ(census.cloudflare_padding.max(), 2462.0);
}

TEST(Census, AmplificationFactorsStaySmall) {
  census_options opt;
  opt.initial_size = 1362;
  opt.max_services = 600;
  const auto census = run_census(shared_model(), opt);
  // Fig. 4: factors exceed 3 but stay below ~6.
  EXPECT_GT(census.first_burst_amplification.quantile(0.6), 3.0);
  EXPECT_LT(census.first_burst_amplification.max(), 6.5);
}

TEST(Census, MultiRttTlsExceedsLimitMostly) {
  census_options opt;
  opt.initial_size = 1362;
  opt.max_services = 900;
  const auto census = run_census(shared_model(), opt);
  ASSERT_FALSE(census.multi_rtt_payload.empty());
  const double share =
      static_cast<double>(census.multi_tls_exceeding_limit) /
      static_cast<double>(census.multi_rtt_payload.size());
  EXPECT_NEAR(share, 0.87, 0.07);  // Fig. 5
}

TEST(AckSweep, InstantAckNeverSlowerAndSilentNeverCompletes) {
  const auto sweep = run_ack_sweep(shared_model(), 80);
  ASSERT_EQ(sweep.slices.size(), 3u);
  const auto& delayed = sweep.slices[0];
  const auto& instant = sweep.slices[1];
  const auto& silent = sweep.slices[2];
  EXPECT_EQ(delayed.policy, quic::ack_policy::delayed);
  EXPECT_EQ(instant.policy, quic::ack_policy::instant);
  EXPECT_EQ(silent.policy, quic::ack_policy::none);

  EXPECT_EQ(delayed.probed, instant.probed);
  EXPECT_EQ(delayed.probed, silent.probed);
  EXPECT_GT(delayed.probed, 0u);

  // ACK timing shifts completion times, not outcomes: the matched
  // pairs land in identical handshake classes.
  EXPECT_EQ(delayed.counts, instant.counts);
  // A silent client cannot advance a multi-RTT handshake — those
  // services degrade to unreachable, the class delta the sweep reports.
  EXPECT_EQ(silent.count(scan::handshake_class::multi_rtt), 0u);
  EXPECT_LT(silent.class_delta(delayed, scan::handshake_class::multi_rtt), 0);
  EXPECT_GT(silent.class_delta(delayed, scan::handshake_class::unreachable), 0);
  EXPECT_LT(silent.completed(), delayed.completed());
  EXPECT_GT(delayed.completed(), 0u);
  // Instant ACKs can only speed a handshake up.
  EXPECT_LE(instant.handshake_ms.median(), delayed.handshake_ms.median());
  EXPECT_LT(instant.handshake_ms.mean(), delayed.handshake_ms.mean());
}

TEST(Corpus, ChainMediansMatchFig6) {
  const auto corpus = analyze_corpus(shared_model(), {.max_services = 2500});
  EXPECT_NEAR(corpus.quic_chain_sizes.median(), 2329.0, 350.0);
  EXPECT_NEAR(corpus.https_chain_sizes.median(), 4022.0, 400.0);
  EXPECT_NEAR(corpus.all_chains_over_4071, 0.35, 0.06);
  EXPECT_LT(corpus.quic_chain_sizes.median(),
            corpus.https_chain_sizes.median());
}

TEST(Corpus, TopChainCoverage) {
  const auto corpus = analyze_corpus(shared_model(), {.max_services = 2500});
  ASSERT_FALSE(corpus.quic_rows.empty());
  EXPECT_NEAR(corpus.quic_top10_coverage, 0.965, 0.03);
  EXPECT_NEAR(corpus.https_top10_coverage, 0.72, 0.05);
  // Rows are sorted by share, Cloudflare first on the QUIC side.
  EXPECT_GT(corpus.quic_rows[0].share, 0.5);
  for (std::size_t i = 1; i < corpus.quic_rows.size(); ++i) {
    EXPECT_GE(corpus.quic_rows[i - 1].share, corpus.quic_rows[i].share);
  }
}

TEST(Corpus, Table2ShapeHolds) {
  const auto corpus = analyze_corpus(shared_model(), {.max_services = 2500});
  // QUIC leaves skew ECDSA-P256; HTTPS-only leaves skew RSA-2048.
  const auto& quic_leaf = corpus.alg_counts[0][0];
  const auto& https_leaf = corpus.alg_counts[1][0];
  EXPECT_GT(quic_leaf[2], quic_leaf[0]);   // EC256 > RSA2048
  EXPECT_GT(https_leaf[0], https_leaf[2]); // RSA2048 > EC256
  // Non-leaf QUIC certificates include substantial EC shares (unique
  // certificates; Table 2: 40.4% EC256 + 22.1% EC384).
  const auto& quic_nonleaf = corpus.alg_counts[0][1];
  const std::size_t total = quic_nonleaf[0] + quic_nonleaf[1] +
                            quic_nonleaf[2] + quic_nonleaf[3];
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(quic_nonleaf[2] + quic_nonleaf[3]) /
                static_cast<double>(total),
            0.35);
}

TEST(Corpus, Fig8LargeChainsCarryHeavyNonLeaves) {
  const auto corpus = analyze_corpus(shared_model(), {.max_services = 2500});
  const double large_nonleaf =
      corpus.field_means[1][1][2].mean() + corpus.field_means[1][1][4].mean();
  const double small_nonleaf =
      corpus.field_means[0][1][2].mean() + corpus.field_means[0][1][4].mean();
  EXPECT_GT(large_nonleaf, small_nonleaf + 150.0);
}

TEST(Corpus, Fig14QuadrantsAreSkewed) {
  const auto corpus = analyze_corpus(shared_model(), {.max_services = 2500});
  const double total = static_cast<double>(
      corpus.quadrant_small_low + corpus.quadrant_small_high +
      corpus.quadrant_large_low + corpus.quadrant_large_high);
  ASSERT_GT(total, 0.0);
  EXPECT_GT(corpus.quadrant_small_low / total, 0.95);
  EXPECT_LT(corpus.quadrant_large_high / total, 0.02);
}

/// A leaf under `parents` copies of one self-signed CA certificate.
x509::chain chain_of_depth(std::size_t parents) {
  rng r{17};
  const auto ca_name = x509::name_ref::common_name("Depth CA");
  const auto leaf_name = x509::name_ref::common_name("depth.example");
  const auto spec = [](x509::name_ref issuer, x509::name_ref subject) {
    return x509::certificate_spec{
        .issuer = issuer,
        .subject = subject,
        .valid = {},
        .key_alg = x509::key_algorithm::ecdsa_p256,
        .sig_alg = x509::signature_algorithm::ecdsa_sha256};
  };
  const auto ca = std::make_shared<const x509::certificate>(
      spec(ca_name, ca_name), r, [](asn1::der_writer& w) {
        x509::write_basic_constraints(w, true);
      });
  const auto leaf = std::make_shared<const x509::certificate>(
      spec(ca_name, leaf_name), r, [](asn1::der_writer& w) {
        x509::write_basic_constraints(w, false);
        x509::write_subject_alt_name(w, {{"", "depth.example"}});
      });
  return x509::chain{
      leaf, std::make_shared<const x509::parent_list>(parents, ca)};
}

TEST(Corpus, ReduceHoldsTheDeepestChainInline) {
  const x509::chain chain = chain_of_depth(kMaxChainDepth - 1);
  const chain_facts facts = reduce(chain);
  ASSERT_EQ(facts.all().size(), kMaxChainDepth);
  EXPECT_EQ(facts.parents().size(), kMaxChainDepth - 1);
  EXPECT_EQ(facts.size, chain.wire_size());
  EXPECT_GT(facts.leaf_san_bytes, 0u);
  EXPECT_EQ(facts.leaf_san_bytes, chain.leaf().san_bytes());
  std::size_t i = 0;
  chain.for_each([&](const x509::certificate& cert) {
    const cert_facts& f = facts.all()[i++];
    EXPECT_EQ(f.sizes.total, cert.size());
    EXPECT_EQ(f.sizes.extensions, cert.sizes().extensions);
    EXPECT_EQ(f.key_alg, cert.key_alg());
    EXPECT_EQ(f.serial, cert.serial());
  });
}

TEST(Corpus, ReduceRejectsADeeperChainInsteadOfTruncating) {
  EXPECT_THROW((void)reduce(chain_of_depth(kMaxChainDepth)), config_error);
}

TEST(SerialSet, CountsEachSerialOnce) {
  // `n` in the serial's leading or in its trailing eight bytes.
  const auto serial_of = [](std::uint64_t n, bool leading) {
    serial_set::serial s{};
    for (std::size_t b = 0; b < 8; ++b) {
      s[leading ? b : 15 - b] = static_cast<std::uint8_t>(n >> (8 * b));
    }
    return s;
  };
  serial_set set;
  // 1,000 members, far past the first table's 64 slots, each inserted
  // twice as it arrives.
  for (std::uint64_t n = 1; n <= 500; ++n) {
    for (const bool leading : {false, true}) {
      EXPECT_TRUE(set.insert(serial_of(n, leading))) << n;
      EXPECT_FALSE(set.insert(serial_of(n, leading))) << n;
    }
  }
  EXPECT_EQ(set.size(), 1000u);
  // Every member is still found after the table grew under it.
  for (std::uint64_t n = 1; n <= 500; ++n) {
    for (const bool leading : {false, true}) {
      EXPECT_FALSE(set.insert(serial_of(n, leading))) << n;
    }
  }
  // An all-zero slot is empty, yet the all-zero serial is a member like
  // any other once inserted.
  const serial_set::serial zero{};
  EXPECT_TRUE(set.insert(zero));
  EXPECT_FALSE(set.insert(zero));
  EXPECT_EQ(set.size(), 1001u);

  serial_set fresh;
  EXPECT_EQ(fresh.size(), 0u);
  EXPECT_TRUE(fresh.insert(zero));
  EXPECT_TRUE(fresh.insert(serial_of(7, true)));
  EXPECT_FALSE(fresh.insert(zero));
  EXPECT_EQ(fresh.size(), 2u);
}

TEST(Compression, RatesAndLimitCompliance) {
  compression_options opt;
  opt.max_chains = 300;
  opt.max_probes = 120;
  const auto study = run_compression_study(shared_model(), opt);
  // §4.2: median synthetic rate ~65%, 99% under the limit compressed.
  EXPECT_GT(study.synthetic_savings[0].median(), 0.55);
  EXPECT_LT(study.synthetic_savings[0].median(), 0.90);
  EXPECT_GT(study.under_limit_compressed, 0.95);
  EXPECT_LT(study.under_limit_uncompressed, study.under_limit_compressed);
  // Table 1: wild mean ~73%, brotli support ~96%.
  EXPECT_GT(study.wild_savings.mean(), 0.55);
  EXPECT_NEAR(study.support_brotli, 0.96, 0.05);
}

TEST(Telescope, HypergiantOrdering) {
  const auto result =
      run_telescope_study(shared_model(), {.sessions_per_provider = 40});
  ASSERT_TRUE(result.amplification.contains("Meta"));
  ASSERT_TRUE(result.amplification.contains("Cloudflare"));
  ASSERT_TRUE(result.amplification.contains("Google"));
  const auto& meta = result.amplification.at("Meta");
  const auto& cf = result.amplification.at("Cloudflare");
  const auto& google = result.amplification.at("Google");
  // Fig. 9: everyone exceeds 3x; CF/Google below 10x; Meta way above.
  EXPECT_GT(cf.median(), 3.0);
  EXPECT_GT(google.median(), 3.0);
  EXPECT_LT(cf.quantile(0.9), 10.0);
  EXPECT_LT(google.quantile(0.9), 10.0);
  EXPECT_GT(meta.median(), 10.0);
  EXPECT_GT(result.meta_max_amplification, 25.0);
  // §4.3: session durations median ~51 s, max ~206 s.
  EXPECT_NEAR(result.meta_session_duration_s.median(), 51.0, 10.0);
  EXPECT_GT(result.meta_session_duration_s.max(), 150.0);
}

TEST(MetaScan, DisclosureImprovesBehaviour) {
  const auto pre = run_meta_scan(shared_model(), false, 2);
  const auto post = run_meta_scan(shared_model(), true, 2);
  double pre_max = 0.0;
  stats::summary post_mean;
  for (const auto& row : pre) {
    if (row.responded) {
      pre_max = std::max(pre_max, row.amplification.mean());
    }
  }
  for (const auto& row : post) {
    if (row.responded) {
      post_mean.add(row.amplification.mean());
    }
  }
  EXPECT_GT(pre_max, 25.0);          // up to 45x pre-disclosure
  EXPECT_LT(post_mean.mean(), 8.0);  // ~5x after
  EXPECT_GT(post_mean.mean(), 3.0);  // but still above the limit
}

TEST(MetaScan, DeepHostMeasuresResends) {
  // A silent probe of an instagram/whatsapp host (>= 7 mvfst resends)
  // collects the whole PTO schedule: ~0.4 * (2^retx - 1) seconds of
  // backscatter, far above the 3x limit.
  const auto pop = shared_model().meta_pop(false);
  const auto deep = std::find_if(pop.begin(), pop.end(), [](const auto& h) {
    return h.serves_quic && h.retransmissions >= 7;
  });
  ASSERT_NE(deep, pop.end());
  const auto rows = run_meta_scan(shared_model(), false, 1);
  ASSERT_EQ(rows.size(), pop.size());
  const meta_probe_row& row =
      rows[static_cast<std::size_t>(deep - pop.begin())];
  EXPECT_EQ(row.host_octet, deep->address.host_octet());
  EXPECT_TRUE(row.responded);
  EXPECT_GT(row.amplification.mean(), 15.0);
  EXPECT_GT(row.duration_s, 40.0);
}

TEST(Funnel, StagesAreConsistent) {
  const auto funnel = run_funnel(shared_model(), {.consistency_sample = 80});
  EXPECT_EQ(funnel.domains, 6000u);
  std::size_t dns_total = 0;
  for (const auto count : funnel.dns_outcomes) {
    dns_total += count;
  }
  EXPECT_EQ(dns_total, funnel.domains);
  EXPECT_GT(funnel.quic_services, 0u);
  EXPECT_NEAR(funnel.consistency_share(), 0.967, 0.035);  // §3.2
}

TEST(Browsers, Table1Profiles) {
  const auto& profiles = browser_profiles();
  ASSERT_EQ(profiles.size(), 3u);
  EXPECT_EQ(profiles[0].name, "Firefox");
  EXPECT_EQ(*profiles[0].initial_size, 1357u);
  EXPECT_TRUE(profiles[0].compression.empty());
  EXPECT_EQ(*profiles[1].initial_size, 1250u);
  EXPECT_EQ(profiles[1].compression.front(), compress::algorithm::brotli);
  EXPECT_FALSE(profiles[2].initial_size.has_value());  // Safari: no QUIC
}

TEST(PolicyStudy, HistoricalOrdering) {
  const auto rows =
      run_policy_study(shared_model(), ca::profile_id::le_r3_x1cross);
  ASSERT_EQ(rows.size(), 5u);
  // Later drafts never allow more attacker-visible bytes than earlier.
  EXPECT_GE(rows[0].bytes_received, rows[2].bytes_received);
  EXPECT_GE(rows[2].bytes_received, rows[3].bytes_received);
  EXPECT_GE(rows[3].bytes_received, rows[4].bytes_received);
  // RFC 9000 bounds backscatter by 3x.
  EXPECT_LE(rows[4].amplification, 3.01);
  EXPECT_GT(rows[0].amplification, 6.0);
}

TEST(Tuner, RecommendationsClampAndConvert) {
  initial_size_tuner tuner;
  EXPECT_EQ(tuner.recommend("unknown.example"),
            initial_size_tuner::kMinInitial);
  tuner.record("small.example", 3000);
  EXPECT_EQ(tuner.recommend("small.example"),
            initial_size_tuner::kMinInitial);
  tuner.record("medium.example", 4100);
  const auto medium = tuner.recommend("medium.example");
  EXPECT_GT(medium, initial_size_tuner::kMinInitial);
  EXPECT_LE(medium, initial_size_tuner::kMaxInitial);
  tuner.record("huge.example", 50000);
  EXPECT_EQ(tuner.recommend("huge.example"),
            initial_size_tuner::kMaxInitial);
  EXPECT_EQ(tuner.size(), 3u);
}

}  // namespace
}  // namespace certquic::core
