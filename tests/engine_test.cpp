// Engine determinism and probe-plan tests: the sharded parallel
// executor must produce byte-identical aggregates to the serial path on
// a fixed-seed population, at any thread count.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/amplification_study.hpp"
#include "core/census.hpp"
#include "core/certificates.hpp"
#include "core/compression_study.hpp"
#include "core/funnel.hpp"
#include "core/policy_study.hpp"
#include "core/stream_digest.hpp"
#include "core/tuner.hpp"
#include "engine/engine.hpp"
#include "internet/chain_cache.hpp"
#include "scan/reach.hpp"
#include "util/errors.hpp"

namespace certquic {
namespace {

const internet::model& shared_model() {
  static const internet::model m =
      internet::model::generate({.domains = 2000, .seed = 42});
  return m;
}

/// Full-precision rendering so any bit-level difference in a double
/// (e.g. from a reordered floating-point sum) shows up in the digest.
std::string full(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string digest(const stats::sample_set& s) {
  std::ostringstream out;
  out << s.size();
  if (!s.empty()) {
    // mean() sums in insertion order — it detects reordered merges that
    // the sorted quantiles would mask.
    out << ' ' << full(s.mean()) << ' ' << full(s.min()) << ' '
        << full(s.median()) << ' ' << full(s.max());
  }
  return out.str();
}

std::string digest(const core::census_result& census) {
  std::ostringstream out;
  out << census.initial_size << '|' << census.probed << '|';
  for (const auto count : census.counts) {
    out << count << ',';
  }
  out << '|';
  for (const auto& group : census.group_counts) {
    for (const auto count : group) {
      out << count << ',';
    }
  }
  out << '|' << digest(census.first_burst_amplification);
  out << '|' << census.multi_tls_exceeding_limit << '|'
      << census.max_non_tls_bytes << '|' << census.amplifying << '|'
      << census.amplifying_cloudflare << '|'
      << digest(census.cloudflare_padding) << '|';
  for (const auto& [total, tls] : census.multi_rtt_payload) {
    out << total << ':' << tls << ',';
  }
  return out.str();
}

std::string digest(const core::compression_result& study) {
  std::ostringstream out;
  for (const auto& savings : study.synthetic_savings) {
    out << digest(savings) << '|';
  }
  out << full(study.under_limit_compressed) << '|'
      << full(study.under_limit_uncompressed) << '|'
      << full(study.support_brotli) << '|' << full(study.support_all_three)
      << '|' << digest(study.wild_savings);
  return out.str();
}

std::string digest(const std::vector<core::meta_probe_row>& rows) {
  std::ostringstream out;
  for (const auto& row : rows) {
    out << row.host_octet << ':' << row.responded << ':'
        << row.bytes_received << ':' << full(row.amplification.mean())
        << ':' << full(row.duration_s) << '|';
  }
  return out.str();
}

std::string digest(const core::ack_sweep_result& sweep) {
  std::ostringstream out;
  for (const auto& slice : sweep.slices) {
    out << static_cast<int>(slice.policy) << '|' << slice.probed << '|';
    for (const auto count : slice.counts) {
      out << count << ',';
    }
    out << '|' << digest(slice.handshake_ms) << ';';
  }
  return out.str();
}

std::string digest(const core::telescope_result& t) {
  std::ostringstream out;
  for (const auto& [provider, samples] : t.amplification) {
    out << provider << '=' << digest(samples) << '|';
  }
  out << digest(t.meta_session_duration_s) << '|'
      << full(t.meta_max_amplification);
  return out.str();
}

std::string digest(const std::vector<core::policy_row>& rows) {
  std::ostringstream out;
  for (const auto& row : rows) {
    out << row.bytes_sent << ':' << row.bytes_received << ':'
        << full(row.amplification) << '|';
  }
  return out.str();
}

/// FNV-1a over a digest rendering: one number to pin a long string.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Pins, at full precision and at sample sizes other than the goldens':
// the census payload details behind Fig. 5, the Fig. 13
// rank-group counts, the census without payload details (the
// fig03/fig13 path), the ACK-policy sweep (no golden) and the
// compression study's in-the-wild half. A refactor of the study sinks
// must leave every value bit-identical.
TEST(EnginePins, UngoldenedAggregatesMatchPinnedDigests) {
  const auto& m = shared_model();
  const auto exec = engine::options{.threads = 4};
  const auto census = core::run_census(m, {}, exec);
  EXPECT_EQ(fnv1a(digest(census)), 0xac15babd340ab4c2ULL) << digest(census);
  const auto bare = core::run_census(
      m, {.initial_size = 1250, .collect_payload_details = false}, exec);
  EXPECT_EQ(fnv1a(digest(bare)), 0xe58298bb206d1546ULL) << digest(bare);
  const auto sweep = core::run_ack_sweep(m, 0, exec);
  EXPECT_EQ(fnv1a(digest(sweep)), 0xd115ad4b4ae84af0ULL) << digest(sweep);
  const auto compression =
      core::run_compression_study(m, {.max_chains = 200}, exec);
  EXPECT_EQ(fnv1a(digest(compression)), 0xd2ef9d93cd433f3eULL)
      << digest(compression);
}

// Pins the spoofing studies at full precision: the Fig. 9 telescope
// aggregates (per-provider amplification, Meta durations and maximum),
// the Fig. 11 Meta /24 scan rows and the Table 3 policy rows, all run
// on the backscatter path.
TEST(EnginePins, SpoofingStudiesMatchPinnedDigests) {
  const auto& m = shared_model();
  const auto exec = engine::options{.threads = 4};
  const auto telescope =
      core::run_telescope_study(m, {.sessions_per_provider = 40}, exec);
  EXPECT_EQ(fnv1a(digest(telescope)), 0x81a697dcff9d5cd5ULL)
      << digest(telescope);
  const auto meta = core::run_meta_scan(m, false, 2, exec);
  EXPECT_EQ(fnv1a(digest(meta)), 0xac78822ac7ebba80ULL) << digest(meta);
  const auto policy = core::run_policy_study(m, "le-r3-x1cross", exec);
  EXPECT_EQ(fnv1a(digest(policy)), 0xb2e5312d595d3230ULL) << digest(policy);
}

std::string digest(const core::funnel_result& f) {
  const auto& c = f.collection;
  std::ostringstream out;
  out << f.domains << '|';
  for (const auto count : f.dns_outcomes) {
    out << count << ',';
  }
  out << '|' << c.names_total << ',' << c.names_with_a_record << ','
      << c.http_reachable << ',' << c.https_reachable << ','
      << c.redirects_followed << ',' << c.names_covered << ','
      << c.unique_certificates << ',' << c.quic_capable << '|'
      << f.quic_services << '|' << f.consistency_checked << '|'
      << f.consistency_same;
  return out.str();
}

std::string digest(const core::tuner_result& t) {
  std::ostringstream out;
  out << t.services << '|' << t.multi_rtt_default << '|' << t.multi_rtt_tuned
      << '|' << t.converted_to_one_rtt;
  return out.str();
}

// Pins the two example-driven studies: the §3.1/§3.2 measurement funnel
// (examples/handshake_census) and the §5 Initial-size tuner
// (examples/initial_size_tuner), at the sample sizes those examples use.
TEST(EnginePins, FunnelAndTunerMatchPinnedDigests) {
  const auto& m = shared_model();
  const auto exec = engine::options{.threads = 4};
  const auto funnel = core::run_funnel(m, {.consistency_sample = 200}, exec);
  EXPECT_EQ(fnv1a(digest(funnel)), 0x096e3dec796ba1e5ULL) << digest(funnel);
  const auto tuner = core::run_tuner_study(m, 800, exec);
  EXPECT_EQ(fnv1a(digest(tuner)), 0xf36c62d00a2f9043ULL) << digest(tuner);
}

TEST(EngineDeterminism, CensusIdenticalAcrossThreadCounts) {
  core::census_options opt;
  opt.initial_size = 1362;
  opt.max_services = 300;
  const std::string serial =
      digest(core::run_census(shared_model(), opt, engine::options::serial()));
  for (const std::size_t threads : {2UL, 8UL}) {
    const std::string parallel = digest(
        core::run_census(shared_model(), opt, {.threads = threads}));
    EXPECT_EQ(serial, parallel) << "census diverged at " << threads
                                << " threads";
  }
}

TEST(EngineDeterminism, CompressionStudyIdenticalAcrossThreadCounts) {
  core::compression_options opt;
  opt.max_chains = 200;
  opt.max_probes = 80;
  const std::string serial = digest(core::run_compression_study(
      shared_model(), opt, engine::options::serial()));
  for (const std::size_t threads : {2UL, 8UL}) {
    const std::string parallel = digest(core::run_compression_study(
        shared_model(), opt, {.threads = threads}));
    EXPECT_EQ(serial, parallel) << "compression study diverged at "
                                << threads << " threads";
  }
}

TEST(EngineDeterminism, MetaScanIdenticalAcrossThreadCounts) {
  const std::string serial = digest(core::run_meta_scan(
      shared_model(), false, 2, engine::options::serial()));
  for (const std::size_t threads : {2UL, 8UL}) {
    const std::string parallel = digest(
        core::run_meta_scan(shared_model(), false, 2, {.threads = threads}));
    EXPECT_EQ(serial, parallel) << "meta scan diverged at " << threads
                                << " threads";
  }
}

TEST(EngineDeterminism, TunerStudyIdenticalAcrossThreadCounts) {
  const auto serial =
      core::run_tuner_study(shared_model(), 150, engine::options::serial());
  for (const std::size_t threads : {2UL, 8UL}) {
    const auto parallel =
        core::run_tuner_study(shared_model(), 150, {.threads = threads});
    EXPECT_EQ(serial.services, parallel.services);
    EXPECT_EQ(serial.multi_rtt_default, parallel.multi_rtt_default);
    EXPECT_EQ(serial.multi_rtt_tuned, parallel.multi_rtt_tuned);
    EXPECT_EQ(serial.converted_to_one_rtt, parallel.converted_to_one_rtt);
  }
}

TEST(EngineDeterminism, FunnelConsistencyIdenticalAcrossThreadCounts) {
  const auto serial = core::run_funnel(
      shared_model(), {.consistency_sample = 60}, engine::options::serial());
  for (const std::size_t threads : {2UL, 8UL}) {
    const auto parallel = core::run_funnel(
        shared_model(), {.consistency_sample = 60}, {.threads = threads});
    EXPECT_EQ(serial.consistency_checked, parallel.consistency_checked);
    EXPECT_EQ(serial.consistency_same, parallel.consistency_same);
  }
}

/// Every corpus_result field as (name, rendering) pairs, so a mismatch
/// names the field that moved.
std::vector<std::pair<std::string, std::string>> corpus_fields(
    const core::corpus_result& r) {
  std::vector<std::pair<std::string, std::string>> out;
  const auto add = [&out](std::string name, std::string value) {
    out.emplace_back(std::move(name), std::move(value));
  };
  const auto summary = [](const stats::summary& s) {
    return std::to_string(s.count()) + ' ' + full(s.mean()) + ' ' +
           full(s.variance()) + ' ' + full(s.min()) + ' ' + full(s.max()) +
           ' ' + full(s.total());
  };
  const auto rows = [](const std::vector<core::chain_row>& rs) {
    std::ostringstream o;
    for (const auto& row : rs) {
      o << row.display << ':';
      for (const auto size : row.parent_sizes) {
        o << size << ',';
      }
      o << ':' << row.median_leaf << ':' << row.max_leaf << ':'
        << full(row.share) << ';';
    }
    return o.str();
  };
  add("quic_chain_sizes", digest(r.quic_chain_sizes));
  add("https_chain_sizes", digest(r.https_chain_sizes));
  add("all_chains_over_4071", full(r.all_chains_over_4071));
  add("field_subject", digest(r.field_subject));
  add("field_issuer", digest(r.field_issuer));
  add("field_spki", digest(r.field_spki));
  add("field_extensions", digest(r.field_extensions));
  add("field_signature", digest(r.field_signature));
  for (std::size_t size_class = 0; size_class < 2; ++size_class) {
    for (std::size_t role = 0; role < 2; ++role) {
      for (std::size_t field = 0; field < 6; ++field) {
        add("field_means[" + std::to_string(size_class) + "][" +
                std::to_string(role) + "][" + std::to_string(field) + "]",
            summary(r.field_means[size_class][role][field]));
      }
    }
  }
  for (std::size_t side = 0; side < 2; ++side) {
    for (std::size_t role = 0; role < 2; ++role) {
      std::string counts;
      for (const auto count : r.alg_counts[side][role]) {
        counts += std::to_string(count) + ',';
      }
      add("alg_counts[" + std::to_string(side) + "][" +
              std::to_string(role) + "]",
          counts);
    }
  }
  add("quic_rows", rows(r.quic_rows));
  add("https_rows", rows(r.https_rows));
  add("quic_top10_coverage", full(r.quic_top10_coverage));
  add("https_top10_coverage", full(r.https_top10_coverage));
  add("quadrant_small_low", std::to_string(r.quadrant_small_low));
  add("quadrant_small_high", std::to_string(r.quadrant_small_high));
  add("quadrant_large_high", std::to_string(r.quadrant_large_high));
  add("quadrant_large_low", std::to_string(r.quadrant_large_low));
  add("san_share_p99", full(r.san_share_p99));
  add("san_shares", digest(r.san_shares));
  return out;
}

void expect_same_corpus(const core::corpus_result& a,
                        const core::corpus_result& b, const char* what) {
  const auto fa = corpus_fields(a);
  const auto fb = corpus_fields(b);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].second, fb[i].second) << fa[i].first << " (" << what
                                          << ')';
  }
}

TEST(EngineDeterminism, CorpusMeansIdenticalAcrossThreadCounts) {
  const auto serial = core::analyze_corpus(shared_model(), {.max_services = 400},
                                           engine::options::serial());
  EXPECT_GT(serial.quic_chain_sizes.size(), 0u);
  EXPECT_GT(serial.https_chain_sizes.size(), 0u);
  EXPECT_FALSE(serial.quic_rows.empty());
  for (const std::size_t threads : {2u, 8u}) {
    const auto parallel = core::analyze_corpus(
        shared_model(), {.max_services = 400}, {.threads = threads});
    expect_same_corpus(serial, parallel,
                       (std::to_string(threads) + " threads").c_str());
  }
}

TEST(EngineDeterminism, CorpusThroughAChainCacheMatchesDirect) {
  // The result must not depend on whether a chain came from the cache
  // or was materialized.
  const auto direct = core::analyze_corpus(
      shared_model(), {.max_services = 400}, {.threads = 4});
  internet::chain_cache cache{shared_model()};
  for (int pass = 0; pass < 2; ++pass) {  // cold, then fully warm
    const auto cached = core::analyze_corpus(
        shared_model(), {.max_services = 400, .chains = &cache},
        {.threads = 4});
    expect_same_corpus(direct, cached, pass == 0 ? "cold cache" : "warm");
  }
  EXPECT_GT(cache.hits(), 0u);
}

/// One probe as the executor streams it: its stream digest and the
/// certificate message it captured.
using probe_fingerprint = std::pair<std::uint64_t, bytes>;

probe_fingerprint fingerprint(std::uint32_t service, std::uint32_t variant,
                              const scan::probe_result& result) {
  std::uint64_t h = core::kStreamDigestSeed;
  core::digest_record(h, service, variant, result);
  return {h, result.obs.certificate_message};
}

std::vector<probe_fingerprint> run_plan(const engine::probe_plan& plan,
                                        const engine::options& opt) {
  std::vector<probe_fingerprint> out;
  engine::callback_sink sink{[&out](const engine::probe_record& r) {
    out.push_back(fingerprint(r.service_index, r.variant_index, r.result));
  }};
  engine::executor{shared_model(), opt}.run(plan, sink);
  return out;
}

/// Two chain profiles x two Initial sizes: a multi-variant plan, so the
/// executor probes through its chain table.
engine::probe_plan profile_size_plan(engine::service_filter filter) {
  engine::probe_plan plan;
  plan.filter = filter;
  plan.max_services = 80;
  for (const auto profile :
       {x509::pq_profile::classical, x509::pq_profile::pqc_full}) {
    for (const std::size_t size : {1252u, 1362u}) {
      engine::probe_variant v;
      v.initial_size = size;
      v.chain_profile = profile;
      v.capture_certificate = true;
      plan.variants.push_back(v);
    }
  }
  return plan;
}

TEST(ChainTable, MultiVariantPlanMatchesCachelessProbes) {
  const auto& m = shared_model();
  engine::probe_plan plan = profile_size_plan(engine::service_filter::quic);
  const auto sampled =
      engine::sample_indices(m, plan.filter, plan.max_services);
  ASSERT_GE(sampled.size(), 40u);
  const scan::reach prober{m};
  // Base seed 0 keeps the record-derived seeds; 9 gives every unit its
  // own seed.
  for (const std::uint64_t base_seed : {0u, 9u}) {
    plan.base_seed = base_seed;
    std::vector<probe_fingerprint> expected;
    for (std::uint32_t v = 0; v < plan.variants.size(); ++v) {
      for (const std::uint32_t i : sampled) {
        const auto& rec = m.records()[i];
        scan::probe_options opt = plan.variants[v].to_probe_options();
        opt.seed_override =
            engine::probe_seed(base_seed, rec.domain, plan.variants[v].salt);
        expected.push_back(fingerprint(i, v, prober.probe(rec, opt)));
      }
    }
    for (const std::size_t threads : {1u, 8u}) {
      EXPECT_EQ(run_plan(plan, {.threads = threads}), expected)
          << "base seed " << base_seed << ", " << threads << " threads";
    }
  }
}

TEST(ChainTable, NonQuicServiceStillThrowsInPlanOrder) {
  const auto& m = shared_model();
  const engine::probe_plan plan =
      profile_size_plan(engine::service_filter::tls);
  std::string first_non_quic;
  for (const std::uint32_t i :
       engine::sample_indices(m, plan.filter, plan.max_services)) {
    if (!m.records()[i].serves_quic()) {
      first_non_quic = m.records()[i].domain;
      break;
    }
  }
  ASSERT_FALSE(first_non_quic.empty());
  try {
    (void)run_plan(plan, engine::options::serial());
    FAIL() << "a non-QUIC service was probed";
  } catch (const config_error& e) {
    EXPECT_EQ(std::string{e.what()},
              "reach::probe on non-QUIC service " + first_non_quic);
  }
  // In parallel the first worker to fail reports; it still fails.
  EXPECT_THROW((void)run_plan(plan, {.threads = 8}), config_error);
}

TEST(SampleIndices, CapZeroSelectsEveryMatch) {
  const auto& m = shared_model();
  const auto all = engine::sample_indices(m, engine::service_filter::quic, 0);
  std::size_t quic_total = 0;
  for (const auto& rec : m.records()) {
    quic_total += rec.serves_quic() ? 1 : 0;
  }
  EXPECT_EQ(all.size(), quic_total);
  for (const auto index : all) {
    EXPECT_TRUE(m.records()[index].serves_quic());
  }
}

TEST(SampleIndices, StridingMatchesHistoricalRule) {
  const auto& m = shared_model();
  const std::size_t cap = 100;
  const auto sampled =
      engine::sample_indices(m, engine::service_filter::quic, cap);
  // The historical interleaved walk, reproduced literally.
  std::size_t quic_total = 0;
  for (const auto& rec : m.records()) {
    quic_total += rec.serves_quic() ? 1 : 0;
  }
  const std::size_t stride = (quic_total + cap - 1) / cap;
  std::vector<std::uint32_t> expected;
  std::size_t quic_index = 0;
  for (std::uint32_t i = 0; i < m.records().size(); ++i) {
    if (!m.records()[i].serves_quic()) {
      continue;
    }
    if (quic_index++ % stride == 0) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(sampled, expected);
}

TEST(SampleIndices, TlsFilterIncludesHttpsOnly) {
  const auto& m = shared_model();
  const auto tls = engine::sample_indices(m, engine::service_filter::tls, 0);
  const auto quic = engine::sample_indices(m, engine::service_filter::quic, 0);
  EXPECT_GT(tls.size(), quic.size());
}

TEST(ParallelOrdered, ConsumesInAscendingIndexOrder) {
  std::vector<std::size_t> consumed;
  engine::parallel_ordered(
      257, engine::options{.threads = 8, .chunk = 16},
      [](std::size_t i) { return i * 3; },
      [&](std::size_t i, std::size_t value) {
        EXPECT_EQ(value, i * 3);
        consumed.push_back(i);
      });
  ASSERT_EQ(consumed.size(), 257u);
  for (std::size_t i = 0; i < consumed.size(); ++i) {
    EXPECT_EQ(consumed[i], i);
  }
}

TEST(ParallelOrdered, PropagatesWorkerExceptions) {
  std::atomic<std::size_t> consumed{0};
  EXPECT_THROW(
      engine::parallel_ordered(
          100, engine::options{.threads = 4, .chunk = 8},
          [](std::size_t i) -> int {
            if (i == 57) {
              throw std::runtime_error("boom");
            }
            return static_cast<int>(i);
          },
          [&](std::size_t, int) { ++consumed; }),
      std::runtime_error);
  EXPECT_LT(consumed.load(), 100u);
}

TEST(ProbeSeed, ZeroBaseAndSaltPreserveRecordSeeding) {
  EXPECT_EQ(engine::probe_seed(0, "a.example", 0), 0u);
  EXPECT_NE(engine::probe_seed(1, "a.example", 0), 0u);
  EXPECT_NE(engine::probe_seed(0, "a.example", 1), 0u);
  // Distinct per domain and per salt, stable across calls.
  EXPECT_NE(engine::probe_seed(1, "a.example", 0),
            engine::probe_seed(1, "b.example", 0));
  EXPECT_NE(engine::probe_seed(1, "a.example", 1),
            engine::probe_seed(1, "a.example", 2));
  EXPECT_EQ(engine::probe_seed(7, "a.example", 3),
            engine::probe_seed(7, "a.example", 3));
}

TEST(ProbePlan, SweepBuilderExpandsVariants) {
  engine::probe_plan plan;
  plan.sweep_initial_sizes({1200, 1250, 1472});
  ASSERT_EQ(plan.variants.size(), 3u);
  EXPECT_EQ(plan.variants[0].initial_size, 1200u);
  EXPECT_EQ(plan.variants[2].initial_size, 1472u);
}

TEST(ProbePlan, NoAckVariantNeverAcknowledges) {
  const auto& m = shared_model();
  engine::probe_variant variant;
  variant.initial_size = 1362;
  variant.ack = quic::ack_policy::none;
  const auto plan = engine::probe_plan::single(std::move(variant), 20);
  std::size_t probes = 0;
  engine::callback_sink sink{[&](const engine::probe_record& pr) {
    ++probes;
    // A silent client sends nothing beyond its first flight.
    EXPECT_EQ(pr.result.obs.bytes_sent_total,
              pr.result.obs.bytes_sent_first_flight);
  }};
  engine::executor{m, {.threads = 2}}.run(plan, sink);
  EXPECT_GT(probes, 0u);
}

#if defined(CERTQUIC_ENABLE_ASSERTS)
// CERTQUIC_ASSERT is compiled in (Debug and sanitized builds): the
// sink lifecycle contract must abort loudly on misuse, not corrupt
// aggregates silently. Compiled out with the asserts themselves.
TEST(SinkLifecycleDeath, RecordBeforeBeginAborts) {
  engine::sink_lifecycle lc;
  EXPECT_DEATH_IF_SUPPORTED(lc.record(), "on_record before on_begin");
}

TEST(SinkLifecycleDeath, DoubleBeginAborts) {
  engine::sink_lifecycle lc;
  lc.begin();
  EXPECT_DEATH_IF_SUPPORTED(lc.begin(), "on_begin called twice");
}

TEST(SinkLifecycleDeath, RecordAfterEndAborts) {
  engine::sink_lifecycle lc;
  lc.begin();
  lc.record();
  lc.end();
  EXPECT_DEATH_IF_SUPPORTED(lc.record(), "after on_end");
}

TEST(SinkLifecycleDeath, LegalReuseDoesNotAbort) {
  engine::sink_lifecycle lc;
  lc.begin();
  lc.record();
  lc.end();
  lc.begin();  // re-begin after end is the documented reuse path
  lc.record();
  lc.end();
}
#endif  // CERTQUIC_ENABLE_ASSERTS

TEST(ProbePlan, MultiVariantPlansEnumerateVariantMajor) {
  const auto& m = shared_model();
  engine::probe_plan plan;
  plan.max_services = 10;
  plan.sweep_initial_sizes({1200, 1472});
  std::vector<std::uint32_t> variant_order;
  engine::callback_sink sink{[&](const engine::probe_record& pr) {
    variant_order.push_back(pr.variant_index);
    EXPECT_EQ(pr.variant.initial_size, pr.variant_index == 0 ? 1200u : 1472u);
  }};
  engine::executor{m, {.threads = 4}}.run(plan, sink);
  const std::size_t services = variant_order.size() / 2;
  ASSERT_GT(services, 0u);
  for (std::size_t i = 0; i < variant_order.size(); ++i) {
    EXPECT_EQ(variant_order[i], i < services ? 0u : 1u);
  }
}

}  // namespace
}  // namespace certquic
