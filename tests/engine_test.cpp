// Engine tests. The determinism harness: every study pinned by
// EnginePins renders its full-precision digest at 1 thread, at 8
// threads, and at 8 threads with one probe per chunk, and each must
// equal the pinned value (golden_test does the same for every figure
// at 1 and 8 threads). Also the probe plan, the chain table, service
// sampling, the sink lifecycle and the backscatter worlds.
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/amplification_study.hpp"
#include "core/census.hpp"
#include "core/certificates.hpp"
#include "core/compression_study.hpp"
#include "core/funnel.hpp"
#include "core/policy_study.hpp"
#include "core/pqc_study.hpp"
#include "core/stream_digest.hpp"
#include "core/ttfb_study.hpp"
#include "core/tuner.hpp"
#include "engine/backscatter.hpp"
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
    // mean() sums in stored order. For a set that nothing sorts before
    // this digest, such as the compression and telescope studies',
    // that is insertion order, so it detects reordered merges that the
    // sorted quantiles would mask. The census, ack-sweep, pqc and ttfb
    // sets are finalized at on_end, so their means sum ascending and
    // are as blind to order as the quantiles.
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

std::string digest(const core::corpus_result& r) {
  std::string out;
  for (const auto& [name, value] : corpus_fields(r)) {
    out += name + '=' + value + '|';
  }
  return out;
}

std::string digest(const core::class_mix& mix) {
  std::ostringstream out;
  out << mix.probed << ':';
  for (const auto count : mix.counts) {
    out << count << ',';
  }
  return out.str();
}

std::string digest(const core::pqc_study_result& study) {
  std::ostringstream out;
  out << study.initial_size << '|';
  for (const auto& slice : study.slices) {
    out << static_cast<int>(slice.profile) << ':'
        << digest(static_cast<const core::class_mix&>(slice)) << ':'
        << digest(slice.quic_chain_sizes) << ':'
        << digest(slice.https_chain_sizes) << ':'
        << full(slice.over_amp_limit) << ':' << digest(slice.amplification)
        << ';';
  }
  return out.str();
}

std::string digest(const core::ttfb_study_result& study) {
  std::ostringstream out;
  out << study.initial_size << '|';
  for (const auto& cell : study.cells) {
    out << static_cast<int>(cell.profile) << ':' << cell.condition.name << ':'
        << digest(static_cast<const core::class_mix&>(cell)) << ':'
        << digest(cell.ttfb_ms) << ';';
  }
  return out.str();
}

/// One pinned study: renders its full-precision digest under the given
/// engine options; `fnv` is the pinned FNV-1a of that rendering.
struct study_pin {
  const char* name;
  std::string (*render)(const engine::options&);
  std::uint64_t fnv;
};

// Pinned at full precision and at sample sizes other than the goldens'.
// A refactor of the study sinks must leave every value bit-identical,
// and every thread count must render the same value.
const study_pin kStudyPins[] = {
    // The census payload details behind Fig. 5 and the Fig. 13
    // rank-group counts.
    {"census",
     [](const engine::options& exec) {
       return digest(core::run_census(shared_model(), {}, exec));
     },
     0xac15babd340ab4c2ULL},
    // The census without payload details (the fig03/fig13 path).
    {"census_bare",
     [](const engine::options& exec) {
       return digest(core::run_census(
           shared_model(),
           {.initial_size = 1250, .collect_payload_details = false}, exec));
     },
     0xe58298bb206d1546ULL},
    // The ACK-policy sweep (no golden).
    {"ack_sweep",
     [](const engine::options& exec) {
       return digest(core::run_ack_sweep(shared_model(), 0, exec));
     },
     0xd115ad4b4ae84af0ULL},
    // The compression study, its in-the-wild half included.
    {"compression",
     [](const engine::options& exec) {
       return digest(core::run_compression_study(shared_model(),
                                                 {.max_chains = 200}, exec));
     },
     0xd2ef9d93cd433f3eULL},
    // The spoofing studies, all on the backscatter path: the Fig. 9
    // telescope aggregates (per-provider amplification, Meta durations
    // and maximum), the Fig. 11 Meta /24 scan rows and the Table 3
    // policy rows.
    {"telescope",
     [](const engine::options& exec) {
       return digest(core::run_telescope_study(
           shared_model(), {.sessions_per_provider = 40}, exec));
     },
     0x81a697dcff9d5cd5ULL},
    {"meta_scan",
     [](const engine::options& exec) {
       return digest(core::run_meta_scan(shared_model(), false, 2, exec));
     },
     0xac78822ac7ebba80ULL},
    {"policy",
     [](const engine::options& exec) {
       return digest(core::run_policy_study(
           shared_model(), ca::profile_id::le_r3_x1cross, exec));
     },
     0xb2e5312d595d3230ULL},
    // The two example-driven studies at the sample sizes those examples
    // use: the §3.1/§3.2 measurement funnel (examples/handshake_census)
    // and the §5 Initial-size tuner (examples/initial_size_tuner).
    {"funnel",
     [](const engine::options& exec) {
       return digest(
           core::run_funnel(shared_model(), {.consistency_sample = 200}, exec));
     },
     0x096e3dec796ba1e5ULL},
    {"tuner",
     [](const engine::options& exec) {
       return digest(core::run_tuner_study(shared_model(), 800, exec));
     },
     0xf36c62d00a2f9043ULL},
    // The corpus fold (every corpus_result field), the PQC chain-profile
    // slices and the TTFB profile x condition cells.
    {"corpus",
     [](const engine::options& exec) {
       return digest(
           core::analyze_corpus(shared_model(), {.max_services = 400}, exec));
     },
     0xc09fff29803fe331ULL},
    {"pqc",
     [](const engine::options& exec) {
       return digest(core::run_pqc_study(
           shared_model(), {.max_services = 150, .max_corpus = 300}, exec));
     },
     0x6ab194b955d5be39ULL},
    {"ttfb",
     [](const engine::options& exec) {
       core::ttfb_options opt;
       opt.max_services = 150;
       return digest(core::run_ttfb_study(shared_model(), opt, exec));
     },
     0xd1d89ca32f9cb95cULL},
};

// Names the row in gtest's parameter listings and failure messages.
void PrintTo(const study_pin& pin, std::ostream* os) { *os << pin.name; }

// The engine legs every pin must match at. At the default chunk most
// pinned plans fit in one or two chunks; one probe per chunk makes every
// plan span many, so a consumer that took chunks out of order shows.
const engine::options kPinLegs[] = {
    {.threads = 1},
    {.threads = 8},
    {.threads = 8, .chunk = 1},
};

class EnginePins
    : public ::testing::TestWithParam<std::tuple<study_pin, engine::options>> {
};

TEST_P(EnginePins, MatchesPinnedDigest) {
  const auto& [pin, exec] = GetParam();
  const std::string rendered = pin.render(exec);
  EXPECT_EQ(fnv1a(rendered), pin.fnv) << rendered;
}

INSTANTIATE_TEST_SUITE_P(
    Studies, EnginePins,
    ::testing::Combine(::testing::ValuesIn(kStudyPins),
                       ::testing::ValuesIn(kPinLegs)),
    [](const ::testing::TestParamInfo<EnginePins::ParamType>& info) {
      const engine::options& exec = std::get<1>(info.param);
      std::string name = std::string{std::get<0>(info.param).name} + "_" +
                         std::to_string(exec.threads) + "_threads";
      if (exec.chunk != engine::options{}.chunk) {
        name += "_chunk_" + std::to_string(exec.chunk);
      }
      return name;
    });

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
    // The serial table fill renders the same probes: EnginePins' pqc,
    // ttfb and ack_sweep rows run multi-variant plans at 1 and 8
    // threads.
    EXPECT_EQ(run_plan(plan, {.threads = 8}), expected)
        << "base seed " << base_seed;
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

/// One probe of the order test: a service and the options it is
/// probed under.
struct probe_case {
  const internet::service_record* rec = nullptr;
  scan::probe_options opt;
  const char* label = "";
};

/// Golden-population probes that exercise every piece of per-probe
/// state: the three ACK policies, a pqc_full chain, a lossy,
/// bandwidth-capped network with a TTFB exchange, and a compressing,
/// capturing client. The services are a QUIC sample plus the first
/// Retry servers, so Retry, Version-Negotiation-free and budget-blocked
/// handshakes all occur.
std::vector<probe_case> order_cases(const internet::model& m) {
  std::vector<std::uint32_t> services =
      engine::sample_indices(m, engine::service_filter::quic, 36);
  std::size_t retry_servers = 0;
  for (std::uint32_t i = 0; i < m.records().size() && retry_servers < 6;
       ++i) {
    const auto& rec = m.records()[i];
    if (rec.serves_quic() &&
        rec.behavior == internet::behavior_kind::retry_always) {
      services.push_back(i);
      ++retry_servers;
    }
  }

  std::vector<std::pair<const char*, scan::probe_options>> variants;
  variants.emplace_back("delayed-ack", scan::probe_options{});
  scan::probe_options instant;
  instant.ack_delay = 0;
  variants.emplace_back("instant-ack", instant);
  scan::probe_options silent;
  silent.send_acks = false;
  variants.emplace_back("no-ack", silent);
  scan::probe_options pqc;
  pqc.chain_profile = x509::pq_profile::pqc_full;
  pqc.initial_size = 1252;
  variants.emplace_back("pqc_full", pqc);
  scan::probe_options lossy;
  lossy.network = {.name = "lossy-and-bandwidth-capped",
                   .rtt = net::milliseconds(80),
                   .loss_rate = 0.2,
                   .bandwidth_bps = 2'000'000};
  lossy.measure_ttfb = true;
  variants.emplace_back("lossy-capped", lossy);
  scan::probe_options compressing;
  compressing.offer_compression = {compress::algorithm::zstd,
                                   compress::algorithm::brotli};
  compressing.capture_certificate = true;
  compressing.initial_size = 1472;
  variants.emplace_back("compressing", compressing);

  std::vector<probe_case> cases;
  for (std::uint64_t salt = 0; salt < variants.size(); ++salt) {
    const auto& [label, opt] = variants[salt];
    for (const std::uint32_t i : services) {
      probe_case c{&m.records()[i], opt, label};
      // Half the variants keep the record seed, half take an engine
      // seed, so both seeding paths reuse the world.
      if (salt % 2 == 1) {
        c.opt.seed_override =
            engine::probe_seed(9, c.rec->domain, salt);
      }
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

TEST(ProbeWorld, ResultsDoNotDependOnProbeOrder) {
  // Each probe's result must be a function of its service and options
  // alone: run on a fresh thread, after every other probe, or after
  // every other probe in reverse, it must be the same whole result.
  // State a probe leaves behind for the next one fails this test.
  const internet::model& m = shared_model();
  const scan::reach prober{m};
  const std::vector<probe_case> cases = order_cases(m);

  std::vector<scan::probe_result> fresh(cases.size());
  for (std::size_t k = 0; k < cases.size(); ++k) {
    std::thread worker{[&, k] {
      fresh[k] = prober.probe(*cases[k].rec, cases[k].opt);
    }};
    worker.join();
  }
  // The cases cover what they claim to.
  std::size_t retries = 0, compressed = 0, timed_out = 0, ttfb = 0,
              blocked = 0, complete = 0;
  for (const scan::probe_result& r : fresh) {
    retries += r.obs.retry_seen;
    compressed += r.obs.compression_used;
    timed_out += r.obs.timed_out;
    ttfb += r.ttfb > 0;
    blocked += r.obs.acks_before_complete > 0;
    complete += r.obs.handshake_complete;
  }
  EXPECT_GT(retries, 0u);
  EXPECT_GT(compressed, 0u);
  EXPECT_GT(timed_out, 0u);
  EXPECT_GT(ttfb, 0u);
  EXPECT_GT(blocked, 0u);
  EXPECT_GT(complete, 0u);

  const auto expect_fresh = [&](std::size_t k, const char* order) {
    const probe_case& c = cases[k];
    EXPECT_TRUE(prober.probe(*c.rec, c.opt) == fresh[k])
        << order << " probe " << k << ": " << c.rec->domain << " under "
        << c.label;
  };
  for (std::size_t k = 0; k < cases.size(); ++k) {
    expect_fresh(k, "forward");
  }
  for (std::size_t k = cases.size(); k-- > 0;) {
    expect_fresh(k, "reverse");
  }
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

TEST(SinkLifecycle, BeginAndEndWrapEveryRun) {
  const auto& m = shared_model();
  engine::probe_plan plan =
      engine::probe_plan::single(engine::probe_variant{}, 10);
  struct lifecycle_sink final : engine::observation_sink {
    std::size_t begins = 0, records = 0, ends = 0, announced = 0;
    std::size_t variants = 0;
    void on_begin(const engine::probe_plan& p, std::size_t sampled) override {
      ++begins;
      announced = sampled;
      variants = p.variants.size();
      EXPECT_EQ(records, 0u);
    }
    void on_record(const engine::probe_record&) override {
      EXPECT_EQ(begins, 1u);
      EXPECT_EQ(ends, 0u);
      ++records;
    }
    void on_end() override { ++ends; }
  };

  lifecycle_sink sink;
  const engine::executor eng{m, {.threads = 4}};
  eng.run(plan, sink);
  EXPECT_EQ(sink.begins, 1u);
  EXPECT_EQ(sink.ends, 1u);
  EXPECT_EQ(sink.records, sink.announced * sink.variants);
  EXPECT_GT(sink.records, 0u);

  // An empty sample still sees exactly one begin/end pair.
  lifecycle_sink empty;
  eng.run(plan, {}, empty);
  EXPECT_EQ(empty.begins, 1u);
  EXPECT_EQ(empty.ends, 1u);
  EXPECT_EQ(empty.records, 0u);
}

TEST(SinkLifecycle, TeeAndFilterCompose) {
  const auto& m = shared_model();
  const auto plan = engine::probe_plan::single(engine::probe_variant{}, 30);

  std::size_t all = 0;
  std::size_t completed = 0;
  engine::callback_sink count_all{
      [&](const engine::probe_record&) { ++all; }};
  engine::callback_sink count_completed{
      [&](const engine::probe_record& pr) {
        EXPECT_TRUE(pr.result.obs.handshake_complete);
        ++completed;
      }};
  engine::filter_sink only_completed{
      count_completed, [](const engine::probe_record& pr) {
        return pr.result.obs.handshake_complete;
      }};
  engine::tee_sink tee{{&count_all, &only_completed}};
  engine::executor{m, {.threads = 2}}.run(plan, tee);

  EXPECT_GT(all, 0u);
  EXPECT_GT(completed, 0u);
  EXPECT_LE(completed, all);
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

std::string digest(const engine::backscatter_outcome& o) {
  std::ostringstream out;
  out << o.backscatter.provider << ':' << o.backscatter.bytes << ':'
      << o.backscatter.datagrams << ':' << o.backscatter.first_seen << ':'
      << o.backscatter.last_seen << ':' << o.attacker.bytes_sent_total;
  return out.str();
}

TEST(Backscatter, ShardPartitionIsThreadAndChunkInvariant) {
  // Raw run_backscatter check, independent of any study: the same plan
  // must yield the same per-session outcomes at every thread count and
  // whatever chunk the caller asks for, because the session→world
  // partition is part of the plan.
  auto plan = core::build_telescope_plan(shared_model(),
                                         {.sessions_per_provider = 20});
  ASSERT_EQ(plan.sessions.size(), 60u);
  // Fold each provider's sessions onto one endpoint. Sessions of one
  // world then share the server (and chain) its first session spawned,
  // so a session moved to another world would change its bytes.
  for (auto& session : plan.sessions) {
    session.server.ip = net::ipv4{session.server.ip.slash24().value | 1};
  }

  const auto collect = [&](engine::options opt) {
    std::vector<std::string> digests;
    for (const auto& o : engine::run_backscatter(plan, opt)) {
      digests.push_back(digest(o));
    }
    return digests;
  };
  const auto serial = collect(engine::options::serial());
  ASSERT_EQ(serial.size(), plan.sessions.size());
  for (const std::size_t threads : {2UL, 8UL, 16UL}) {
    EXPECT_EQ(serial, collect({.threads = threads}))
        << "backscatter diverged from serial at " << threads << " threads";
  }
  for (const std::size_t chunk : {1UL, 1000UL}) {
    EXPECT_EQ(serial, collect({.threads = 8, .chunk = chunk}))
        << "backscatter diverged from serial at chunk " << chunk;
  }
}

TEST(Backscatter, SensorsAttributeBackscatterPerSession) {
  const auto plan = core::build_telescope_plan(
      shared_model(), {.sessions_per_provider = 8});
  std::size_t answered = 0;
  for (const auto& o : engine::run_backscatter(plan, {.threads = 2})) {
    if (o.backscatter.datagrams == 0) {
      continue;
    }
    ++answered;
    EXPECT_FALSE(o.backscatter.provider.empty());
    EXPECT_GT(o.backscatter.bytes, 0u);
    // The spoofing attacker itself hears nothing.
    EXPECT_EQ(o.attacker.bytes_received_total, 0u);
  }
  EXPECT_GT(answered, plan.sessions.size() / 2);
}

}  // namespace
}  // namespace certquic
