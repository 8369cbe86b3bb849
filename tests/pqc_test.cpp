// Tier-1 suite for the PQC chain-profile axis: the classical slice
// must reproduce the existing corpus (fig06) numbers exactly, larger
// profiles must shift sizes and classes monotonically, and the
// (record, protocol, profile) chain cache must keep profiles apart and
// memoize thread-safely. engine_test's EnginePins harness pins the
// study at 1 and 8 threads.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/certificates.hpp"
#include "core/pqc_study.hpp"
#include "core/ttfb_study.hpp"
#include "internet/chain_cache.hpp"

namespace certquic::core {
namespace {

const internet::model& shared_model() {
  static const internet::model m =
      internet::model::generate({.domains = 2000, .seed = 42});
  return m;
}

pqc_study_result run_study() {
  pqc_options opt;
  opt.max_services = 150;
  opt.max_corpus = 300;
  return run_pqc_study(shared_model(), opt);
}

void expect_identical_sets(const stats::sample_set& a,
                           const stats::sample_set& b) {
  ASSERT_EQ(a.size(), b.size());
  if (a.empty()) {
    return;
  }
  // Bit-identical, not approximately equal: the whole point of the
  // engine's determinism contract. Quantiles first — they sort both
  // sets in place, so the mean then sums in one canonical order
  // (sample_set::mean adds in storage order, which earlier queries may
  // have re-sorted).
  EXPECT_EQ(a.median(), b.median());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.mean(), b.mean());
}

TEST(PqcStudy, ClassicalReproducesCorpusChainSizes) {
  // The classical slice of the study walks the same deterministic TLS
  // sample as analyze_corpus — the fig06 aggregator — so its chain-size
  // distributions must match that study bit-for-bit.
  const auto corpus = analyze_corpus(shared_model(), {.max_services = 300});
  const auto study = run_study();
  const auto& classical = study.slice(x509::pq_profile::classical);
  expect_identical_sets(classical.quic_chain_sizes, corpus.quic_chain_sizes);
  expect_identical_sets(classical.https_chain_sizes,
                        corpus.https_chain_sizes);
  EXPECT_EQ(classical.over_amp_limit, corpus.all_chains_over_4071);
}

TEST(PqcStudy, ProfilesShiftSizesAndClassesMonotonically) {
  const auto study = run_study();
  const auto& classical = study.slice(x509::pq_profile::classical);
  const auto& leaf = study.slice(x509::pq_profile::pqc_leaf);
  const auto& full = study.slice(x509::pq_profile::pqc_full);
  EXPECT_LT(classical.quic_chain_sizes.median(),
            leaf.quic_chain_sizes.median());
  EXPECT_LT(leaf.quic_chain_sizes.median(), full.quic_chain_sizes.median());
  EXPECT_LE(classical.over_amp_limit, leaf.over_amp_limit);
  EXPECT_LE(leaf.over_amp_limit, full.over_amp_limit);
  // Bigger chains can only push handshakes out of 1-RTT.
  EXPECT_LE(full.count(scan::handshake_class::one_rtt),
            classical.count(scan::handshake_class::one_rtt));
  // Every profile probed the same services.
  EXPECT_EQ(classical.probed, leaf.probed);
  EXPECT_EQ(classical.probed, full.probed);
}

TEST(PqcStudy, TtfbMonotoneAcrossProfilesUnderMatchedRandomness) {
  // Matched per-probe randomness (base seed and salt zero) makes the
  // profile runs paired samples: the only difference is chain size, so
  // per-service TTFB can only grow with the profile — which makes the
  // medians monotone classical <= pqc_leaf <= pqc_full on every
  // network condition.
  ttfb_options opt;
  opt.max_services = 150;
  const auto study = run_ttfb_study(shared_model(), opt);
  ASSERT_EQ(study.cells.size(), 3 * study.conditions.size());
  for (std::size_t c = 0; c < study.conditions.size(); ++c) {
    const auto& classical = study.cell(x509::pq_profile::classical, c);
    const auto& leaf = study.cell(x509::pq_profile::pqc_leaf, c);
    const auto& full = study.cell(x509::pq_profile::pqc_full, c);
    ASSERT_FALSE(classical.ttfb_ms.empty());
    EXPECT_LE(classical.ttfb_ms.median(), leaf.ttfb_ms.median())
        << study.conditions[c].name;
    EXPECT_LE(leaf.ttfb_ms.median(), full.ttfb_ms.median())
        << study.conditions[c].name;
    // Bigger chains never make more probes fetch the object.
    EXPECT_LE(full.completed(), classical.completed())
        << study.conditions[c].name;
  }
}

TEST(ChainCache, KeysIncludeChainProfile) {
  const auto& m = shared_model();
  const internet::service_record* rec = nullptr;
  for (const auto& r : m.records()) {
    if (r.serves_tls()) {
      rec = &r;
      break;
    }
  }
  ASSERT_NE(rec, nullptr);

  internet::chain_cache cache{m};
  const auto classical =
      cache.chain_of(*rec, internet::fetch_protocol::https);
  const auto full = cache.chain_of(*rec, internet::fetch_protocol::https,
                                   x509::pq_profile::pqc_full);
  EXPECT_NE(classical.get(), full.get());
  EXPECT_LT(classical->wire_size(), full->wire_size());
  EXPECT_EQ(cache.size(), 2u);
  // Repeat lookups hit the memoized entries.
  EXPECT_EQ(cache.chain_of(*rec, internet::fetch_protocol::https).get(),
            classical.get());
  EXPECT_EQ(cache
                .chain_of(*rec, internet::fetch_protocol::https,
                          x509::pq_profile::pqc_full)
                .get(),
            full.get());
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(ChainCache, MemoizesAndIsThreadSafe) {
  const auto& m = shared_model();
  const internet::chain_cache cache{m};

  std::vector<const internet::service_record*> tls_records;
  for (const auto& rec : m.records()) {
    if (rec.serves_tls()) {
      tls_records.push_back(&rec);
    }
    if (tls_records.size() == 64) {
      break;
    }
  }
  ASSERT_FALSE(tls_records.empty());

  // Concurrent repeat visits: every thread fetches every record twice.
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < 8; ++t) {
    pool.emplace_back([&] {
      for (int round = 0; round < 2; ++round) {
        for (const auto* rec : tls_records) {
          const auto cached =
              cache.chain_of(*rec, internet::fetch_protocol::https);
          const auto direct =
              m.chain_of(*rec, internet::fetch_protocol::https);
          if (cached->concatenated_der() != direct.concatenated_der()) {
            mismatch.store(true);
          }
        }
      }
    });
  }
  for (auto& t : pool) {
    t.join();
  }
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(cache.size(), tls_records.size());
  EXPECT_GT(cache.hits(), 0u);

  // Protocols are distinct cache keys (rotated certificates differ).
  const auto quic_side =
      cache.chain_of(*tls_records.front(), internet::fetch_protocol::quic);
  EXPECT_EQ(cache.size(), tls_records.size() + 1);
  (void)quic_side;
}

}  // namespace
}  // namespace certquic::core
