// Certificate-corpus analyses: Figures 2b, 6, 7, 8, 14 and Table 2.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "internet/chain_cache.hpp"
#include "internet/model.hpp"
#include "stats/cdf.hpp"
#include "stats/summary.hpp"

namespace certquic::core {

/// The key-algorithm classes of Table 2 in display order — the four
/// classical classes of the paper followed by the ML-DSA classes of the
/// PQC what-if axis. Under the default `classical` profile the ML-DSA
/// counts are always zero, and Table 2 renders only the first
/// `kClassicalAlgClasses` columns (the published table, goldens
/// unchanged).
inline constexpr std::size_t kClassicalAlgClasses = 4;
inline constexpr std::size_t kAlgClasses = 7;

struct corpus_options {
  /// 0 = analyse every TLS service; otherwise a deterministic sample.
  std::size_t max_services = 0;
  /// Optional shared materialization cache, so a chain is issued once
  /// across passes over the same TLS sample. No driver in src/ or
  /// tools/ sets it; certbench and the tests do.
  const internet::chain_cache* chains = nullptr;
  /// Chain profile the corpus is materialized under (the PQC what-if
  /// switch); `classical` reproduces every published number.
  x509::pq_profile profile = x509::pq_profile::classical;
};

/// One Fig. 7 row, measured from the corpus.
struct chain_row {
  std::string display;
  std::vector<std::size_t> parent_sizes;  // white boxes, served order
  std::size_t median_leaf = 0;            // yellow box
  std::size_t max_leaf = 0;               // orange box extent
  double share = 0.0;                     // of the respective corpus
};

/// The deepest chain issuance serves: a leaf, a superfluous anchor and
/// six monster intermediates (ca::ecosystem::issue_other).
inline constexpr std::size_t kMaxChainDepth = 8;

/// What the corpus fold reads from one certificate.
struct cert_facts {
  x509::field_sizes sizes;
  x509::key_algorithm key_alg = x509::key_algorithm::ecdsa_p256;
  /// Table 2 dedupe key; only parents are deduplicated.
  std::array<std::uint8_t, 16> serial{};
};

/// One chain reduced, on the worker that materialized it, to the facts
/// the ordered fold needs. The facts are held inline, so the chain and
/// everything the worker allocated for it die on that worker, and the
/// sequencer frees nothing.
struct chain_facts {
  std::size_t size = 0;
  std::size_t leaf_san_bytes = 0;
  std::size_t depth = 0;
  std::array<cert_facts, kMaxChainDepth> certs{};  // leaf first

  [[nodiscard]] std::span<const cert_facts> all() const {
    return std::span{certs}.first(depth);
  }
  [[nodiscard]] const cert_facts& leaf() const { return certs.front(); }
  [[nodiscard]] std::span<const cert_facts> parents() const {
    return all().subspan(1);
  }
};

/// Reduces `chain` to its facts. Throws config_error when it is deeper
/// than kMaxChainDepth rather than drop a certificate.
[[nodiscard]] chain_facts reduce(const x509::chain& chain);

/// All certificate-corpus outputs.
struct corpus_result {
  // Fig. 6: chain sizes by deployment class.
  stats::sample_set quic_chain_sizes;
  stats::sample_set https_chain_sizes;
  double all_chains_over_4071 = 0.0;  // "35% exceed 3x1357"

  // Fig. 2b: field-size distributions over every certificate seen.
  stats::sample_set field_subject;
  stats::sample_set field_issuer;
  stats::sample_set field_spki;
  stats::sample_set field_extensions;
  stats::sample_set field_signature;

  // Fig. 8: mean field sizes for QUIC chains, split by chain size class
  // (<=4000 / >4000) and certificate role (leaf / non-leaf). Field
  // order: subject, issuer, SPKI, extensions, signature, other.
  std::array<std::array<std::array<stats::summary, 6>, 2>, 2> field_means;

  // Table 2: unique-certificate algorithm counts,
  // [quic|https_only][leaf|non_leaf][alg].
  std::array<std::array<std::array<std::size_t, kAlgClasses>, 2>, 2>
      alg_counts{};

  // Fig. 7: measured top-chain rows.
  std::vector<chain_row> quic_rows;
  std::vector<chain_row> https_rows;
  double quic_top10_coverage = 0.0;
  double https_top10_coverage = 0.0;

  // Fig. 14: SAN byte share quadrants over QUIC leaf certificates.
  std::size_t quadrant_small_low = 0;   // <=4071 leaf, low SAN share
  std::size_t quadrant_small_high = 0;  // <=4071, SAN share >= p99 line
  std::size_t quadrant_large_high = 0;  // >4071 and high SAN share
  std::size_t quadrant_large_low = 0;
  double san_share_p99 = 0.0;  // the 28.9% threshold in the paper
  stats::sample_set san_shares;
};

[[nodiscard]] corpus_result analyze_corpus(const internet::model& m,
                                           const corpus_options& opt,
                                           const engine::options& exec = {});

/// The larger of the two common amplification budgets, 3x1357 bytes —
/// the threshold behind the paper's "35% of all chains exceed it".
inline constexpr double kAmpLimitBytes = 3.0 * 1357.0;

/// Share of all sized chains above kAmpLimitBytes, weighted across the
/// QUIC and HTTPS-only corpus sides (QUIC term first). Shared by
/// analyze_corpus and the PQC study so the two can never diverge; 0
/// when both sets are empty.
[[nodiscard]] double share_over_amp_limit(const stats::sample_set& quic,
                                          const stats::sample_set& https);

/// Display names for the Table 2 algorithm classes.
[[nodiscard]] const std::array<std::string, kAlgClasses>& alg_class_names();

}  // namespace certquic::core
