// Post-quantum chain-profile what-if study (Chou & Cao, "Network
// Impact of Post-Quantum Certificate Chain sizes on Time to First Byte
// in TLS Deployments", applied to this paper's QUIC datasets).
//
// The study sweeps the server-side chain-profile axis — classical,
// pqc_leaf (ML-DSA-44 leaf, classical intermediates), pqc_full (ML-DSA
// everywhere) — over both aggregator populations:
//  * the certificate corpus (census + corpus: every TLS service),
//    yielding per-profile chain-size CDFs and the share of chains that
//    exceed the 3x1357 amplification budget;
//  * the handshake census (every QUIC service), probed once per
//    profile on the engine with matched per-probe randomness, yielding
//    amplification-factor distributions and handshake-class deltas
//    (1-RTT vs multi-RTT vs failed) relative to the classical baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "core/class_mix.hpp"
#include "engine/engine.hpp"
#include "internet/model.hpp"
#include "stats/cdf.hpp"

namespace certquic::core {

struct pqc_options {
  /// Client Initial size of the census pass (the paper's default).
  std::size_t initial_size = 1362;
  /// 0 = probe every QUIC service in the census pass; otherwise the
  /// shared deterministic sample.
  std::size_t max_services = 0;
  /// 0 = size every TLS chain in the corpus pass; otherwise sampled.
  std::size_t max_corpus = 0;
};

/// Everything measured under one chain profile; the class mix is the
/// census pass's handshake outcomes.
struct pqc_profile_slice : class_mix {
  x509::pq_profile profile = x509::pq_profile::classical;

  // Corpus pass: chain sizes by deployment class (the per-profile
  // Fig. 6 re-run). The classical slice is bit-identical to
  // analyze_corpus on the same sample.
  stats::sample_set quic_chain_sizes;
  stats::sample_set https_chain_sizes;
  /// Share of all sized chains above the 3x1357-byte amplification
  /// budget (the paper's "35%" under classical).
  double over_amp_limit = 0.0;

  /// Census pass: first-burst amplification factors of completing
  /// handshakes (the per-profile Fig. 4 re-run).
  stats::sample_set amplification;
};

struct pqc_study_result {
  std::size_t initial_size = 0;
  /// One slice per profile, in all_pq_profiles() order (classical
  /// first — the baseline every class_delta is computed against).
  std::vector<pqc_profile_slice> slices;

  [[nodiscard]] const pqc_profile_slice& slice(x509::pq_profile p) const;
};

/// Runs the full sweep: one corpus sizing pass and one engine census
/// pass per profile, all on the engine pool; bit-identical at any
/// thread count. Base seed and salt stay zero so each profile probes a
/// service under its historical record-derived randomness — the three
/// runs form matched pairs and the deltas isolate the chain profile.
[[nodiscard]] pqc_study_result run_pqc_study(const internet::model& m,
                                             const pqc_options& opt,
                                             const engine::options& exec = {});

}  // namespace certquic::core
