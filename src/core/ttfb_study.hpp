// Time-to-first-byte study: the time-domain counterpart of the
// size-domain censuses. Every probe performs a full handshake *and*
// fetches one application object, and the simulator's time model —
// per-path RTT, loss and bandwidth/serialization pacing — turns the
// handshake into a timeline whose endpoint (the first application
// byte) is the paper's user-facing metric.
//
// The study sweeps chain_profile x network condition over the census
// population: for each (profile, condition) cell it probes the QUIC
// services with matched per-probe randomness (base seed and salt stay
// zero, as in run_census and run_pqc_study) and reports the TTFB
// distribution of completing handshakes as a stats::sample_set. The
// classical x ideal cell therefore probes exactly the services and
// randomness of run_census — its class counts match the census
// bit-for-bit (pinned by tests/ttfb_test) — while the pqc_* rows show
// how post-quantum chains push extra round trips (and thus whole RTTs
// of TTFB) onto slow or lossy paths.
#pragma once

#include <cstdint>
#include <vector>

#include "core/class_mix.hpp"
#include "engine/engine.hpp"
#include "internet/model.hpp"
#include "net/simulator.hpp"
#include "stats/cdf.hpp"

namespace certquic::core {

struct ttfb_options {
  /// Client Initial size (the paper's default).
  std::size_t initial_size = 1362;
  /// 0 = probe every QUIC service; otherwise the shared deterministic
  /// sample.
  std::size_t max_services = 0;
  /// Chain profiles to sweep; empty = all_pq_profiles().
  std::vector<x509::pq_profile> profiles;
};

/// The network grid the study sweeps: the historical ideal path plus
/// three access-network regimes. The first entry ("ideal", 20 ms RTT,
/// no loss, no bandwidth cap) is exactly the condition every other
/// study runs under.
[[nodiscard]] std::vector<net::network_condition> default_network_conditions();

/// One (chain profile, network condition) cell of the sweep.
struct ttfb_cell : class_mix {
  x509::pq_profile profile = x509::pq_profile::classical;
  net::network_condition condition;

  /// TTFB (ms, first Initial sent -> first application byte) of every
  /// probe that received application data. Finalized (sorted) by the
  /// study, so quantile reads are lock-free and thread-safe.
  stats::sample_set ttfb_ms;

  /// Probes whose TTFB was observed (handshake + object fetch done).
  [[nodiscard]] std::size_t completed() const { return ttfb_ms.size(); }
};

struct ttfb_study_result {
  std::size_t initial_size = 0;
  std::vector<net::network_condition> conditions;
  /// Profile-major over the condition grid: all conditions under
  /// profiles[0] (classical first), then profiles[1], ... — one cell
  /// per plan variant, in plan order.
  std::vector<ttfb_cell> cells;

  /// The cell of one (profile, condition-index) pair.
  [[nodiscard]] const ttfb_cell& cell(x509::pq_profile p,
                                      std::size_t condition) const;
};

/// Runs the full sweep on the engine pool; bit-identical at any thread
/// count. Base seed and salt stay zero so every cell probes a service
/// under its historical record-derived randomness: cells form matched
/// pairs along both axes, and TTFB deltas isolate chain size (across
/// profiles) or path quality (across conditions).
[[nodiscard]] ttfb_study_result run_ttfb_study(const internet::model& m,
                                               const ttfb_options& opt,
                                               const engine::options& exec = {});

}  // namespace certquic::core
