// Handshake census: an aggregator over the experiment engine that
// probes every QUIC service and accumulates the data behind Figures 3,
// 4, 5 and 13.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/class_mix.hpp"
#include "engine/engine.hpp"
#include "internet/model.hpp"
#include "stats/cdf.hpp"

namespace certquic::core {

/// Census parameters.
struct census_options {
  std::size_t initial_size = 1362;
  /// 0 = probe every QUIC service; otherwise a deterministic sample.
  std::size_t max_services = 0;
  /// Collect the per-probe payload details (Figs. 4/5); skip to speed
  /// up pure classification sweeps (Fig. 3).
  bool collect_payload_details = true;
};

/// Census output: the class mix plus the per-figure details.
struct census_result : class_mix {
  std::size_t initial_size = 0;

  /// Counts by rank group x class (Fig. 13).
  std::array<std::array<std::size_t, kClassCount>,
             internet::model::kRankGroups>
      group_counts{};

  /// First-burst amplification factors of completing handshakes
  /// (Fig. 4).
  stats::sample_set first_burst_amplification;

  /// Per multi-RTT handshake: (total received, TLS-only received)
  /// during the whole handshake (Fig. 5).
  std::vector<std::pair<std::size_t, std::size_t>> multi_rtt_payload;
  std::size_t multi_tls_exceeding_limit = 0;
  std::size_t max_non_tls_bytes = 0;  // "remaining QUIC bytes" maximum

  /// Amplification attribution (§4.1).
  std::size_t amplifying = 0;
  std::size_t amplifying_cloudflare = 0;
  /// Padding observed on Cloudflare-profile amplifying handshakes
  /// (constant 2462 in the paper).
  stats::sample_set cloudflare_padding;
};

/// Runs the census at one Initial size. Probes execute on the engine's
/// sharded thread pool (`exec`); the aggregate is bit-identical at any
/// thread count.
[[nodiscard]] census_result run_census(const internet::model& m,
                                       const census_options& opt,
                                       const engine::options& exec = {});

/// Convenience: the paper's Fig. 3 sweep, 1200..1472 in steps of 10
/// (the last step lands on 1472, the MTU-dictated maximum).
[[nodiscard]] std::vector<std::size_t> initial_size_sweep();

/// One ACK-policy slice of the ReACKed-QUICer sweep: class counts and
/// handshake completion times under a single client ACK behaviour.
struct ack_census_slice : class_mix {
  quic::ack_policy policy = quic::ack_policy::delayed;
  /// Completion time (ms) of every completed handshake.
  stats::sample_set handshake_ms;

  [[nodiscard]] std::size_t completed() const {
    return handshake_ms.size();
  }
};

/// Output of the client-behaviour sweep (delayed / instant / none).
struct ack_sweep_result {
  /// Plan variant order; slices[0] is the delayed baseline every
  /// class_delta compares against.
  std::vector<ack_census_slice> slices;
};

/// Sweeps the client ACK-policy axis over the census population: the
/// same services, matched per-probe randomness, three client
/// behaviours. Reports per-class deltas and completion-time shifts
/// (the "ReACKed QUICer" scenario).
[[nodiscard]] ack_sweep_result run_ack_sweep(
    const internet::model& m, std::size_t max_services,
    const engine::options& exec = {});

}  // namespace certquic::core
