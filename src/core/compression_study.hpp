// Certificate-compression study (§4.2, Table 1): synthetic compression
// of collected chains plus "in the wild" rates via compression-probing
// handshakes.
#pragma once

#include <array>

#include "engine/engine.hpp"
#include "internet/model.hpp"
#include "stats/cdf.hpp"

namespace certquic::core {

struct compression_options {
  /// Chains to compress synthetically (0 = all TLS services).
  std::size_t max_chains = 2000;
  /// QUIC services to probe with a compression-capable client.
  std::size_t max_probes = 300;
};

struct compression_result {
  /// Synthetic experiment: savings per algorithm over collected chains.
  std::array<stats::sample_set, 3> synthetic_savings;  // brotli/zlib/zstd
  /// Fraction of chains whose brotli-compressed Certificate message
  /// stays under the common limit 3x1357 (paper: 99%).
  double under_limit_compressed = 0.0;
  double under_limit_uncompressed = 0.0;

  /// Service-side support measured by offering all three algorithms.
  double support_brotli = 0.0;
  double support_all_three = 0.0;

  /// "In the wild" rates: savings observed on real handshakes where
  /// the server compressed (mean 73% in the paper).
  stats::sample_set wild_savings;
};

[[nodiscard]] compression_result run_compression_study(
    const internet::model& m, const compression_options& opt,
    const engine::options& exec = {});

}  // namespace certquic::core
