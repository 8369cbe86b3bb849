// Spoofed-handshake amplification studies (§4.3): telescope backscatter
// per hypergiant (Fig. 9) and the active Meta /24 scans (Fig. 11).
// Both run on the experiment engine through run_backscatter, whose
// worlds each host one simulator and telescope shared by a fixed slice
// of sessions, so their aggregates are bit-identical at any thread
// count.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "engine/backscatter.hpp"
#include "engine/engine.hpp"
#include "internet/model.hpp"
#include "stats/cdf.hpp"
#include "stats/summary.hpp"

namespace certquic::core {

struct spoofed_options {
  /// Spoofed sessions per provider fed to the telescope.
  std::size_t sessions_per_provider = 120;
};

/// Telescope study output (Fig. 9).
struct telescope_result {
  std::map<std::string, stats::sample_set> amplification;  // per provider
  stats::sample_set meta_session_duration_s;
  double meta_max_amplification = 0.0;
};

/// The spoofed-session plan behind the telescope study: hypergiant
/// fleets plus the biased Meta host mix, with per-session seeds that
/// are pure functions of the session index. Exposed for tests and for
/// callers composing their own backscatter sweeps. The plan borrows
/// `m`'s compression dictionary, so `m` must outlive its runs.
[[nodiscard]] engine::backscatter_plan build_telescope_plan(
    const internet::model& m, const spoofed_options& opt);

/// Runs the telescope study through run_backscatter; parallel by
/// default, bit-identical at any thread count.
[[nodiscard]] telescope_result run_telescope_study(
    const internet::model& m, const spoofed_options& opt,
    const engine::options& exec = {});

/// One row of the Meta /24 active scan (Fig. 11, §4.3 groups).
struct meta_probe_row {
  int host_octet = 0;
  std::string services;
  bool responded = false;
  std::size_t bytes_received = 0;
  stats::summary amplification;  // across repeats, with CI
  double duration_s = 0.0;
};

/// Active single-Initial scan of every host in the Meta PoP /24
/// (1252-byte Initial, no ACKs — §4.3): one isolated backscatter world
/// per probe, run in parallel on the engine pool; rows keep the /24's
/// host order.
[[nodiscard]] std::vector<meta_probe_row> run_meta_scan(
    const internet::model& m, bool post_disclosure, std::size_t repeats = 3,
    const engine::options& exec = {});

}  // namespace certquic::core
