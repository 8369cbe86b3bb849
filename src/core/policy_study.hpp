// Executable ablation of Table 3: how many bytes a spoofing attacker
// elicits from the same server under each historical IETF draft's
// anti-amplification rule.
#pragma once

#include <string>
#include <vector>

#include "ca/ecosystem.hpp"
#include "engine/engine.hpp"
#include "internet/model.hpp"
#include "quic/behavior.hpp"

namespace certquic::core {

/// One Table 3 row, measured.
struct policy_row {
  quic::amplification_policy policy;
  std::string spec;        // "Draft 09", "RFC 9000", ...
  std::string rule;        // the paper's quoted rule, abbreviated
  std::size_t bytes_sent = 0;      // attacker's single Initial
  std::size_t bytes_received = 0;  // total backscatter incl. resends
  double amplification = 0.0;
};

/// Probes one representative chain under every policy with an
/// unacknowledged 1200-byte Initial. Runs through run_backscatter —
/// one isolated spoofed-session world per policy — so the rows are
/// bit-identical at any thread count.
[[nodiscard]] std::vector<policy_row> run_policy_study(
    const internet::model& m, ca::profile_id chain,
    const engine::options& exec = {});

}  // namespace certquic::core
