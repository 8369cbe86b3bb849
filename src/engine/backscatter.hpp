// Spoofed-session worlds for all three §4.3 amplification studies: the
// telescope (Fig. 9), the Meta /24 ZMap scan (Fig. 11) and the
// draft-policy ablation (Table 3); §3.2 describes the setup. The
// sessions of one world share a simulator, a telescope and any
// server instance they both attack. The session→world partition is part
// of the plan (sessions_per_shard), never of the thread count or of
// options::chunk, and every seed is a pure function of the plan and the
// world index — so run_backscatter returns the same sessions at 1, 2 or
// N threads.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "net/address.hpp"
#include "quic/behavior.hpp"
#include "quic/client.hpp"
#include "scan/telescope.hpp"
#include "x509/chain.hpp"

namespace certquic::engine {

/// One spoofed session: an attacker sends a single unacknowledged
/// Initial towards `server` with a telescope sensor as its source
/// address; everything the server answers lands on the telescope.
struct spoofed_session {
  net::endpoint_id server;        // attacked endpoint
  x509::chain chain;              // chain that endpoint serves
  quic::server_behavior behavior;
  std::string sni;
  std::size_t initial_size = 1362;
  net::duration timeout = net::seconds(400);
  /// Per-session randomness stream (client/server nonces); a pure
  /// function of the session's position so worlds never interact.
  std::uint64_t seed = 0;
};

/// A backscatter run: the session list plus the world parameters every
/// world replicates (provider labelling, shared compression
/// dictionary). Every world's telescope sits in 203.0.113.0/24.
struct backscatter_plan {
  std::vector<spoofed_session> sessions;
  /// Sessions per shared simulator+telescope world. Part of the plan —
  /// not an execution knob — because it fixes which sessions coexist in
  /// one world; the thread count only decides how many worlds run at
  /// once.
  std::size_t sessions_per_shard = 32;
  std::uint64_t base_seed = 0;
  /// /24 server prefixes labelled at the telescope (provider grouping).
  std::vector<std::pair<net::ipv4, std::string>> provider_prefixes;
  /// Dictionary backing certificate compression on spawned servers,
  /// borrowed: its owner (the model) outlives the run.
  bytes_view dictionary;
};

/// What one spoofed session produced: the attacker's own view (it
/// hears nothing, but counts what it sent) and what the telescope
/// attributed to the session's sensor (datagrams == 0 if the server
/// stayed silent).
struct backscatter_outcome {
  quic::observation attacker;
  scan::backscatter_session backscatter;
};

/// Runs every session of the plan, worlds in parallel on the engine
/// pool; result[i] is session i.
[[nodiscard]] std::vector<backscatter_outcome> run_backscatter(
    const backscatter_plan& plan, const options& opt);

}  // namespace certquic::engine
