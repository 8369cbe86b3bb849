// Declarative probe plans: a deterministic service sample crossed with
// client-configuration variants (Initial size, compression offers, ACK
// behaviour, certificate capture). A plan says *what* to measure; the
// executor (engine.hpp) decides how to shard it across threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "internet/model.hpp"
#include "net/time.hpp"
#include "quic/client.hpp"
#include "scan/reach.hpp"

namespace certquic::engine {

/// Which service records of the population a plan covers.
enum class service_filter : std::uint8_t {
  quic,  // records with svc == service_class::quic
  tls,   // QUIC + HTTPS-only records
};

/// Deterministic up-front sampling shared by every study: walks the
/// population once and returns the record indices selected by the
/// historical striding rule (every `stride`-th matching record, where
/// stride = ceil(matching / cap)). cap == 0 selects every match.
///
/// Taking the sample once — instead of interleaving the stride test
/// with the record walk in each study — is what lets the executor shard
/// the plan while keeping the probed set and its order bit-identical to
/// the old serial loops.
[[nodiscard]] std::vector<std::uint32_t> sample_indices(
    const internet::model& m, service_filter filter, std::size_t cap);

/// One client-configuration point of the plan's cross product.
struct probe_variant {
  std::size_t initial_size = 1362;
  /// Algorithms offered via compress_certificate (empty = quicreach).
  std::vector<compress::algorithm> offer_compression{};
  /// Client acknowledgement behaviour axis ("ReACKed QUICer"): the
  /// default delayed-ack client, the instant-ACK variant, or the silent
  /// adversary that never acknowledges anything.
  quic::ack_policy ack = quic::ack_policy::delayed;
  /// Retain the raw Certificate message (QScanner mode).
  bool capture_certificate = false;
  /// Server-side chain-profile axis (the PQC what-if sweep): which
  /// chain profile the probed services serve their certificates under.
  /// A world transform rather than a client knob — the default keeps
  /// every existing plan, and thus every golden, byte-identical.
  x509::pq_profile chain_profile = x509::pq_profile::classical;
  /// Network regime the probe's two paths run under (the time-domain
  /// axis). The default condition is the historical simulator setup,
  /// so plans that never touch it stay golden-identical.
  net::network_condition network{};
  /// Request one application object after the handshake and record the
  /// probe's TTFB (probe_record::ttfb()). Default off: the exchange
  /// perturbs the byte totals size-domain goldens pin down.
  bool measure_ttfb = false;
  /// Stream separator mixed into the per-probe seed so repeated visits
  /// of the same service draw independent randomness. Salt 0 under a
  /// zero base seed preserves the historical record-derived seeding.
  std::uint64_t salt = 0;

  /// The scan-layer options this variant resolves to (seed filled in by
  /// the executor).
  [[nodiscard]] scan::probe_options to_probe_options() const;
};

/// A full plan: sample spec x variant list. The executor enumerates the
/// cross product variant-major (all services under variants[0], then
/// variants[1], ...), matching how the old per-study loops nested.
struct probe_plan {
  service_filter filter = service_filter::quic;
  /// 0 = probe every matching service; otherwise the deterministic
  /// striding sample above.
  std::size_t max_services = 0;
  /// At least one variant; single() builds the common one-variant plan.
  std::vector<probe_variant> variants;
  /// Base seed of the per-probe seeding hash(base_seed, domain, salt).
  /// 0 (with salt 0) keeps the historical record-derived simulator
  /// seeds, which the golden figures are captured under.
  std::uint64_t base_seed = 0;

  [[nodiscard]] static probe_plan single(probe_variant v,
                                         std::size_t max_services = 0,
                                         service_filter f =
                                             service_filter::quic);

  /// Appends one variant per Initial size (e.g. the Fig. 3 sweep).
  probe_plan& sweep_initial_sizes(const std::vector<std::size_t>& sizes);

  /// Appends one variant per client ACK policy (delayed, instant,
  /// none), all at `initial_size` — the ReACKed-QUICer axis.
  probe_plan& sweep_ack_policies(std::size_t initial_size = 1362);

  /// Appends one variant per chain profile (classical, pqc_leaf,
  /// pqc_full), all at `initial_size` — the PQC what-if axis. With
  /// base_seed and salt at zero, every profile probes a service under
  /// its historical record-derived randomness, so the three runs form
  /// matched pairs and per-class deltas isolate the chain-size effect.
  probe_plan& sweep_chain_profiles(std::size_t initial_size = 1362);
};

/// Per-probe deterministic seed: identical regardless of shard count or
/// execution order. Returns 0 — "derive from the record seed as the
/// serial scanners always did" — when base_seed and salt are both 0.
[[nodiscard]] std::uint64_t probe_seed(std::uint64_t base_seed,
                                       const std::string& domain,
                                       std::uint64_t salt);

}  // namespace certquic::engine
