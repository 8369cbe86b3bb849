// quicreach-equivalent scanner (§3.2): performs one complete handshake
// per probe, with configurable Initial size, and classifies the result.
// The probed server serves the chain the prober fetches for it, or one
// the caller already holds and lends it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "internet/chain_cache.hpp"
#include "internet/model.hpp"
#include "net/simulator.hpp"
#include "net/time.hpp"
#include "scan/classify.hpp"

namespace certquic::scan {

/// One probe's parameters.
struct probe_options {
  std::size_t initial_size = 1362;
  /// Algorithms offered via compress_certificate; quicreach's stack
  /// offers none (§3.2) — the compression probe offers all three.
  std::vector<compress::algorithm> offer_compression{};
  /// QScanner mode: retain the raw certificate message.
  bool capture_certificate = false;
  /// Chain profile the probed server materializes its certificates
  /// under — the server-side PQC what-if axis. `classical` reproduces
  /// today's Internet (and every golden figure).
  x509::pq_profile chain_profile = x509::pq_profile::classical;
  /// False imitates an adversary / ZMap probe: never acknowledge.
  bool send_acks = true;
  /// Delay before acknowledging a burst; 0 is the instant-ACK client
  /// variant ("ReACKed QUICer"). Ignored when send_acks is false.
  net::duration ack_delay = net::milliseconds(1);
  /// Observation deadline; unset keeps the client default.
  std::optional<net::duration> timeout{};
  /// Non-zero replaces the record-derived simulator seeding with an
  /// engine-supplied per-probe seed (engine::probe_seed); 0 preserves
  /// the historical seeds the golden figures are captured under.
  std::uint64_t seed_override = 0;
  /// Network regime both directions of the probe run under. The
  /// default ("ideal": 20 ms RTT, no loss, no bandwidth cap) is
  /// exactly the historical simulator setup, so existing plans and
  /// goldens are unchanged.
  net::network_condition network{};
  /// Request one application object after the handshake and time the
  /// first response byte (probe_result::ttfb). Off by default — the
  /// extra exchange perturbs byte totals that size-domain goldens pin.
  bool measure_ttfb = false;
};

/// One probe's result.
struct probe_result {
  handshake_class cls = handshake_class::unreachable;
  quic::observation obs;
  /// Handshake timeline: first Initial sent → first application byte
  /// received. 0 when the probe did not measure TTFB (measure_ttfb
  /// off) or never saw an application byte (failed/lossy exchange).
  net::duration ttfb = 0;

  [[nodiscard]] bool operator==(const probe_result&) const = default;
};

/// Prober over a synthetic-Internet model. Each probe is an independent
/// handshake, as the paper's are (they pause 30 minutes between
/// same-service probes). It runs in its thread's probe world: one
/// simulator, one quic::server and one quic::client, reset before every
/// probe. A reset restores every field a freshly built object starts
/// with (virtual time 0, no event or address, zero counters, the
/// probe's seeds) and keeps only storage: the event heap, the address
/// table, the payload pool, packet and connection slots, TLS and
/// reassembly buffers, and the client's SNI and offers. So a result
/// depends only on its record and options, never on which probes the
/// thread ran before (engine_test's ProbeWorld test pins it), and a
/// probe on a borrowed chain allocates nothing once the world has
/// grown.
class reach {
 public:
  /// With a chain_cache, repeat visits of the same service reuse the
  /// materialized chain instead of re-issuing it (the cache is pure
  /// memoization: probe results are bit-identical either way).
  explicit reach(const internet::model& m,
                 const internet::chain_cache* cache = nullptr)
      : model_(m), cache_(cache) {}

  /// Probes one QUIC service, fetching the chain it serves under
  /// opt.chain_profile (through the cache, if any). Throws config_error
  /// when the record does not serve QUIC.
  [[nodiscard]] probe_result probe(const internet::service_record& rec,
                                   const probe_options& opt) const;

  /// As above, with the chain already materialized: the probed server
  /// borrows `chain`, which must be what model::chain_of returns for
  /// `rec` over QUIC under opt.chain_profile. A caller that holds each
  /// chain for many probes (the executor's chain table) pays no lock,
  /// no counter and no chain copy per probe.
  [[nodiscard]] probe_result probe(const internet::service_record& rec,
                                   const probe_options& opt,
                                   const x509::chain& chain) const;

 private:
  const internet::model& model_;
  const internet::chain_cache* cache_ = nullptr;
};

}  // namespace certquic::scan
