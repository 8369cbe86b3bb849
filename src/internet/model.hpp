// The synthetic Internet: a ranked domain population whose deployment
// mix reproduces the marginal distributions the paper measured.
//
// Calibration sources (all from the paper):
//  * DNS funnel rates                       — §3.1
//  * QUIC / HTTPS-only shares per rank group — Fig. 12 (~21% / ~59%)
//  * handshake-class mix per rank group      — Fig. 13 (at Initial 1362)
//  * chain shares                            — Fig. 7a / 7b
//  * browser compression support             — Table 1 (brotli 96%,
//    all three algorithms 0.05%)
//  * load-balancer encapsulation by rank     — §4.1 (25% top-1k,
//    12% top-10k, ~1% elsewhere; 1.2% overall)
//  * certificate rotation noise              — §3.2 (3.3%)
//  * Meta point-of-presence host map         — §4.3 / Fig. 11
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ca/ecosystem.hpp"
#include "dns/resolver.hpp"
#include "net/address.hpp"
#include "quic/behavior.hpp"
#include "x509/chain.hpp"

namespace certquic::internet {

/// What a domain serves.
enum class service_class : std::uint8_t {
  unresolved,  // DNS failure or no A record
  no_tls,      // web server without TLS
  https_only,  // TLS over TCP only
  quic,        // QUIC (and HTTPS)
};

/// Server implementation archetypes driving handshake behaviour.
enum class behavior_kind : std::uint8_t {
  cloudflare,            // §4.1: separate padded ACK, padding not counted
  legacy_amplifier,      // pre-RFC implementations without byte limits
  standard_no_coalesce,  // compliant; padded ACK + no coalescing
  standard_lean,         // compliant, no coalescing, no ACK datagram —
                         // borderline services that flip multi-RTT/1-RTT
                         // with the Initial size (§4.1)
  compliant_coalesce,    // fully compliant + coalescing
  retry_always,          // a-priori DoS protection
};

/// One domain of the ranked population. Records are compact (64 bytes,
/// widest fields first); the certificate chain is re-materialized
/// deterministically on demand. `domain` is the one string: it is the
/// SNI and a probe-seed input.
struct service_record {
  std::uint64_t seed = 0;
  std::string domain;
  std::uint32_t rank = 0;         // 1-based
  std::int32_t redirect_to = -1;  // index of redirect target, -1 = none
  net::ipv4 address;
  std::uint16_t cruise_sans = 0;  // >0: SAN-heavy leaf (Appendix E)
  dns::outcome dns_result = dns::outcome::timeout;
  service_class svc = service_class::unresolved;

  ca::profile_id profile = ca::profile_id::other;  // the served chain
  bool force_rsa_leaf = false;
  bool rotated_cert = false;  // QUIC cert differs from HTTPS (§3.2)

  behavior_kind behavior = behavior_kind::standard_no_coalesce;
  bool supports_brotli = false;
  bool supports_all_algorithms = false;  // the 0.05% (Meta-operated)
  std::uint8_t lb_overhead = 0;          // encapsulation bytes, 0 = none

  [[nodiscard]] bool serves_tls() const noexcept {
    return svc == service_class::https_only || svc == service_class::quic;
  }
  [[nodiscard]] bool serves_quic() const noexcept {
    return svc == service_class::quic;
  }

  [[nodiscard]] bool operator==(const service_record&) const = default;
};

/// Which protocol a chain is being fetched over (certificates may
/// rotate between the HTTPS and QUIC scans, §3.2).
enum class fetch_protocol { https, quic };

/// One host of the Meta point-of-presence /24 (§4.3, Fig. 11).
struct meta_host {
  net::ipv4 address;
  std::string services;  // e.g. "facebook.com, messenger.com, fbcdn.net"
  std::string sni;
  bool serves_quic = false;
  std::size_t retransmissions = 0;  // mvfst resend budget
  std::uint16_t extra_sans = 0;     // instagram/whatsapp carry big SANs
  std::uint64_t seed = 0;
};

/// Generation parameters.
struct config {
  std::size_t domains = 100'000;
  std::uint64_t seed = 42;
  /// Worker threads for population synthesis. The master stream only
  /// hands each record its seed, so synthesis is a pure per-record
  /// function and the generated population is bit-identical at any
  /// thread count. 0 = all hardware threads, capped to one worker per
  /// ~4k domains so tiny populations stay serial; an explicit value is
  /// always honoured (1 forces serial).
  std::size_t synth_threads = 0;
};

/// Per-epoch churn rates for the longitudinal service: between two
/// census epochs, each domain independently rotates its keys, migrates
/// its chain, gains/loses QUIC (the h3 ALPN), or enters/leaves the
/// population. Defaults follow the paper's observed noise floors
/// (§3.2's 3.3% certificate rotation) with small plausible rates for
/// the structural moves.
struct churn_config {
  double key_rotation = 0.033;     // re-keyed cert, same chain profile
  double chain_migration = 0.010;  // switched CA / chain profile
  double alpn_gain = 0.006;        // https_only grew an h3 endpoint
  double alpn_loss = 0.004;        // quic service dropped h3
  double arrival = 0.003;          // unresolved/no-TLS domain came online
  double departure = 0.003;        // resolved domain went dark
};

/// What one epoch's churn actually did to the population.
struct churn_summary {
  std::uint64_t epoch = 0;
  std::size_t key_rotations = 0;
  std::size_t chain_migrations = 0;
  std::size_t alpn_gains = 0;
  std::size_t alpn_losses = 0;
  std::size_t arrivals = 0;
  std::size_t departures = 0;

  [[nodiscard]] std::size_t total() const noexcept {
    return key_rotations + chain_migrations + alpn_gains + alpn_losses +
           arrivals + departures;
  }

  [[nodiscard]] bool operator==(const churn_summary&) const = default;
};

/// The per-epoch seed every churn decision of epoch `epoch` derives
/// from: a pure function of (base_seed, epoch), so any epoch's world is
/// reproducible in isolation — no stream state carries across epochs.
[[nodiscard]] std::uint64_t epoch_seed(std::uint64_t base_seed,
                                       std::uint64_t epoch) noexcept;

/// The generated population plus materialization helpers.
class model {
 public:
  [[nodiscard]] static model generate(const config& cfg);

  /// The population as of census epoch `epoch`: generate(cfg) stepped
  /// through epochs 1..epoch under the churn rates. A pure function of
  /// (cfg, churn, epoch) — computing other epochs first (or never)
  /// cannot change the result, which is what makes a crash-resumed
  /// epoch bit-identical to a fresh one. Epoch 0 is the base
  /// population. When `last` is given it receives the summary of the
  /// final epoch step (zeroed at epoch 0).
  [[nodiscard]] static model at_epoch(const config& cfg,
                                      const churn_config& churn,
                                      std::uint64_t epoch,
                                      churn_summary* last = nullptr);

  /// Applies one churn step in place, taking this population from its
  /// epoch k-1 to epoch k = epoch() + 1, and returns that step's
  /// summary. Every step draws from its own (epoch, record) streams, so
  /// stepping a generated model e times under one churn_config gives
  /// at_epoch(cfg, churn, e) record for record. (Implementation:
  /// internet/churn.cpp.)
  churn_summary step_epoch(const churn_config& churn);

  /// The census epoch this population is at: 0 when generated, plus one
  /// per step_epoch.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  [[nodiscard]] const std::vector<service_record>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] const ca::ecosystem& ecosystem() const noexcept {
    return eco_;
  }
  [[nodiscard]] const dns::resolver& resolver() const noexcept {
    return resolver_;
  }
  [[nodiscard]] std::size_t domain_count() const noexcept {
    return records_.size();
  }

  /// Number of rank groups used for the Fig. 12/13 analyses.
  static constexpr std::size_t kRankGroups = 10;
  /// Rank group of a record (0 = most popular).
  [[nodiscard]] std::size_t rank_group(const service_record& r) const;

  /// Deterministically materializes the chain a record serves over the
  /// given protocol. Rotated services yield a different (re-issued)
  /// leaf over QUIC than over HTTPS. `pq` selects the chain profile of
  /// the PQC what-if axis; the default reproduces today's chains
  /// byte-for-byte, and a record's chain structure (hierarchy, SANs)
  /// is held fixed across profiles so per-record size deltas isolate
  /// the algorithm change.
  [[nodiscard]] x509::chain chain_of(
      const service_record& r, fetch_protocol proto,
      x509::pq_profile pq = x509::pq_profile::classical) const;

  /// Server behaviour profile for a QUIC record: one of a fixed set
  /// shared by every record with the same kind and compression support.
  [[nodiscard]] const quic::server_behavior& behavior_of(
      const service_record& r) const;

  /// Shared compression dictionary for the whole population.
  [[nodiscard]] const bytes& compression_dictionary() const noexcept {
    return dictionary_;
  }

  /// The Meta PoP /24 before or after the responsible disclosure.
  [[nodiscard]] std::vector<meta_host> meta_pop(bool post_disclosure) const;
  /// Chain served by a Meta host.
  [[nodiscard]] x509::chain meta_chain(const meta_host& h) const;
  /// Behaviour of a Meta host (mvfst semantics).
  [[nodiscard]] quic::server_behavior meta_behavior(const meta_host& h) const;

 private:
  std::vector<service_record> records_;
  ca::ecosystem eco_;
  dns::resolver resolver_{0xd5d5};
  bytes dictionary_;
  std::uint64_t seed_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace certquic::internet
