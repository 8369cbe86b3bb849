// QUIC server endpoint for one service (domain + certificate chain +
// behaviour profile), attached to the network simulator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/simulator.hpp"
#include "quic/behavior.hpp"
#include "quic/packet.hpp"
#include "tls/handshake.hpp"
#include "util/rng.hpp"
#include "x509/chain.hpp"

namespace certquic::quic {

/// Aggregated server-side counters (all connections).
struct server_stats {
  std::uint64_t connections = 0;
  std::uint64_t datagrams_sent = 0;
  std::uint64_t bytes_sent = 0;
  /// Flights the amplification limit held back until validation — the
  /// budget gating *when* bytes go out, not just whether (the stall is
  /// the round trip the multi-RTT timelines pay).
  std::uint64_t budget_blocked_flights = 0;
  /// Total virtual time connections spent with a flight blocked on the
  /// amplification budget, from the blocking send attempt until
  /// validation released it.
  std::uint64_t budget_blocked_us = 0;
};

/// A QUIC/TLS server. One instance serves one certificate chain under
/// one behaviour profile; it accepts any number of connections.
class server {
 public:
  /// `codec_dictionary` backs certificate compression when a client
  /// offers an algorithm in `behavior.compression_support`. The server
  /// borrows it: whoever owns it (the `internet::model`, a backscatter
  /// plan) must outlive the server. Throws config_error when
  /// `behavior.max_udp_payload` is below kMinInitialSize.
  server(net::simulator& sim, net::endpoint_id address, x509::chain chain,
         server_behavior behavior, bytes_view codec_dictionary,
         std::uint64_t seed);
  /// An idle server: attached nowhere, serving nothing until `reset`.
  explicit server(net::simulator& sim);
  /// As above, but borrows the chain the way it borrows the dictionary:
  /// `chain` must be non-null and outlive the server. Serves a chain
  /// shared by many probes without copying it.
  server(net::simulator& sim, net::endpoint_id address,
         const x509::chain* chain, server_behavior behavior,
         bytes_view codec_dictionary, std::uint64_t seed);
  /// A temporary dictionary would dangle once the constructor returns.
  server(net::simulator& sim, net::endpoint_id address, x509::chain chain,
         server_behavior behavior, bytes&& codec_dictionary,
         std::uint64_t seed) = delete;
  server(net::simulator& sim, net::endpoint_id address,
         const x509::chain* chain, server_behavior behavior,
         bytes&& codec_dictionary, std::uint64_t seed) = delete;
  ~server();

  server(const server&) = delete;
  server& operator=(const server&) = delete;

  /// Turns this server into the one the borrowing constructor builds
  /// from the same arguments, on a simulator `reset` since it last
  /// served: every field is what that constructor leaves, and only
  /// storage is kept (the connection slots with their flight buffers,
  /// the packet slots, the behaviour's algorithm list). Throws as the
  /// constructor does.
  void reset(net::endpoint_id address, const x509::chain* chain,
             const server_behavior& behavior, bytes_view codec_dictionary,
             std::uint64_t seed);
  /// A temporary dictionary would dangle once `reset` returns.
  void reset(net::endpoint_id address, const x509::chain* chain,
             const server_behavior& behavior, bytes&& codec_dictionary,
             std::uint64_t seed) = delete;

  [[nodiscard]] const net::endpoint_id& address() const noexcept {
    return address_;
  }
  [[nodiscard]] const server_stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const x509::chain& chain() const noexcept { return *chain_; }
  [[nodiscard]] const server_behavior& behavior() const noexcept {
    return behavior_;
  }

 private:
  /// Everything but the behaviour, as the constructor leaves it.
  /// Throws when the behaviour's max_udp_payload is below
  /// kMinInitialSize.
  void restart(net::endpoint_id address, const x509::chain* chain,
               bytes_view codec_dictionary, std::uint64_t seed);

  struct connection {
    net::endpoint_id peer;
    connection_id client_scid;  // the client's source cid (our dcid to it)
    connection_id our_scid;
    bool validated = false;
    bool done = false;   // full flight delivered and acknowledged
    bool limit_exempt = false;  // transient: non-compliant resend pump
    std::uint64_t bytes_received = 0;
    std::uint64_t budget_spent = 0;  // per-policy accounting units
    std::size_t handshake_packets_sent = 0;
    std::size_t datagrams_sent = 0;
    std::uint64_t next_pn_initial = 0;
    std::uint64_t next_pn_handshake = 0;
    std::uint64_t largest_seen_initial_pn = 0;
    bool largest_seen_valid = false;
    /// TLS byte streams by encryption level: the ServerHello at the
    /// Initial level, EE..Finished at the Handshake level.
    tls::server_flight flight;
    std::size_t initial_sent = 0;    // first-transmission watermark
    std::size_t handshake_sent = 0;
    std::size_t retransmissions = 0;
    net::duration pto = 0;
    std::uint64_t pto_timer = 0;  // the armed PTO's id; 0: none armed
    bool budget_blocked = false;       // a flight waits on validation
    net::time_point blocked_since = 0;
    bool app_response_sent = false;    // one response per connection
    std::uint64_t next_pn_app = 0;
  };

  /// The open connections: the front of conns_.
  [[nodiscard]] std::span<connection> open_connections() noexcept {
    return {conns_.data(), open_};
  }
  /// The connection from `peer`, or null.
  [[nodiscard]] connection* find(const net::endpoint_id& peer);
  /// Opens a connection from `peer` in the first free slot: a fresh
  /// connection that keeps the slot's flight storage.
  connection& open(const net::endpoint_id& peer);
  /// Forgets the connection from `peer`: its slot moves behind the open
  /// ones. By value: the caller's address is often the peer field of
  /// the slot being moved.
  void close(net::endpoint_id peer);

  void on_datagram(const net::datagram& d);
  void handle_client_initial(connection& c, const packet& p);
  /// Sends as much pending flight data as the policy allows.
  void pump(connection& c, bool include_ack);
  /// As pump, but sends no stream byte at or past `initial_end` /
  /// `handshake_end`.
  void pump_until(connection& c, bool include_ack, std::size_t initial_end,
                  std::size_t handshake_end);
  /// Retransmits everything sent so far (unvalidated client timeout).
  void retransmit(connection& c);
  void arm_pto(connection& c);
  /// Answers the client's 1-RTT STREAM request with one response
  /// datagram (once per connection) — the application byte the TTFB
  /// timeline ends on.
  void maybe_send_app_response(connection& c, const packet& p);

  /// Checks and charges the amplification budget for one datagram of
  /// `wire_bytes` containing `padding_bytes` of padding and
  /// `handshake_packets` Handshake-type packets. Returns false when the
  /// policy forbids sending.
  [[nodiscard]] bool charge(connection& c, std::size_t wire_bytes,
                            std::size_t padding_bytes,
                            std::size_t handshake_packets);

  /// Sends `dg` on `c`, which counts it; `handshake_packets` of its
  /// packets are Handshake packets.
  void transmit(connection& c, const datagram_builder& dg,
                std::size_t handshake_packets);
  /// Encodes `dg` into a pooled buffer, sends it to `to` and counts it.
  void send_datagram(const net::endpoint_id& to, const datagram_builder& dg);

  net::simulator& sim_;
  net::endpoint_id address_;
  x509::chain owned_chain_;  // empty when the chain is borrowed
  const x509::chain* chain_ = nullptr;  // null while idle
  server_behavior behavior_;
  bytes_view codec_dictionary_;
  rng rng_;
  server_stats stats_;
  /// Connection slots: the first open_ hold the live connections,
  /// found by peer; the rest are closed ones kept for their storage. A
  /// reference into it lasts until the next connection is opened or
  /// closed.
  std::vector<connection> conns_;
  std::size_t open_ = 0;
  /// How many PTOs were armed; each takes the count as its id.
  std::uint64_t ptos_armed_ = 0;
  /// Packet slots for received (parse_datagram) and sent
  /// (datagram_builder) datagrams. A sent CRYPTO frame views its
  /// connection's TLS stream.
  std::vector<packet> rx_;
  std::vector<packet> tx_;
};

}  // namespace certquic::quic
