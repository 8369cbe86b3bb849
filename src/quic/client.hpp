// QUIC client endpoint: performs one handshake attempt and records the
// byte-level observations the paper's classification is built on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/simulator.hpp"
#include "quic/packet.hpp"
#include "tls/handshake.hpp"
#include "util/rng.hpp"

namespace certquic::quic {

/// Client acknowledgement behaviours ("ReACKed QUICer", Mücke et al.):
/// how eagerly a client acknowledges the server's handshake bursts.
enum class ack_policy : std::uint8_t {
  delayed,  // minimal delayed-ack: batch a burst, answer after a tick
  instant,  // acknowledge every burst immediately (instant-ACK client)
  none,     // silent adversary / ZMap probe: never acknowledge anything
};

[[nodiscard]] std::string to_string(ack_policy p);

/// Client-side handshake parameters.
struct client_config {
  /// Target UDP payload of the first flight (the paper sweeps
  /// 1200..1472; browsers use 1250/1357, Table 1).
  std::size_t initial_size = 1362;
  /// Algorithms offered in compress_certificate; empty mirrors
  /// quicreach's stack (no compression support).
  std::vector<compress::algorithm> offer_compression{};
  /// False imitates an adversary / ZMap probe: never ACK, never answer.
  bool send_acks = true;
  /// Delay before a received burst is acknowledged; 0 is the
  /// instant-ACK client variant. Ignored when send_acks is false.
  net::duration ack_delay = net::milliseconds(1);
  std::string sni = "example.org";
  /// Give-up deadline for the observation.
  net::duration timeout = net::seconds(3);
  /// When set, the first flight is stamped with this source address
  /// (IP spoofing); responses then route to whoever owns it.
  std::optional<net::endpoint_id> spoof_source{};
  /// Retain the raw (Compressed)Certificate message bytes in the
  /// observation (QScanner mode, §3.2).
  bool capture_certificate = false;
  /// QUIC version offered in the first flight; on a Version
  /// Negotiation reply the client retries once with a version the
  /// server listed (costing one round trip, §2).
  std::uint32_t version = kVersion1;
  /// Send a one-chunk application request (a 1-RTT STREAM frame)
  /// together with the Finished flight and record when the first
  /// response byte arrives — the TTFB timeline. Off by default: the
  /// extra exchange changes byte totals, and every size-domain golden
  /// is captured without it.
  bool fetch_app_data = false;
};

/// Everything measured during one handshake attempt.
struct observation {
  bool response_received = false;
  bool retry_seen = false;
  bool version_negotiation_seen = false;
  bool handshake_complete = false;
  bool timed_out = false;

  std::size_t client_datagrams = 0;
  /// Client datagrams sent after the first flight but before the
  /// handshake completed — zero means a true 1-RTT handshake.
  std::size_t acks_before_complete = 0;

  std::size_t bytes_sent_first_flight = 0;
  std::size_t bytes_sent_total = 0;
  std::size_t bytes_received_total = 0;
  /// Bytes received before the client's second datagram: the server's
  /// pre-validation allowance (Figs. 4 and 5).
  std::size_t bytes_received_first_burst = 0;
  /// TLS bytes (CRYPTO payload) of the first burst.
  std::size_t tls_bytes_first_burst = 0;
  /// PADDING bytes of the first burst.
  std::size_t padding_bytes_first_burst = 0;
  std::size_t tls_bytes_received = 0;
  std::size_t padding_bytes_received = 0;
  std::size_t server_datagrams = 0;

  /// Certificate message observations.
  bool compression_used = false;
  std::size_t certificate_msg_size = 0;          // framed, as received
  std::size_t certificate_uncompressed_size = 0; // declared by sender
  /// Raw framed (Compressed)Certificate bytes when capture was enabled.
  bytes certificate_message;

  net::time_point start_time = 0;
  net::time_point complete_time = 0;
  net::time_point first_receive_time = 0;
  net::time_point last_receive_time = 0;
  /// When the first application (STREAM) byte arrived; 0 when the
  /// probe did not request application data or never received any.
  net::time_point first_app_byte_time = 0;
  /// Application bytes received over the whole observation.
  std::size_t app_bytes_received = 0;

  /// First-burst amplification factor (Fig. 4): UDP payload received
  /// before validation over UDP payload sent in the first flight.
  [[nodiscard]] double first_burst_amplification() const {
    return bytes_sent_first_flight == 0
               ? 0.0
               : static_cast<double>(bytes_received_first_burst) /
                     static_cast<double>(bytes_sent_first_flight);
  }

  [[nodiscard]] bool operator==(const observation&) const = default;
};

/// A handshake client: one attempt per construction or `reset`.
class client {
 public:
  client(net::simulator& sim, net::endpoint_id local,
         net::endpoint_id server, client_config config, std::uint64_t seed);
  /// An idle client: attached nowhere, sending nothing until `reset`.
  explicit client(net::simulator& sim);
  ~client();

  client(const client&) = delete;
  client& operator=(const client&) = delete;

  /// Turns this client into the one the constructor builds from the
  /// same arguments, on a simulator `reset` since its last attempt:
  /// every field is what that constructor leaves, and only storage is
  /// kept (the configuration's strings and lists, the TLS message and
  /// reassembly buffers, the packet slots).
  void reset(net::endpoint_id local, net::endpoint_id server,
             const client_config& config, std::uint64_t seed);

  /// Sends the first flight.
  void start();

  [[nodiscard]] const observation& result() const noexcept { return obs_; }
  /// Moves the observation out, captured certificate included, instead
  /// of copying it; result() is unspecified until the next reset.
  [[nodiscard]] observation take_result() noexcept { return std::move(obs_); }
  [[nodiscard]] bool finished() const noexcept {
    return obs_.handshake_complete || obs_.timed_out;
  }

 private:
  /// Everything but the configuration, as the constructor leaves it.
  void restart(net::endpoint_id local, net::endpoint_id server,
               std::uint64_t seed);
  void send_initial(const bytes& token);
  /// Encodes `dg` into a pooled buffer and sends it to the server from
  /// `src`.
  void send_datagram(const datagram_builder& dg, const net::endpoint_id& src);
  void on_datagram(const net::datagram& d);
  void maybe_complete();
  /// Records a whole framed (Compressed)Certificate `message` in the
  /// observation; other message types pass through. False when a
  /// CompressedCertificate is too short to hold its uncompressed_length.
  bool observe_certificate(tls::handshake_type type, bytes_view message);
  void send_ack_flight();

  net::simulator& sim_;
  net::endpoint_id local_;
  net::endpoint_id server_;
  client_config config_;
  rng rng_;
  bool attached_ = false;
  observation obs_;

  connection_id dcid_;
  connection_id scid_;  // empty: browsers commonly use zero-length SCIDs
  connection_id server_scid_;
  /// The TLS messages this client sends; the CRYPTO frames of its
  /// outgoing packets view them.
  bytes client_hello_;
  bytes finished_;
  /// Packet slots for received (parse_datagram) and sent
  /// (datagram_builder) datagrams.
  std::vector<packet> rx_;
  std::vector<packet> tx_;
  bytes initial_stream_;    // reassembled Initial-level CRYPTO (in order)
  bytes handshake_stream_;  // reassembled Handshake-level CRYPTO
  /// Offset of the first Handshake-level message not yet inspected.
  std::size_t handshake_cursor_ = 0;
  bool saw_finished_ = false;
  /// Set on a flight this client cannot finish: a whole first Initial
  /// message that is not a ServerHello, a malformed Handshake-level
  /// message, or a CompressedCertificate too short for its length
  /// field. The client then ignores every datagram and sends nothing
  /// more, so the probe ends on its timeout, unreachable.
  bool abandoned_ = false;
  std::uint64_t largest_initial_pn_ = 0;
  std::uint64_t largest_handshake_pn_ = 0;
  bool handshake_keys_ = false;
  bool ack_timer_armed_ = false;
  bool finished_sent_ = false;
  std::uint64_t next_pn_initial_ = 0;
  std::uint64_t next_pn_handshake_ = 0;
  std::uint64_t next_pn_app_ = 0;
};

}  // namespace certquic::quic
