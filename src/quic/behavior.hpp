// Server-side behaviour profiles: the anti-amplification policy variants
// of Table 3 plus the deployment quirks the paper attributes to specific
// operators (§4.1, §4.3).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "quic/packet.hpp"

namespace certquic::quic {

/// Historical anti-amplification rules (Appendix C, Table 3).
enum class amplification_policy {
  /// Pre-Draft-09: no server-side limit at all.
  unlimited,
  /// Draft 09: server may only reject client Initials < 1200 bytes;
  /// responses themselves are unlimited.
  min_initial_only,
  /// Drafts 10-12: at most three Handshake packets before validation.
  max_three_handshake_packets,
  /// Drafts 13-14: at most three datagrams before validation.
  max_three_datagrams,
  /// Drafts 15-34 and RFC 9000: at most 3x the bytes received.
  three_x_bytes,
};

[[nodiscard]] std::string to_string(amplification_policy p);

/// Complete server behaviour description.
struct server_behavior {
  amplification_policy policy = amplification_policy::three_x_bytes;

  /// RFC 9000 requires padding bytes to count against the limit;
  /// false reproduces the Cloudflare accounting bug (§4.1).
  bool count_padding_in_limit = true;

  /// Coalesce Initial and Handshake packets into one datagram.
  bool coalesce_levels = true;

  /// Send the Initial ACK in its own padded datagram before the
  /// ServerHello datagram (Cloudflare's observed two-datagram pattern).
  bool ack_in_separate_datagram = false;

  /// Always answer tokenless Initials with Retry (a-priori DoS defence).
  bool always_retry = false;

  /// RFC 9002 §6.2.2.1: retransmitted bytes count against the limit;
  /// false reproduces the Meta/mvfst behaviour (§4.3).
  bool limit_covers_retransmissions = true;

  /// How many times the first flight is retransmitted to an
  /// unvalidated, silent client before giving up.
  std::size_t max_retransmissions = 2;

  /// Server's maximum UDP payload per datagram.
  std::size_t max_udp_payload = 1252;

  /// Padding target for datagrams carrying ack-eliciting Initials.
  std::size_t pad_target = kMinInitialSize;

  /// Padding target of the standalone ACK datagram when
  /// `ack_in_separate_datagram` is set (Cloudflare pads that one at the
  /// UDP layer; its target differs slightly from the QUIC-level one).
  std::size_t ack_pad_target = kMinInitialSize;

  /// Certificate-compression algorithms the server supports.
  std::vector<compress::algorithm> compression_support;

  /// QUIC version the server accepts; Initials for other versions get
  /// a Version Negotiation reply (§2: an extra round trip when client
  /// and server do not agree on a version directly).
  std::uint32_t supported_version = kVersion1;

  // ---- Named presets used by the synthetic Internet -------------------

  /// Fully RFC-compliant server with packet coalescing (rare in the
  /// wild: yields the 0.75% 1-RTT handshakes when chains are small).
  [[nodiscard]] static server_behavior compliant();

  /// RFC-compliant but without coalescing — the common deployment that
  /// wastes budget on padding and lands in multi-RTT (§4.1).
  [[nodiscard]] static server_behavior standard_no_coalesce();

  /// Cloudflare: separate padded ACK datagram, no coalescing, padding
  /// not counted against the limit, brotli support, small ECDSA chain.
  [[nodiscard]] static server_behavior cloudflare();

  /// Google front-ends: compliant 3x accounting with coalescing,
  /// moderate retransmissions.
  [[nodiscard]] static server_behavior google();

  /// Meta/mvfst before the disclosure: retransmissions exempt from the
  /// limit; `retransmissions` tunes facebook (~1) vs instagram/whatsapp
  /// (~7) host groups.
  [[nodiscard]] static server_behavior meta_pre_disclosure(
      std::size_t retransmissions);

  /// Meta after the October 2022 fix: retransmissions capped so the
  /// mean amplification is ~5x (still slightly above the limit).
  [[nodiscard]] static server_behavior meta_post_disclosure();

  /// Always-on Retry (the ~200 services of §4.1).
  [[nodiscard]] static server_behavior retry_always();
};

}  // namespace certquic::quic
