// TLS 1.3 handshake messages as carried in QUIC CRYPTO frames (RFC 8446,
// RFC 9001) plus RFC 8879 certificate compression.
//
// Message framing, extension TLVs and field widths are wire-accurate;
// cryptographic payloads (randoms, key shares, signatures, MACs) are
// size-faithful placeholders. The paper's phenomena depend only on byte
// counts, and those are exact here.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "compress/codec.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "x509/chain.hpp"

namespace certquic::tls {

/// TLS 1.3 HandshakeType code points.
enum class handshake_type : std::uint8_t {
  client_hello = 1,
  server_hello = 2,
  encrypted_extensions = 8,
  certificate = 11,
  certificate_verify = 15,
  finished = 20,
  compressed_certificate = 25,
};

/// What peek_frame found at the front of a handshake byte stream.
enum class frame_status : std::uint8_t {
  /// The first message is not whole yet: fewer than 4 header bytes,
  /// or fewer body bytes than the header declares. More bytes may
  /// complete it.
  partial,
  /// The first message is whole: `type` is a known code point and
  /// `total_size` bytes (header + body) are present.
  complete,
  /// The type byte is none of the handshake_type code points. No
  /// further bytes can make the message valid.
  malformed,
};

struct frame_info {
  frame_status status = frame_status::partial;
  handshake_type type{};       // the type byte; 0 on empty input
  std::size_t total_size = 0;  // header + body; 0 until the header is whole
};

/// Peeks at the first handshake message in `data` (1-byte type, 3-byte
/// length, body) without consuming or throwing; a receiver decides
/// completion with a status test. The type byte is judged as soon as it
/// is present, so an unknown type is `malformed` even before its length
/// arrives; a known type is `partial` until `total_size` bytes are in.
[[nodiscard]] frame_info peek_frame(bytes_view data) noexcept;

/// Encodes a realistic ClientHello (~250-330 bytes before QUIC padding):
/// random, ciphers, SNI `server_name`, ALPN h3, supported
/// groups/versions, x25519 key share, QUIC transport parameters, and a
/// compress_certificate extension (RFC 8879) offering `offers`; empty
/// `offers` leaves the extension absent (like quicreach's stack, §3.2).
/// Writes into `out`, replacing its contents and keeping its storage.
void encode_client_hello(std::string_view server_name,
                         std::span<const compress::algorithm> offers, rng& r,
                         bytes& out);

/// Parses the compression algorithms offered by a ClientHello built by
/// encode_client_hello ({} when the extension is absent). Hostile input
/// throws codec_error: a frame that is not whole, a first message that
/// is not a ClientHello, or a body shorter than its fields declare.
[[nodiscard]] std::vector<compress::algorithm> parse_offered_compression(
    bytes_view client_hello_frame);

/// Encodes ServerHello: random, selected cipher, x25519 share (~123 B).
[[nodiscard]] bytes encode_server_hello(rng& r);

/// Encodes EncryptedExtensions: ALPN + QUIC transport parameters.
[[nodiscard]] bytes encode_encrypted_extensions(rng& r);

/// Encodes the Certificate message for a chain: per-certificate 3-byte
/// length + DER + empty extensions.
[[nodiscard]] bytes encode_certificate(const x509::chain& chain);

/// Encodes a CompressedCertificate (RFC 8879 §4) wrapping the chain's
/// Certificate message compressed with `codec`.
[[nodiscard]] bytes encode_compressed_certificate(
    const x509::chain& chain, const compress::codec& codec);

/// Encodes CertificateVerify with a signature sized by the leaf key.
[[nodiscard]] bytes encode_certificate_verify(x509::key_algorithm leaf_key,
                                              rng& r);

/// Encodes Finished (32-byte verify_data for SHA-256 suites) into
/// `out`, replacing its contents and keeping its storage.
void encode_finished(rng& r, bytes& out);

/// The server's first flight, split by encryption level as QUIC carries
/// it: ServerHello at the Initial level, the rest at Handshake level.
/// Each level is one contiguous CRYPTO stream, so a QUIC server can take
/// both by move.
struct server_flight {
  bytes server_hello;  // Initial-level CRYPTO payload
  bytes handshake;     // EE, (Compressed)Certificate, CV, Finished

  /// Total TLS bytes across both levels.
  [[nodiscard]] std::size_t total_size() const noexcept;
};

/// Builds the server's first flight for `chain`. When `codec` is
/// non-null the certificate goes out compressed (the server picked an
/// algorithm the client offered).
[[nodiscard]] server_flight build_server_flight(
    const x509::chain& chain, const compress::codec* codec, rng& r);
/// As above, into `flight`, replacing both levels' bytes and keeping
/// their storage.
void build_server_flight(const x509::chain& chain,
                         const compress::codec* codec, rng& r,
                         server_flight& flight);

}  // namespace certquic::tls
