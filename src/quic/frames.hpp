// QUIC v1 frames used during the handshake (RFC 9000 §19 subset).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/bytes.hpp"

namespace certquic::quic {

/// PADDING — run-length compressed representation of 0x00 frames.
struct padding_frame {
  std::size_t count = 0;
};

/// PING — ack-eliciting no-op.
struct ping_frame {};

/// ACK — minimal single-range form acknowledging [0, largest].
struct ack_frame {
  std::uint64_t largest = 0;
};

/// CRYPTO — a slice of the TLS handshake byte stream. The frame views
/// its bytes: a parsed frame views the datagram it was parsed from, and
/// a frame being sent views its sender's TLS stream. Either must
/// outlive the frame.
struct crypto_frame {
  std::uint64_t offset = 0;
  bytes_view data;
};

/// CONNECTION_CLOSE (transport flavour, type 0x1c).
struct connection_close_frame {
  std::uint64_t error_code = 0;
  std::string reason;
};

/// STREAM — application data (RFC 9000 §19.8). Encoded with the OFF,
/// LEN and FIN bits all set (type 0x0f), the one shape the handshake
/// timeline needs: a request and a response, each a single chunk.
/// Like a CRYPTO frame, it views its bytes.
struct stream_frame {
  std::uint64_t id = 0;
  std::uint64_t offset = 0;
  bytes_view data;
};

using frame = std::variant<padding_frame, ping_frame, ack_frame, crypto_frame,
                           connection_close_frame, stream_frame>;

/// Serialized size of a frame in bytes.
[[nodiscard]] std::size_t frame_size(const frame& f);

/// Writes the wire encoding of `f` at `at`, which must hold
/// frame_size(f) bytes that are already zero, and returns the byte
/// after it. A PADDING frame is only its zeros, so it writes nothing.
std::uint8_t* put_frame(std::uint8_t* at, const frame& f);

/// Parses every frame in `payload` into `out`, replacing its contents;
/// consecutive PADDING bytes collapse into one padding_frame, found a
/// 64-byte block at a time. CRYPTO and STREAM frames view `payload`.
/// Throws codec_error on malformed input.
void parse_frames(bytes_view payload, std::vector<frame>& out);

/// True for frames that elicit acknowledgement (everything except
/// PADDING, ACK and CONNECTION_CLOSE).
[[nodiscard]] bool is_ack_eliciting(const frame& f);

/// Byte-accounting helper for a parsed frame list.
struct frame_accounting {
  std::size_t crypto_payload = 0;  // TLS bytes (CRYPTO frame data)
  std::size_t padding = 0;         // PADDING bytes
  std::size_t stream_payload = 0;  // application bytes (STREAM data)
  bool ack_eliciting = false;
};
[[nodiscard]] frame_accounting account(const std::vector<frame>& frames);

}  // namespace certquic::quic
