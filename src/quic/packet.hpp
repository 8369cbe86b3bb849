// QUIC v1 long-header packets, short-header 1-RTT packets and datagram
// (de)coalescing (RFC 9000 §17.2/§17.3). AEAD is modelled by a 16-byte
// tag; header protection is not applied (the simulation parses its own
// packets). All sizes on the wire are exact.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "quic/frames.hpp"
#include "util/bytes.hpp"

namespace certquic::quic {

inline constexpr std::uint32_t kVersion1 = 0x00000001;
/// Minimum UDP payload for datagrams carrying ack-eliciting Initials.
inline constexpr std::size_t kMinInitialSize = 1200;
/// AEAD tag appended to every protected packet.
inline constexpr std::size_t kAeadTagSize = 16;
/// Packet-number length used throughout the simulation.
inline constexpr std::size_t kPacketNumberSize = 2;
/// Longest connection ID QUIC v1 allows (RFC 9000 §17.2).
inline constexpr std::size_t kMaxConnectionIdSize = 20;

/// A connection ID held inline: at most kMaxConnectionIdSize bytes, so
/// packets and connections carry their IDs without heap storage. Any
/// attempt to make one longer throws codec_error — which is how both
/// the parser and the encoder fail closed on oversize IDs.
class connection_id {
 public:
  connection_id() = default;
  /// Copies `id`; throws codec_error above kMaxConnectionIdSize bytes.
  /// Implicit, so any byte view can stand where an id is expected.
  connection_id(bytes_view id) { assign(id); }

  /// Replaces the contents with `id`; throws codec_error above
  /// kMaxConnectionIdSize bytes.
  void assign(bytes_view id);
  /// Sets the length to `n`, zero-filling any new bytes; throws
  /// codec_error above kMaxConnectionIdSize.
  void resize(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::uint8_t* data() noexcept { return id_.data(); }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return id_.data();
  }
  [[nodiscard]] std::uint8_t* begin() noexcept { return data(); }
  [[nodiscard]] std::uint8_t* end() noexcept { return data() + size_; }
  [[nodiscard]] const std::uint8_t* begin() const noexcept { return data(); }
  [[nodiscard]] const std::uint8_t* end() const noexcept {
    return data() + size_;
  }

  friend bool operator==(const connection_id& a,
                         const connection_id& b) noexcept;

 private:
  // Bytes past size_ are never read, so they are left uninitialized:
  // zeroing them on every construction slowed parse_datagram by ~15%.
  std::array<std::uint8_t, kMaxConnectionIdSize> id_;
  std::uint8_t size_ = 0;
};

/// Packet types: the four long-header values (which are also their
/// wire type bits) plus the short-header 1-RTT form. 1-RTT packets
/// carry the post-handshake application data (STREAM frames) of the
/// TTFB timeline; having no length field, they extend to the end of
/// the datagram and must therefore be coalesced last (RFC 9000 §12.2).
enum class packet_type : std::uint8_t {
  initial = 0,
  zero_rtt = 1,
  handshake = 2,
  retry = 3,
  one_rtt = 4,  // short header; not a long-header type-bits value
};

/// A QUIC long-header packet before encryption.
///
/// Version Negotiation packets are represented as `version == 0` with
/// the offered versions in `supported_versions` (RFC 9000 §17.2.1).
/// RFC 9000 §17.2.1 lets a Version Negotiation packet carry connection
/// IDs of up to 255 bytes, since a future version may allow them; this
/// codec speaks only v1, so it holds VN packets to the same 20-byte cap
/// as every other packet type and rejects longer IDs.
struct packet {
  packet_type type = packet_type::initial;
  std::uint32_t version = kVersion1;
  connection_id dcid;
  connection_id scid;
  bytes token;  // Initial: client token; Retry: the issued retry token
  std::uint64_t packet_number = 0;
  std::vector<frame> frames;
  std::vector<std::uint32_t> supported_versions;  // VN packets only

  [[nodiscard]] bool is_version_negotiation() const noexcept {
    return version == 0;
  }

  /// Size of the encoded packet on the wire.
  [[nodiscard]] std::size_t wire_size() const;
  /// Sum of frame payload sizes.
  [[nodiscard]] std::size_t payload_size() const;
  /// True when any frame is ack-eliciting.
  [[nodiscard]] bool ack_eliciting() const;
};

/// Builds a Version Negotiation packet echoing the client's connection
/// ids and listing the server's supported versions. Throws codec_error
/// when either id exceeds kMaxConnectionIdSize.
[[nodiscard]] packet make_version_negotiation(
    bytes_view client_scid, bytes_view client_dcid,
    const std::vector<std::uint32_t>& versions);

/// Resets `slots[i]` to a default packet and returns it, appending a
/// slot when `i == slots.size()`. The slot keeps its frame list's
/// storage, so an endpoint that builds or parses every datagram in one
/// vector of slots allocates frame lists only while it first grows.
/// Slots past the current datagram keep stale frame views that nothing
/// reads: reuse_slot clears them first. Appending a slot may move the
/// others, so hold no reference to one across the next reuse_slot.
packet& reuse_slot(std::vector<packet>& slots, std::size_t i);

/// Parses every packet coalesced into one UDP datagram into the front
/// of `slots` (through reuse_slot) and returns them; stops at trailing
/// datagram padding (a zero first byte). CRYPTO and STREAM frames view
/// `payload`. Throws codec_error on malformed packets, including any
/// connection ID longer than kMaxConnectionIdSize (RFC 9000 §17.2: such
/// packets are dropped).
std::span<const packet> parse_datagram(bytes_view payload,
                                       std::vector<packet>& slots);
/// As above, into a fresh vector.
[[nodiscard]] std::vector<packet> parse_datagram(bytes_view payload);

/// Appends enough PADDING to the last packet's frames so the encoded
/// datagram reaches exactly `target` bytes. No-op when already >=
/// target. Returns the number of padding bytes added.
std::size_t pad_datagram_to(std::span<packet> packets, std::size_t target);

/// Encoded size of a coalesced datagram.
[[nodiscard]] std::size_t datagram_size(std::span<const packet> packets);

/// Encodes a coalesced datagram (packets concatenated).
[[nodiscard]] bytes encode_datagram(std::span<const packet> packets);
/// As above, into `out`, replacing its contents and keeping its
/// storage (e.g. a buffer from net::simulator::take_buffer).
void encode_datagram(std::span<const packet> packets, bytes& out);

/// Byte-accounting across a parsed datagram.
struct datagram_accounting {
  std::size_t total = 0;           // UDP payload bytes
  std::size_t crypto_payload = 0;  // TLS bytes
  std::size_t padding = 0;         // PADDING bytes
  std::size_t stream_payload = 0;  // application STREAM bytes
  bool has_initial = false;
};
[[nodiscard]] datagram_accounting account_datagram(bytes_view payload);

}  // namespace certquic::quic
