// QUIC v1 long-header packets, short-header 1-RTT packets and datagram
// (de)coalescing (RFC 9000 §17.2/§17.3). AEAD is modelled by a 16-byte
// tag; header protection is not applied (the simulation parses its own
// packets). All sizes on the wire are exact.
//
// Each datagram costs one size pass, one write and one scan. An
// endpoint builds a datagram through a datagram_builder, which counts
// every packet's frame bytes as the frames are added; padding is then
// found in closed form from those counts, and the encoder sizes the
// pooled buffer once and writes headers, varints and frames straight
// into it. The AEAD tags and PADDING are the zeros the buffer is sized
// with. The parser fills packet slots field by field and skips a
// PADDING run a 64-byte block at a time.
#pragma once

#include <array>
#include <cstdint>
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
};

/// Builds a Version Negotiation packet echoing the client's connection
/// ids and listing the server's supported versions. Throws codec_error
/// when either id exceeds kMaxConnectionIdSize.
[[nodiscard]] packet make_version_negotiation(
    bytes_view client_scid, bytes_view client_dcid,
    const std::vector<std::uint32_t>& versions);

/// Parses every packet coalesced into one UDP datagram into the front
/// of `slots` and returns them; stops at trailing datagram padding (a
/// zero first byte). A slot keeps its storage and the parse sets every
/// field, so parsing every datagram into one vector of slots allocates
/// only while the vector and its frame lists first grow; appending a
/// slot may move the others. CRYPTO and STREAM frames view `payload`.
/// Throws codec_error on malformed packets, including any connection ID
/// longer than kMaxConnectionIdSize (RFC 9000 §17.2: such packets are
/// dropped).
std::span<const packet> parse_datagram(bytes_view payload,
                                       std::vector<packet>& slots);
/// As above, into a fresh vector.
[[nodiscard]] std::vector<packet> parse_datagram(bytes_view payload);

/// Encodes a coalesced datagram (packets concatenated): one pass sizes
/// the packets, one writes them. Endpoints encode through
/// datagram_builder::encode, which already knows the sizes.
[[nodiscard]] bytes encode_datagram(std::span<const packet> packets);

/// The most packets a datagram_builder coalesces: one per packet type
/// that carries frames (Initial, 0-RTT, Handshake, 1-RTT).
inline constexpr std::size_t kMaxCoalesced = 4;

/// Builds one datagram in an endpoint's packet slots, counting each
/// packet's frame bytes as frames are added, so that sizing, padding
/// and encoding never walk the frames again. A slot keeps its frame
/// list's storage, so an endpoint that builds every datagram in one
/// vector of slots allocates frame lists only while it first grows.
class datagram_builder {
 public:
  /// Builds into the front of `slots`, which must outlive the builder.
  explicit datagram_builder(std::vector<packet>& slots) noexcept
      : slots_(slots) {}

  /// Opens the next packet: a slot reset to a default packet of `type`.
  /// Its header fields are set through the returned reference, which
  /// lasts until the next `open`; its frames only through `add`. Throws
  /// config_error past kMaxCoalesced packets.
  packet& open(packet_type type);
  /// Appends `f` to the packet opened last.
  void add(const frame& f);

  /// Encoded size of the datagram.
  [[nodiscard]] std::size_t size() const;
  /// Appends PADDING to the last packet so the datagram encodes to
  /// `target` bytes, and returns the bytes added; none when it already
  /// has `target` or more. A long header's length field widens as its
  /// value passes 63, 16383 and 2^30 - 1, so the one size just past each
  /// widening has no encoding: there the datagram stops one byte short.
  /// Throws
  /// config_error when the last packet carries no frames (a Retry or
  /// Version Negotiation packet).
  std::size_t pad_to(std::size_t target);
  /// Encodes the datagram into `out`, replacing its contents and
  /// keeping its storage.
  void encode(bytes& out) const;

  /// The packets opened so far.
  [[nodiscard]] std::span<const packet> packets() const noexcept {
    return {slots_.data(), count_};
  }

 private:
  std::vector<packet>& slots_;
  std::size_t count_ = 0;
  /// Frame bytes of each open packet.
  std::array<std::size_t, kMaxCoalesced> payload_{};
};

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
