#include "quic/packet.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "quic/varint.hpp"
#include "util/assert.hpp"
#include "util/buffer.hpp"
#include "util/errors.hpp"

namespace certquic::quic {
namespace {

std::uint8_t first_byte(const packet& p) {
  if (p.type == packet_type::one_rtt) {
    // Short header: form=0, fixed=1, spin/key/reserved=0, pn_len-1.
    return static_cast<std::uint8_t>(0x40 | (kPacketNumberSize - 1));
  }
  // form=1, fixed=1, type, reserved=0, pn_len encoded as len-1.
  return static_cast<std::uint8_t>(
      0xc0 | (static_cast<std::uint8_t>(p.type) << 4) |
      (kPacketNumberSize - 1));
}

/// Bytes before the length field of a long-header packet, or before the
/// packet number of a 1-RTT one; all of a Retry or Version Negotiation
/// packet but its tail (integrity tag, version list).
std::size_t header_size(const packet& p) {
  if (p.type == packet_type::one_rtt) {
    // Short header: no version, scid or length field; the packet runs
    // to the end of the datagram. (The dcid keeps its length prefix —
    // a simulation convention, since real 1-RTT receivers know their
    // own cid length while this codec parses packets generically.)
    return 1 + 1 + p.dcid.size();
  }
  std::size_t header = 1 + 4 + 1 + p.dcid.size() + 1 + p.scid.size();
  if (p.type == packet_type::initial && !p.is_version_negotiation()) {
    header += varint_size(p.token.size()) + p.token.size();
  }
  return header;
}

/// Packet number, frames and AEAD tag: the value a length field holds.
std::size_t protected_size(std::size_t payload) {
  return kPacketNumberSize + payload + kAeadTagSize;
}

/// Encoded size of `p` when its frames take `payload` bytes.
std::size_t packet_size(const packet& p, std::size_t payload) {
  const std::size_t header = header_size(p);
  if (p.is_version_negotiation()) {
    return header + 4 * p.supported_versions.size();
  }
  if (p.type == packet_type::retry) {
    // Retry: header + token + 16-byte integrity tag, no length/pn.
    return header + p.token.size() + kAeadTagSize;
  }
  const std::size_t prot = protected_size(payload);
  if (p.type == packet_type::one_rtt) {
    return header + prot;
  }
  return header + varint_size(prot) + prot;
}

/// Frame bytes `last` must carry for its packet to encode to the largest
/// size not above `room`, its share of the datagram target; at least
/// `payload`, its frame bytes now. Closed form: a long header's length
/// field takes one of four widths, and exactly one fits a room the
/// width can encode.
std::size_t padded_payload(const packet& last, std::size_t payload,
                           std::size_t room) {
  const std::size_t overhead = kPacketNumberSize + kAeadTagSize;
  const std::size_t header = header_size(last);
  if (room <= packet_size(last, payload)) {
    return payload;
  }
  if (last.type == packet_type::one_rtt) {
    return room - header - overhead;
  }
  // The length field and what it counts share the room. The one room
  // just past each width boundary has no encoding: fall back a byte.
  for (std::size_t rest = room - header;; --rest) {
    for (const std::size_t width : {1u, 2u, 4u, 8u}) {
      if (rest > width && varint_size(rest - width) == width) {
        return rest - width - overhead;
      }
    }
  }
}

/// Appends `n` PADDING bytes to the frames of `p`, extending a trailing
/// PADDING frame rather than adding a second one.
void append_padding(packet& p, std::size_t n) {
  if (n == 0) {
    return;
  }
  if (!p.frames.empty()) {
    if (auto* padding = std::get_if<padding_frame>(&p.frames.back())) {
      padding->count += n;
      return;
    }
  }
  p.frames.push_back(padding_frame{n});
}

std::uint8_t* put_u16(std::uint8_t* at, std::uint16_t v) {
  at[0] = static_cast<std::uint8_t>(v >> 8);
  at[1] = static_cast<std::uint8_t>(v);
  return at + 2;
}

std::uint8_t* put_u32(std::uint8_t* at, std::uint32_t v) {
  at[0] = static_cast<std::uint8_t>(v >> 24);
  at[1] = static_cast<std::uint8_t>(v >> 16);
  at[2] = static_cast<std::uint8_t>(v >> 8);
  at[3] = static_cast<std::uint8_t>(v);
  return at + 4;
}

std::uint8_t* put_bytes(std::uint8_t* at, bytes_view v) {
  if (!v.empty()) {
    std::memcpy(at, v.data(), v.size());
  }
  return at + v.size();
}

/// Copies a connection ID's bytes. A byte loop: GCC expands a memcpy
/// whose length it knows to be at most 20 into `rep movs`, whose start-up
/// cost outweighs the copy at this size.
void copy_id_bytes(std::uint8_t* to, const std::uint8_t* from,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    to[i] = from[i];
  }
}

std::uint8_t* put_connection_id(std::uint8_t* at, const connection_id& id) {
  *at++ = static_cast<std::uint8_t>(id.size());
  copy_id_bytes(at, id.data(), id.size());
  return at + id.size();
}

std::uint8_t* put_frames(std::uint8_t* at, const packet& p) {
  for (const frame& f : p.frames) {
    at = put_frame(at, f);
  }
  return at;
}

/// Writes `p`, whose frames take `payload` bytes, at `at` in zeroed
/// storage (the tags are those zeros) and returns the byte after it.
std::uint8_t* put_packet(std::uint8_t* at, const packet& p,
                         std::size_t payload) {
  *at++ = first_byte(p);
  if (p.type == packet_type::one_rtt) {
    at = put_connection_id(at, p.dcid);
    at = put_u16(at, static_cast<std::uint16_t>(p.packet_number));
    return put_frames(at, p) + kAeadTagSize;
  }
  at = put_u32(at, p.version);
  at = put_connection_id(at, p.dcid);
  at = put_connection_id(at, p.scid);
  if (p.is_version_negotiation()) {
    for (const std::uint32_t v : p.supported_versions) {
      at = put_u32(at, v);
    }
    return at;
  }
  if (p.type == packet_type::retry) {
    // The token, then the retry integrity tag.
    return put_bytes(at, p.token) + kAeadTagSize;
  }
  if (p.type == packet_type::initial) {
    at = put_varint(at, p.token.size());
    at = put_bytes(at, p.token);
  }
  at = put_varint(at, protected_size(payload));
  at = put_u16(at, static_cast<std::uint16_t>(p.packet_number));
  return put_frames(at, p) + kAeadTagSize;
}

/// Encodes `packets`, whose frames take `payloads` bytes each, into
/// `out`: sized once, zeroed, then written in one pass.
void write_datagram(std::span<const packet> packets,
                    std::span<const std::size_t> payloads, bytes& out) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    total += packet_size(packets[i], payloads[i]);
  }
  out.clear();
  out.resize(total);
  std::uint8_t* at = out.data();
  for (std::size_t i = 0; i < packets.size(); ++i) {
    at = put_packet(at, packets[i], payloads[i]);
  }
  CERTQUIC_ASSERT(at == out.data() + total,
                  "a packet's frames differ from the bytes counted for them");
}

/// Resets `slots[i]` to a default packet and returns it, appending a
/// slot when `i == slots.size()`. The slot keeps its frame list's
/// storage.
packet& reuse_slot(std::vector<packet>& slots, std::size_t i) {
  if (i == slots.size()) {
    // A handshake datagram coalesces a few packets of a few frames
    // each: size both lists once rather than grow them step by step.
    if (slots.capacity() == 0) {
      slots.reserve(kMaxCoalesced);
    }
    packet& p = slots.emplace_back();
    p.frames.reserve(kMaxCoalesced);
    return p;
  }
  packet& p = slots[i];
  p.type = packet_type::initial;
  p.version = kVersion1;
  p.dcid.resize(0);
  p.scid.resize(0);
  p.token.clear();
  p.packet_number = 0;
  p.frames.clear();
  p.supported_versions.clear();
  return p;
}

/// The slot the parser fills next: appended when `i == slots.size()`,
/// else taken as it is, since the parser sets every field.
packet& parse_slot(std::vector<packet>& slots, std::size_t i) {
  if (i == slots.size()) {
    return reuse_slot(slots, i);
  }
  return slots[i];
}

/// Big-endian reads through `raw`, inline here, where every datagram
/// takes them: the reader's own u16 and u32 are calls.
std::uint16_t read_u16(buffer_reader& r) {
  const bytes_view v = r.raw(2);
  return static_cast<std::uint16_t>((v[0] << 8) | v[1]);
}

std::uint32_t read_u32(buffer_reader& r) {
  const bytes_view v = r.raw(4);
  return (std::uint32_t{v[0]} << 24) | (std::uint32_t{v[1]} << 16) |
         (std::uint32_t{v[2]} << 8) | v[3];
}

/// Reads a one-byte length and that many connection-ID bytes into
/// `id`, which throws codec_error above the v1 cap.
void read_connection_id(buffer_reader& r, connection_id& id) {
  id.assign(r.raw(r.u8()));
}

}  // namespace

void connection_id::assign(bytes_view id) {
  if (id.size() > kMaxConnectionIdSize) {
    throw codec_error("connection id longer than 20 bytes");
  }
  copy_id_bytes(id_.data(), id.data(), id.size());
  size_ = static_cast<std::uint8_t>(id.size());
}

void connection_id::resize(std::size_t n) {
  if (n > kMaxConnectionIdSize) {
    throw codec_error("connection id longer than 20 bytes");
  }
  if (n > size_) {
    std::fill(id_.begin() + size_, id_.begin() + static_cast<long>(n),
              std::uint8_t{0});
  }
  size_ = static_cast<std::uint8_t>(n);
}

bool operator==(const connection_id& a, const connection_id& b) noexcept {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

std::size_t packet::payload_size() const {
  std::size_t total = 0;
  for (const auto& f : frames) {
    total += frame_size(f);
  }
  return total;
}

std::size_t packet::wire_size() const {
  return packet_size(*this, payload_size());
}

std::span<const packet> parse_datagram(bytes_view payload,
                                       std::vector<packet>& slots) {
  std::size_t n = 0;
  buffer_reader r{payload};
  while (!r.empty()) {
    if (r.peek_u8() == 0) {
      break;  // datagram-level padding
    }
    const std::uint8_t first = r.u8();
    if ((first & 0x80) == 0) {
      if ((first & 0x40) == 0) {
        throw codec_error("packet without the fixed bit");
      }
      // Short header (1-RTT): no length field, so the packet consumes
      // the rest of the datagram — it is always the last one.
      packet& p = parse_slot(slots, n++);
      p.type = packet_type::one_rtt;
      p.version = kVersion1;
      read_connection_id(r, p.dcid);
      p.scid.resize(0);
      p.token.clear();
      p.supported_versions.clear();
      if (r.remaining() < kPacketNumberSize + kAeadTagSize) {
        throw codec_error("short-header packet truncated");
      }
      p.packet_number = read_u16(r);
      parse_frames(r.raw(r.remaining() - kAeadTagSize), p.frames);
      r.skip(kAeadTagSize);
      break;
    }
    packet& p = parse_slot(slots, n++);
    p.type = static_cast<packet_type>((first >> 4) & 0x03);
    p.version = read_u32(r);
    read_connection_id(r, p.dcid);
    read_connection_id(r, p.scid);
    p.supported_versions.clear();
    if (p.is_version_negotiation() || p.type == packet_type::retry) {
      p.packet_number = 0;
      p.frames.clear();
    }
    if (p.is_version_negotiation()) {
      // The remainder of a VN packet is the version list; it consumes
      // the rest of the datagram (RFC 9000 §17.2.1).
      p.token.clear();
      while (r.remaining() >= 4) {
        p.supported_versions.push_back(read_u32(r));
      }
      continue;
    }
    if (p.type == packet_type::retry) {
      // Token is everything up to the 16-byte integrity tag.
      const std::size_t rest = r.remaining();
      if (rest < kAeadTagSize) {
        throw codec_error("retry packet truncated");
      }
      const auto token = r.raw(rest - kAeadTagSize);
      p.token.assign(token.begin(), token.end());
      r.skip(kAeadTagSize);
      continue;
    }
    if (p.type == packet_type::initial) {
      const std::uint64_t token_len = read_varint(r);
      const auto token = r.raw(token_len);
      p.token.assign(token.begin(), token.end());
    } else {
      p.token.clear();
    }
    const std::uint64_t prot = read_varint(r);
    if (prot < kPacketNumberSize + kAeadTagSize) {
      throw codec_error("packet length too small");
    }
    p.packet_number = read_u16(r);
    const std::size_t frame_bytes =
        static_cast<std::size_t>(prot) - kPacketNumberSize - kAeadTagSize;
    parse_frames(r.raw(frame_bytes), p.frames);
    r.skip(kAeadTagSize);
  }
  return {slots.data(), n};
}

std::vector<packet> parse_datagram(bytes_view payload) {
  // Fresh slots: the parse appends exactly the packets it returns.
  std::vector<packet> out;
  (void)parse_datagram(payload, out);
  return out;
}

packet make_version_negotiation(bytes_view client_scid,
                                bytes_view client_dcid,
                                const std::vector<std::uint32_t>& versions) {
  packet vn;
  vn.version = 0;
  vn.dcid = client_scid;
  vn.scid = client_dcid;
  vn.supported_versions = versions;
  return vn;
}

bytes encode_datagram(std::span<const packet> packets) {
  // Size each packet once. Only a parsed datagram can coalesce more
  // packets than a builder; its sizes go on the heap.
  std::array<std::size_t, kMaxCoalesced> few{};
  std::vector<std::size_t> many;
  std::span<std::size_t> payloads{few.data(),
                                  std::min(packets.size(), few.size())};
  if (packets.size() > few.size()) {
    many.resize(packets.size());
    payloads = many;
  }
  for (std::size_t i = 0; i < packets.size(); ++i) {
    payloads[i] = packets[i].payload_size();
  }
  bytes out;
  write_datagram(packets, payloads, out);
  return out;
}

packet& datagram_builder::open(packet_type type) {
  if (count_ == kMaxCoalesced) {
    throw config_error("datagram_builder: more than " +
                       std::to_string(kMaxCoalesced) + " packets");
  }
  packet& p = reuse_slot(slots_, count_);
  p.type = type;
  payload_[count_++] = 0;
  return p;
}

void datagram_builder::add(const frame& f) {
  CERTQUIC_ASSERT(count_ > 0, "datagram_builder::add before open");
  slots_[count_ - 1].frames.push_back(f);
  payload_[count_ - 1] += frame_size(f);
}

std::size_t datagram_builder::size() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    total += packet_size(slots_[i], payload_[i]);
  }
  return total;
}

std::size_t datagram_builder::pad_to(std::size_t target) {
  if (count_ == 0) {
    throw config_error("pad_to on an empty datagram");
  }
  const std::size_t last = count_ - 1;
  packet& p = slots_[last];
  if (p.is_version_negotiation() || p.type == packet_type::retry) {
    throw config_error("pad_to: the last packet carries no frames");
  }
  std::size_t before = 0;
  for (std::size_t i = 0; i < last; ++i) {
    before += packet_size(slots_[i], payload_[i]);
  }
  if (target <= before) {
    return 0;
  }
  const std::size_t padded =
      padded_payload(p, payload_[last], target - before);
  const std::size_t added = padded - payload_[last];
  append_padding(p, added);
  payload_[last] = padded;
  return added;
}

void datagram_builder::encode(bytes& out) const {
  write_datagram(packets(), {payload_.data(), count_}, out);
}

datagram_accounting account_datagram(bytes_view payload) {
  datagram_accounting acc;
  acc.total = payload.size();
  for (const auto& p : parse_datagram(payload)) {
    const frame_accounting fa = account(p.frames);
    acc.crypto_payload += fa.crypto_payload;
    acc.padding += fa.padding;
    acc.stream_payload += fa.stream_payload;
    acc.has_initial |= p.type == packet_type::initial;
  }
  return acc;
}

}  // namespace certquic::quic
