#include "quic/frames.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "quic/varint.hpp"
#include "util/buffer.hpp"
#include "util/errors.hpp"

namespace certquic::quic {
namespace {

constexpr std::uint8_t kPadding = 0x00;
constexpr std::uint8_t kPing = 0x01;
constexpr std::uint8_t kAck = 0x02;
constexpr std::uint8_t kCrypto = 0x06;
// STREAM with OFF, LEN and FIN bits (RFC 9000 §19.8).
constexpr std::uint8_t kStreamOffLenFin = 0x0f;
constexpr std::uint8_t kConnectionClose = 0x1c;

/// Offset of the first non-zero byte of a non-zero word read from
/// memory with memcpy.
std::size_t first_nonzero_byte(std::uint64_t word) {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<std::size_t>(std::countr_zero(word)) / 8;
  } else {
    return static_cast<std::size_t>(std::countl_zero(word)) / 8;
  }
}

/// Length of the run of PADDING (zero) bytes that starts `s`. A padded
/// Initial is mostly one such run, so the scan ORs together 64-byte
/// blocks, then takes words, and finds the run's end inside the word
/// that holds it.
std::size_t padding_run(bytes_view s) {
  const std::uint8_t* data = s.data();
  std::size_t n = 0;
  for (; n + 64 <= s.size(); n += 64) {
    std::array<std::uint64_t, 8> block;
    std::memcpy(block.data(), data + n, sizeof block);
    std::uint64_t any = 0;
    for (const std::uint64_t word : block) {
      any |= word;
    }
    if (any != 0) {
      break;
    }
  }
  for (; n + 8 <= s.size(); n += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + n, sizeof word);
    if (word != 0) {
      return n + first_nonzero_byte(word);
    }
  }
  while (n < s.size() && data[n] == kPadding) {
    ++n;
  }
  return n;
}

struct size_visitor {
  std::size_t operator()(const padding_frame& f) const { return f.count; }
  std::size_t operator()(const ping_frame&) const { return 1; }
  std::size_t operator()(const ack_frame& f) const {
    // type + largest + delay(0) + range_count(0) + first_range(largest).
    return 1 + varint_size(f.largest) + 1 + 1 + varint_size(f.largest);
  }
  std::size_t operator()(const crypto_frame& f) const {
    return 1 + varint_size(f.offset) + varint_size(f.data.size()) +
           f.data.size();
  }
  std::size_t operator()(const connection_close_frame& f) const {
    return 1 + varint_size(f.error_code) + 1 +
           varint_size(f.reason.size()) + f.reason.size();
  }
  std::size_t operator()(const stream_frame& f) const {
    return 1 + varint_size(f.id) + varint_size(f.offset) +
           varint_size(f.data.size()) + f.data.size();
  }
};

std::uint8_t* put_bytes(std::uint8_t* at, bytes_view v) {
  if (!v.empty()) {
    std::memcpy(at, v.data(), v.size());
  }
  return at + v.size();
}

/// Writes into zeroed storage (see put_frame).
struct put_visitor {
  std::uint8_t* at;

  std::uint8_t* operator()(const padding_frame& f) const {
    return at + f.count;
  }
  std::uint8_t* operator()(const ping_frame&) const {
    *at = kPing;
    return at + 1;
  }
  std::uint8_t* operator()(const ack_frame& f) const {
    *at = kAck;
    std::uint8_t* p = put_varint(at + 1, f.largest);
    p[0] = 0;  // ack delay
    p[1] = 0;  // additional ranges
    return put_varint(p + 2, f.largest);  // first range covers everything
  }
  std::uint8_t* operator()(const crypto_frame& f) const {
    *at = kCrypto;
    std::uint8_t* p = put_varint(at + 1, f.offset);
    p = put_varint(p, f.data.size());
    return put_bytes(p, f.data);
  }
  std::uint8_t* operator()(const connection_close_frame& f) const {
    *at = kConnectionClose;
    std::uint8_t* p = put_varint(at + 1, f.error_code);
    *p++ = 0;  // offending frame type
    p = put_varint(p, f.reason.size());
    return put_bytes(p, {reinterpret_cast<const std::uint8_t*>(f.reason.data()),
                         f.reason.size()});
  }
  std::uint8_t* operator()(const stream_frame& f) const {
    *at = kStreamOffLenFin;
    std::uint8_t* p = put_varint(at + 1, f.id);
    p = put_varint(p, f.offset);
    p = put_varint(p, f.data.size());
    return put_bytes(p, f.data);
  }
};

}  // namespace

std::size_t frame_size(const frame& f) { return std::visit(size_visitor{}, f); }

std::uint8_t* put_frame(std::uint8_t* at, const frame& f) {
  return std::visit(put_visitor{at}, f);
}

void parse_frames(bytes_view payload, std::vector<frame>& out) {
  out.clear();
  // Handshake packets carry at most a few frames (ACK, CRYPTO, PADDING):
  // one allocation instead of three growth steps.
  out.reserve(4);
  buffer_reader r{payload};
  while (!r.empty()) {
    const std::uint8_t type = r.peek_u8();
    switch (type) {
      case kPadding: {
        // One scan for the end of the run, then one skip over it.
        const std::size_t count =
            padding_run(payload.subspan(r.position()));
        r.skip(count);
        out.push_back(padding_frame{count});
        break;
      }
      case kPing:
        (void)r.u8();
        out.push_back(ping_frame{});
        break;
      case kAck: {
        (void)r.u8();
        ack_frame f;
        f.largest = read_varint(r);
        (void)read_varint(r);  // delay
        const std::uint64_t ranges = read_varint(r);
        (void)read_varint(r);  // first range
        for (std::uint64_t i = 0; i < ranges; ++i) {
          (void)read_varint(r);  // gap
          (void)read_varint(r);  // range length
        }
        out.push_back(f);
        break;
      }
      case kCrypto: {
        (void)r.u8();
        crypto_frame f;
        f.offset = read_varint(r);
        const std::uint64_t len = read_varint(r);
        f.data = r.raw(len);
        out.push_back(f);
        break;
      }
      case kStreamOffLenFin: {
        (void)r.u8();
        stream_frame f;
        f.id = read_varint(r);
        f.offset = read_varint(r);
        const std::uint64_t len = read_varint(r);
        f.data = r.raw(len);
        out.push_back(f);
        break;
      }
      case kConnectionClose: {
        (void)r.u8();
        connection_close_frame f;
        f.error_code = read_varint(r);
        (void)read_varint(r);  // frame type
        const std::uint64_t len = read_varint(r);
        const bytes_view reason = r.raw(len);
        f.reason.assign(reason.begin(), reason.end());
        out.push_back(std::move(f));
        break;
      }
      default:
        throw codec_error("unsupported frame type " + std::to_string(type));
    }
  }
}

bool is_ack_eliciting(const frame& f) {
  return std::holds_alternative<ping_frame>(f) ||
         std::holds_alternative<crypto_frame>(f) ||
         std::holds_alternative<stream_frame>(f);
}

frame_accounting account(const std::vector<frame>& frames) {
  frame_accounting acc;
  for (const auto& f : frames) {
    if (const auto* crypto = std::get_if<crypto_frame>(&f)) {
      acc.crypto_payload += crypto->data.size();
    } else if (const auto* padding = std::get_if<padding_frame>(&f)) {
      acc.padding += padding->count;
    } else if (const auto* stream = std::get_if<stream_frame>(&f)) {
      acc.stream_payload += stream->data.size();
    }
    acc.ack_eliciting = acc.ack_eliciting || is_ack_eliciting(f);
  }
  return acc;
}

}  // namespace certquic::quic
