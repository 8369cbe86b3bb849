#include "asn1/der.hpp"

#include "util/errors.hpp"

namespace certquic::asn1 {
namespace {

bytes_view as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Number of octets of the long-form length encoding of `length`.
std::size_t length_octets(std::size_t length) {
  std::size_t n = 0;
  for (std::size_t v = length; v > 0; v >>= 8) {
    ++n;
  }
  return n;
}

/// Writes `length` big-endian into the `n` octets at `out`.
void put_length(std::uint8_t* out, std::size_t length, std::size_t n) {
  for (std::size_t i = n; i > 0; --i) {
    out[i - 1] = static_cast<std::uint8_t>(length & 0xff);
    length >>= 8;
  }
}

/// The combined first subidentifier, arcs[0] * 40 + arcs[1]. Throws when
/// the arcs are not a valid OID root or the value would not fit the 32
/// bits every arc decodes into.
std::uint32_t first_subidentifier(std::span<const std::uint32_t> arcs) {
  if (arcs.size() < 2) {
    throw codec_error("OID needs at least two arcs");
  }
  if (arcs[0] > 2 || (arcs[0] < 2 && arcs[1] >= 40)) {
    throw codec_error("invalid OID root arcs");
  }
  const std::uint64_t first =
      std::uint64_t{arcs[0]} * 40 + std::uint64_t{arcs[1]};
  if (first > 0xffff'ffffULL) {
    throw codec_error("OID first subidentifier exceeds 32 bits");
  }
  return static_cast<std::uint32_t>(first);
}

}  // namespace

std::uint8_t context_tag(unsigned n, bool constructed) {
  if (n > 30) {
    throw codec_error("context tag > 30 not supported");
  }
  return static_cast<std::uint8_t>(0x80 | (constructed ? 0x20 : 0x00) | n);
}

// --- oid ------------------------------------------------------------------

oid::oid(std::span<const std::uint32_t> arcs) {
  const std::uint32_t first = first_subidentifier(arcs);
  der_writer w;
  auto push_base128 = [&w](std::uint32_t v) {
    std::uint8_t chunks[5];
    int n = 0;
    do {
      chunks[n++] = static_cast<std::uint8_t>(v & 0x7f);
      v >>= 7;
    } while (v > 0);
    for (int i = n - 1; i > 0; --i) {
      w.u8(static_cast<std::uint8_t>(chunks[i] | 0x80));
    }
    w.u8(chunks[0]);
  };
  w.open(tag::object_identifier);
  push_base128(first);
  for (std::size_t i = 2; i < arcs.size(); ++i) {
    push_base128(arcs[i]);
  }
  w.close();
  der_ = std::move(w).take();
}

// --- der_writer ------------------------------------------------------------

void der_writer::too_deep() {
  throw codec_error("der_writer nesting too deep");
}

void der_writer::unbalanced() {
  throw codec_error("der_writer::close without an open element");
}

void der_writer::close_long(std::size_t at, std::size_t length) {
  // Long form: shift the content right by the extra length octets.
  const std::size_t n = length_octets(length);
  buf_.insert(buf_.begin() + static_cast<std::ptrdiff_t>(at + 1), n,
              std::uint8_t{0});
  buf_[at] = static_cast<std::uint8_t>(0x80 | n);
  put_length(buf_.data() + at + 1, length, n);
}

void der_writer::header_long(std::uint8_t tag_byte, std::size_t length) {
  // Long form: minimal number of length octets (DER requirement).
  const std::size_t n = length_octets(length);
  buf_.push_back(tag_byte);
  buf_.push_back(static_cast<std::uint8_t>(0x80 | n));
  put_length(append(n), length, n);
}

void der_writer::tlv(std::uint8_t tag_byte, bytes_view content) {
  header(tag_byte, content.size());
  raw(content);
}

void der_writer::tlv(std::uint8_t tag_byte, std::string_view content) {
  tlv(tag_byte, as_bytes(content));
}

std::uint8_t* der_writer::append(std::size_t n) {
  const std::size_t at = buf_.size();
  buf_.resize(at + n);
  return buf_.data() + at;
}

void der_writer::integer(std::int64_t v) {
  // Minimal two's-complement octets, least significant first.
  std::uint8_t octets[8];
  std::size_t n = 0;
  bool more = true;
  while (more) {
    const auto octet = static_cast<std::uint8_t>(v & 0xff);
    v >>= 8;
    octets[n++] = octet;
    const bool sign_bit = (octet & 0x80) != 0;
    more = !((v == 0 && !sign_bit) || (v == -1 && sign_bit));
  }
  header(tag::integer, n);
  for (std::size_t i = n; i > 0; --i) {
    buf_.push_back(octets[i - 1]);
  }
}

void der_writer::big_integer(bytes_view magnitude) {
  if (magnitude.empty()) {
    header(tag::integer, 1);
    u8(0);
    return;
  }
  std::size_t start = 0;
  while (start + 1 < magnitude.size() && magnitude[start] == 0) {
    ++start;
  }
  const bytes_view digits = magnitude.subspan(start);
  const bool pad = (digits[0] & 0x80) != 0;  // keep the value positive
  header(tag::integer, digits.size() + (pad ? 1 : 0));
  if (pad) {
    u8(0);
  }
  raw(digits);
}

void der_writer::bit_string(bytes_view data, std::uint8_t unused_bits) {
  if (unused_bits > 7) {
    throw codec_error("bit string unused_bits > 7");
  }
  header(tag::bit_string, data.size() + 1);
  u8(unused_bits);
  raw(data);
}

void der_writer::boolean(bool v) {
  header(tag::boolean, 1);
  u8(v ? 0xff : 0x00);
}

void der_writer::printable_string(std::string_view s) {
  tlv(static_cast<std::uint8_t>(tag::printable_string), s);
}

void der_writer::utf8_string(std::string_view s) {
  tlv(static_cast<std::uint8_t>(tag::utf8_string), s);
}

void der_writer::ia5_string(std::string_view s) {
  tlv(static_cast<std::uint8_t>(tag::ia5_string), s);
}

void der_writer::utc_time(std::string_view s) {
  if (s.size() != 13 || s.back() != 'Z') {
    throw codec_error("UTCTime must be YYMMDDHHMMSSZ");
  }
  tlv(static_cast<std::uint8_t>(tag::utc_time), s);
}

bytes der_writer::take() && {
  if (depth_ != 0) {
    throw codec_error("der_writer::take with an open element");
  }
  return std::move(buf_);
}

// --- decoding ---------------------------------------------------------------

tlv read_tlv(buffer_reader& r) {
  tlv out;
  out.tag_byte = r.u8();
  const std::uint8_t first_len = r.u8();
  std::size_t length = 0;
  if (first_len < 0x80) {
    length = first_len;
  } else if (first_len == 0x80) {
    throw codec_error("indefinite length is not valid DER");
  } else {
    const int n_octets = first_len & 0x7f;
    if (n_octets > 8) {
      throw codec_error("length too large");
    }
    for (int i = 0; i < n_octets; ++i) {
      length = (length << 8) | r.u8();
    }
  }
  out.content = r.raw(length);
  return out;
}

std::vector<tlv> children(const tlv& parent) {
  std::vector<tlv> out;
  buffer_reader r{parent.content};
  while (!r.empty()) {
    out.push_back(read_tlv(r));
  }
  return out;
}

std::int64_t decode_integer(const tlv& t) {
  if (!t.is(tag::integer)) {
    throw codec_error("not an INTEGER");
  }
  if (t.content.empty() || t.content.size() > 8) {
    throw codec_error("INTEGER does not fit in 64 bits");
  }
  std::int64_t v = (t.content[0] & 0x80) ? -1 : 0;
  for (const std::uint8_t b : t.content) {
    v = (v << 8) | b;
  }
  return v;
}

oid_arcs decode_oid(const tlv& t) {
  if (!t.is(tag::object_identifier)) {
    throw codec_error("not an OID");
  }
  oid_arcs arcs;
  std::size_t i = 0;
  auto read_base128 = [&]() -> std::uint32_t {
    std::uint32_t v = 0;
    while (i < t.content.size()) {
      const std::uint8_t b = t.content[i++];
      if (v >> 25 != 0) {
        // Another 7-bit group would push past 32 bits; the arc would
        // silently wrap instead of round-tripping.
        throw codec_error("OID arc exceeds 32 bits");
      }
      v = (v << 7) | (b & 0x7f);
      if (!(b & 0x80)) {
        return v;
      }
    }
    throw codec_error("truncated OID arc");
  };
  if (t.content.empty()) {
    throw codec_error("empty OID");
  }
  const std::uint32_t first = read_base128();
  if (first < 40) {
    arcs.push_back(0);
    arcs.push_back(first);
  } else if (first < 80) {
    arcs.push_back(1);
    arcs.push_back(first - 40);
  } else {
    arcs.push_back(2);
    arcs.push_back(first - 80);
  }
  while (i < t.content.size()) {
    arcs.push_back(read_base128());
  }
  return arcs;
}

}  // namespace certquic::asn1
