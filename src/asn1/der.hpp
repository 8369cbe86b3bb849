// DER (Distinguished Encoding Rules) encoder/decoder subset.
//
// Implements exactly the ASN.1 universe needed by X.509v3 certificates:
// definite-length TLV framing, INTEGER (small and big), OBJECT IDENTIFIER
// with base-128 arcs, BIT/OCTET STRING, BOOLEAN, NULL, the string types
// used in distinguished names, UTCTime and SEQUENCE/SET/context tags.
//
// Faithful DER byte layout is what makes the certificate-size analysis in
// this reproduction meaningful: every certificate in the corpus is a real
// DER byte string whose length reacts to names, keys and extensions the
// same way real certificates do.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

#include "util/buffer.hpp"
#include "util/bytes.hpp"

namespace certquic::asn1 {

/// Universal class tag numbers used by X.509.
enum class tag : std::uint8_t {
  boolean = 0x01,
  integer = 0x02,
  bit_string = 0x03,
  octet_string = 0x04,
  null_value = 0x05,
  object_identifier = 0x06,
  utf8_string = 0x0c,
  printable_string = 0x13,
  ia5_string = 0x16,
  utc_time = 0x17,
  sequence = 0x30,  // constructed
  set = 0x31,       // constructed
};

/// Object identifier as a list of arcs, e.g. {2, 5, 4, 3} for id-at-cn:
/// the form decode_oid reads back.
using oid_arcs = std::vector<std::uint32_t>;

/// An OBJECT IDENTIFIER encoded once, when it is constructed, with
/// standard base-128 arc packing; der_writer::oid copies the finished
/// TLV. The well-known OIDs of x509/oids.hpp are built at static
/// initialization, so issuance never packs an arc.
class oid {
 public:
  /// Throws codec_error on fewer than two arcs, invalid root arcs, or a
  /// combined first subidentifier (arcs[0] * 40 + arcs[1]) wider than
  /// 32 bits.
  explicit oid(std::span<const std::uint32_t> arcs);
  oid(std::initializer_list<std::uint32_t> arcs)
      : oid(std::span{arcs.begin(), arcs.size()}) {}

  /// The complete TLV: tag 0x06, length, packed arcs.
  [[nodiscard]] bytes_view der() const noexcept { return der_; }

  [[nodiscard]] bool operator==(const oid& other) const = default;

 private:
  bytes der_;
};

/// Builds a context-specific tag byte [n]; constructed if `constructed`.
/// Throws codec_error for n > 30 (the high-tag-number form is unused).
[[nodiscard]] std::uint8_t context_tag(unsigned n, bool constructed = true);

/// The one DER encoder: every element is written into a single growing
/// buffer. Constructed elements nest with open()/close(). open() writes
/// the tag and a one-byte length placeholder; close() back-patches the
/// minimal definite length and shifts the content right only when the
/// long length form is needed. Primitive writers append a complete TLV.
class der_writer {
 public:
  der_writer() = default;
  explicit der_writer(std::size_t capacity) { buf_.reserve(capacity); }

  /// Starts a constructed (or content-wrapping) element.
  void open(std::uint8_t tag_byte) {
    if (depth_ == kMaxDepth) {
      too_deep();
    }
    buf_.push_back(tag_byte);
    open_[depth_++] = buf_.size();
    buf_.push_back(0);  // short-form placeholder, fixed up by close()
  }
  void open(tag t) { open(static_cast<std::uint8_t>(t)); }
  /// Ends the innermost open element. Throws codec_error when none is
  /// open.
  void close() {
    if (depth_ == 0) {
      unbalanced();
    }
    const std::size_t at = open_[--depth_];
    const std::size_t length = buf_.size() - at - 1;
    if (length < 0x80) {
      buf_[at] = static_cast<std::uint8_t>(length);
      return;
    }
    close_long(at, length);
  }

  /// Tag plus the minimal definite-length encoding of `length`.
  void header(std::uint8_t tag_byte, std::size_t length) {
    if (length < 0x80) {
      buf_.push_back(tag_byte);
      buf_.push_back(static_cast<std::uint8_t>(length));
      return;
    }
    header_long(tag_byte, length);
  }
  void header(tag t, std::size_t length) {
    header(static_cast<std::uint8_t>(t), length);
  }
  /// A complete TLV around `content`.
  void tlv(std::uint8_t tag_byte, bytes_view content);
  void tlv(tag t, bytes_view content) {
    tlv(static_cast<std::uint8_t>(t), content);
  }
  void tlv(std::uint8_t tag_byte, std::string_view content);

  /// Pre-encoded bytes, copied verbatim.
  void raw(bytes_view der) { buf_.insert(buf_.end(), der.begin(), der.end()); }
  /// Appends the characters of `s` verbatim: one piece of a string
  /// value whose header was written for the whole.
  void raw(std::string_view s) { buf_.insert(buf_.end(), s.begin(), s.end()); }
  void u8(std::uint8_t v) { buf_.push_back(v); }
  /// Appends `n` zero bytes and returns a pointer to them, valid until
  /// the next write; lets callers fill key material in place.
  [[nodiscard]] std::uint8_t* append(std::size_t n);

  /// INTEGER in two's-complement minimal form.
  void integer(std::int64_t v);
  /// INTEGER from an unsigned big-endian magnitude (serial numbers, RSA
  /// moduli): 0x00 is prepended when the leading bit is set so the
  /// value stays positive, and redundant leading zero octets go.
  void big_integer(bytes_view magnitude);
  /// OBJECT IDENTIFIER: a copy of the TLV `id` encoded when it was
  /// built.
  void oid(const asn1::oid& id) { raw(id.der()); }
  /// BIT STRING with `unused_bits` trailing unused bits (0 for X.509
  /// keys and signatures).
  void bit_string(bytes_view data, std::uint8_t unused_bits = 0);
  void octet_string(bytes_view data) { tlv(tag::octet_string, data); }
  void boolean(bool v);
  void null() { header(tag::null_value, 0); }
  void printable_string(std::string_view s);
  void utf8_string(std::string_view s);
  void ia5_string(std::string_view s);
  /// UTCTime, `s` must be "YYMMDDHHMMSSZ" (13 chars).
  void utc_time(std::string_view s);

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] bytes_view view() const noexcept { return buf_; }
  /// Drops the content and every open element; keeps the capacity.
  void clear() noexcept {
    buf_.clear();
    depth_ = 0;
  }
  /// The encoded bytes. Throws codec_error while an element is open.
  [[nodiscard]] bytes take() &&;

  /// Deepest nesting open() accepts; X.509 needs at most about 12.
  static constexpr std::size_t kMaxDepth = 24;

 private:
  [[noreturn]] static void too_deep();
  [[noreturn]] static void unbalanced();
  /// close() and header() for a length of 0x80 or more.
  void close_long(std::size_t at, std::size_t length);
  void header_long(std::uint8_t tag_byte, std::size_t length);

  bytes buf_;
  /// Offset of each open element's length placeholder.
  std::size_t open_[kMaxDepth] = {};
  std::size_t depth_ = 0;
};

/// A decoded TLV element; `content` views into the reader's buffer.
struct tlv {
  std::uint8_t tag_byte = 0;
  bytes_view content;

  [[nodiscard]] bool is(tag t) const noexcept {
    return tag_byte == static_cast<std::uint8_t>(t);
  }
};

/// Reads one TLV from `r`. Throws codec_error on truncated or
/// indefinite-length input (DER forbids indefinite lengths).
[[nodiscard]] tlv read_tlv(buffer_reader& r);

/// Splits a constructed element's content into its child TLVs.
[[nodiscard]] std::vector<tlv> children(const tlv& parent);

/// Decodes an INTEGER TLV content into a signed machine integer.
/// Throws codec_error if it does not fit in 64 bits.
[[nodiscard]] std::int64_t decode_integer(const tlv& t);

/// Decodes an OBJECT IDENTIFIER TLV back into arcs.
[[nodiscard]] oid_arcs decode_oid(const tlv& t);

}  // namespace certquic::asn1
