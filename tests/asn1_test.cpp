// Unit and property tests for the DER encoder/decoder.
#include <gtest/gtest.h>

#include "asn1/der.hpp"
#include "der_encode.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace certquic::asn1 {
namespace {

using test::encode;

TEST(DerHeader, ShortForm) {
  const bytes h = encode([](der_writer& w) { w.header(0x30, 0x7f); });
  const bytes expected = {0x30, 0x7f};
  EXPECT_EQ(h, expected);
}

TEST(DerHeader, LongForm) {
  const bytes one = encode([](der_writer& w) { w.header(0x30, 0x80); });
  const bytes expected_one = {0x30, 0x81, 0x80};
  EXPECT_EQ(one, expected_one);

  const bytes two = encode([](der_writer& w) { w.header(0x30, 0x1234); });
  const bytes expected_two = {0x30, 0x82, 0x12, 0x34};
  EXPECT_EQ(two, expected_two);
}

TEST(DerInteger, KnownEncodings) {
  // Canonical two's-complement minimal forms.
  const auto integer = [](std::int64_t v) {
    return encode([&](der_writer& w) { w.integer(v); });
  };
  EXPECT_EQ(integer(0), (bytes{0x02, 0x01, 0x00}));
  EXPECT_EQ(integer(127), (bytes{0x02, 0x01, 0x7f}));
  EXPECT_EQ(integer(128), (bytes{0x02, 0x02, 0x00, 0x80}));
  EXPECT_EQ(integer(256), (bytes{0x02, 0x02, 0x01, 0x00}));
  EXPECT_EQ(integer(-1), (bytes{0x02, 0x01, 0xff}));
  EXPECT_EQ(integer(-128), (bytes{0x02, 0x01, 0x80}));
  EXPECT_EQ(integer(-129), (bytes{0x02, 0x02, 0xff, 0x7f}));
  EXPECT_EQ(integer(65537), (bytes{0x02, 0x03, 0x01, 0x00, 0x01}));
}

TEST(DerBigInteger, PrependsZeroForHighBit) {
  const bytes magnitude = {0x80, 0x01};
  const bytes enc = encode([&](der_writer& w) { w.big_integer(magnitude); });
  EXPECT_EQ(enc, (bytes{0x02, 0x03, 0x00, 0x80, 0x01}));
}

TEST(DerBigInteger, StripsRedundantLeadingZeros) {
  const bytes magnitude = {0x00, 0x00, 0x01, 0x02};
  const bytes enc = encode([&](der_writer& w) { w.big_integer(magnitude); });
  EXPECT_EQ(enc, (bytes{0x02, 0x02, 0x01, 0x02}));
}

TEST(DerBigInteger, EmptyEncodesZero) {
  EXPECT_EQ(encode([](der_writer& w) { w.big_integer({}); }),
            (bytes{0x02, 0x01, 0x00}));
}

bytes oid_tlv(const oid& id) {
  return encode([&](der_writer& w) { w.oid(id); });
}

TEST(DerOid, KnownEncodings) {
  // sha256WithRSAEncryption = 1.2.840.113549.1.1.11.
  const bytes rsa = oid_tlv({1, 2, 840, 113549, 1, 1, 11});
  const bytes expected = {0x06, 0x09, 0x2a, 0x86, 0x48, 0x86,
                          0xf7, 0x0d, 0x01, 0x01, 0x0b};
  EXPECT_EQ(rsa, expected);

  // id-ce-subjectAltName = 2.5.29.17.
  const bytes san = oid_tlv({2, 5, 29, 17});
  const bytes expected_san = {0x06, 0x03, 0x55, 0x1d, 0x11};
  EXPECT_EQ(san, expected_san);
}

TEST(DerOid, RejectsInvalidArcs) {
  EXPECT_THROW((void)oid_tlv({1}), codec_error);
  EXPECT_THROW((void)oid_tlv({3, 1}), codec_error);
  EXPECT_THROW((void)oid_tlv({0, 40}), codec_error);
}

TEST(DerOid, RejectsFirstSubidentifierPast32Bits) {
  // 2 * 40 + 4294967295 does not fit the 32 bits an arc decodes into;
  // it used to wrap to 79 and come back as {1, 39}.
  EXPECT_THROW((void)oid_tlv({2, 0xffff'ffffu}), codec_error);
  EXPECT_THROW((void)oid_tlv({2, 0xffff'ffffu - 79}), codec_error);

  // The widest first subidentifier that fits still round-trips.
  const oid_arcs widest{2, 0xffff'ffffu - 80, 7};
  const bytes enc = oid_tlv(oid{widest});
  buffer_reader r{enc};
  EXPECT_EQ(decode_oid(read_tlv(r)), widest);
}

TEST(DerBitString, PrependsUnusedBits) {
  const bytes data = {0xaa};
  const auto bit_string = [&](std::uint8_t unused_bits) {
    return encode([&](der_writer& w) { w.bit_string(data, unused_bits); });
  };
  EXPECT_EQ(bit_string(0), (bytes{0x03, 0x02, 0x00, 0xaa}));
  EXPECT_EQ(bit_string(3), (bytes{0x03, 0x02, 0x03, 0xaa}));
  EXPECT_THROW((void)bit_string(8), codec_error);
}

TEST(DerPrimitives, BooleanNullStrings) {
  EXPECT_EQ(encode([](der_writer& w) { w.boolean(true); }),
            (bytes{0x01, 0x01, 0xff}));
  EXPECT_EQ(encode([](der_writer& w) { w.boolean(false); }),
            (bytes{0x01, 0x01, 0x00}));
  EXPECT_EQ(encode([](der_writer& w) { w.null(); }), (bytes{0x05, 0x00}));
  EXPECT_EQ(encode([](der_writer& w) { w.printable_string("US"); }),
            (bytes{0x13, 0x02, 'U', 'S'}));
  EXPECT_EQ(encode([](der_writer& w) { w.utf8_string("ab"); }),
            (bytes{0x0c, 0x02, 'a', 'b'}));
  EXPECT_EQ(encode([](der_writer& w) { w.ia5_string("x"); }),
            (bytes{0x16, 0x01, 'x'}));
}

TEST(DerUtcTime, ValidatesShape) {
  const auto utc_time = [](std::string_view s) {
    return encode([&](der_writer& w) { w.utc_time(s); });
  };
  EXPECT_EQ(utc_time("220910000000Z").size(), 15u);
  EXPECT_THROW((void)utc_time("2209100000Z"), codec_error);
  EXPECT_THROW((void)utc_time("2209100000000"), codec_error);
}

TEST(DerSequence, NestsAndMeasures) {
  const bytes seq = encode([](der_writer& w) {
    w.open(tag::sequence);
    w.integer(5);
    w.integer(5);
    w.close();
  });
  EXPECT_EQ(seq, (bytes{0x30, 0x06, 0x02, 0x01, 0x05, 0x02, 0x01, 0x05}));
}

TEST(DerContext, TagBytes) {
  const bytes c0 = encode([](der_writer& w) {
    w.open(context_tag(0));
    w.integer(2);
    w.close();
  });
  EXPECT_EQ(c0[0], 0xa0);
  const bytes c2 = encode([](der_writer& w) {
    w.tlv(context_tag(2, /*constructed=*/false), bytes_view{});
  });
  EXPECT_EQ(c2[0], 0x82);
  EXPECT_THROW((void)context_tag(31), codec_error);
}

TEST(DerDecode, ReadTlvRoundTrip) {
  const bytes seq = encode([](der_writer& w) {
    w.open(tag::sequence);
    w.integer(300);
    w.oid({2, 5, 4, 3});
    w.close();
  });
  buffer_reader r{seq};
  const tlv outer = read_tlv(r);
  EXPECT_TRUE(outer.is(tag::sequence));
  EXPECT_TRUE(r.empty());

  const auto kids = children(outer);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(decode_integer(kids[0]), 300);
  EXPECT_EQ(decode_oid(kids[1]), (oid_arcs{2, 5, 4, 3}));
}

TEST(DerDecode, RejectsIndefiniteLength) {
  const bytes data = {0x30, 0x80, 0x00, 0x00};
  buffer_reader r{data};
  EXPECT_THROW((void)read_tlv(r), codec_error);
}

TEST(DerDecode, RejectsTruncatedContent) {
  const bytes data = {0x30, 0x05, 0x01};
  buffer_reader r{data};
  EXPECT_THROW((void)read_tlv(r), codec_error);
}

TEST(DerDecode, OidArcWidthLimit) {
  // An arc of 2^32 (five base-128 groups, first carrying bit 32) used
  // to wrap silently to 0 in the 32-bit accumulator; it must throw.
  const bytes data = {0x06, 0x06, 0x2a, 0x90, 0x80, 0x80, 0x80, 0x00};
  buffer_reader r{data};
  const tlv t = read_tlv(r);
  EXPECT_THROW((void)decode_oid(t), codec_error);
}

TEST(DerDecode, OidMaxArcRoundTrips) {
  // 2^32 - 1 is the widest representable arc and must still decode.
  const oid_arcs arcs{2, 47, 0xffff'ffffu};
  const bytes enc = oid_tlv(oid{arcs});
  buffer_reader r{enc};
  EXPECT_EQ(decode_oid(read_tlv(r)), arcs);
}

TEST(DerDecode, IntegerWidthLimit) {
  bytes data = {0x02, 0x09, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  buffer_reader r{data};
  const tlv t = read_tlv(r);
  EXPECT_THROW((void)decode_integer(t), codec_error);
}

// Property: INTEGER round-trips for random 64-bit values.
class IntegerRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntegerRoundTrip, EncodeDecode) {
  rng r{GetParam()};
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<std::int64_t>(r.next());
    const bytes enc = encode([&](der_writer& w) { w.integer(v); });
    buffer_reader reader{enc};
    EXPECT_EQ(decode_integer(read_tlv(reader)), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegerRoundTrip,
                         ::testing::Values(101u, 202u, 303u, 404u));

// Property: OIDs with random arcs round-trip.
class OidRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OidRoundTrip, EncodeDecode) {
  rng r{GetParam()};
  for (int i = 0; i < 200; ++i) {
    oid_arcs arcs;
    arcs.push_back(static_cast<std::uint32_t>(r.uniform(0, 2)));
    arcs.push_back(static_cast<std::uint32_t>(
        r.uniform(0, arcs[0] < 2 ? 39 : 1000)));
    const auto extra = r.uniform(0, 8);
    for (std::uint64_t k = 0; k < extra; ++k) {
      arcs.push_back(static_cast<std::uint32_t>(r.uniform(0, 1 << 28)));
    }
    const bytes enc = oid_tlv(oid{arcs});
    buffer_reader reader{enc};
    EXPECT_EQ(decode_oid(read_tlv(reader)), arcs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OidRoundTrip,
                         ::testing::Values(11u, 22u, 33u, 44u));

// Property: random nested structures survive header round-trips at every
// size class (short form, 1-, 2- and 3-octet long forms).
class HeaderRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HeaderRoundTrip, WrapUnwrap) {
  rng r{99};
  bytes payload(GetParam());
  r.fill(payload);
  const bytes wrapped =
      encode([&](der_writer& w) { w.tlv(tag::octet_string, payload); });
  buffer_reader reader{wrapped};
  const tlv t = read_tlv(reader);
  EXPECT_TRUE(t.is(tag::octet_string));
  EXPECT_EQ(bytes(t.content.begin(), t.content.end()), payload);
  EXPECT_TRUE(reader.empty());
}

INSTANTIATE_TEST_SUITE_P(Sizes, HeaderRoundTrip,
                         ::testing::Values(0u, 1u, 127u, 128u, 255u, 256u,
                                           65535u, 65536u, 100000u));

// --- der_writer -------------------------------------------------------------

/// The header DER requires for `length` content bytes.
bytes expected_header(std::uint8_t tag_byte, std::size_t length) {
  bytes out{tag_byte};
  if (length < 0x80) {
    out.push_back(static_cast<std::uint8_t>(length));
    return out;
  }
  bytes octets;
  for (std::size_t v = length; v > 0; v >>= 8) {
    octets.insert(octets.begin(), static_cast<std::uint8_t>(v & 0xff));
  }
  out.push_back(static_cast<std::uint8_t>(0x80 | octets.size()));
  append(out, octets);
  return out;
}

// Each length-form edge, written both ways: open/close around the
// content (back-patched) and header + raw (length known up front).
class WriterLength : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WriterLength, OpenCloseMatchesKnownLengthHeader) {
  const std::size_t n = GetParam();
  bytes content(n);
  rng r{n};
  r.fill(content);

  bytes expected = expected_header(0x04, n);
  append(expected, content);

  der_writer patched;
  patched.open(tag::octet_string);
  patched.raw(content);
  patched.close();
  EXPECT_EQ(std::move(patched).take(), expected);

  der_writer direct;
  direct.tlv(tag::octet_string, content);
  EXPECT_EQ(std::move(direct).take(), expected);
}

INSTANTIATE_TEST_SUITE_P(Edges, WriterLength,
                         ::testing::Values(0u, 127u, 128u, 255u, 256u,
                                           65535u, 65536u));

TEST(DerWriter, NestedLongFormBackPatching) {
  // Three nested levels that each need a different length form once
  // their children are patched: the innermost SEQUENCE holds 200 bytes
  // (0x81), the SET a little over 500 (0x82) and the outer SEQUENCE
  // over 64 KiB (0x83). Each close() shifts its content right once.
  const bytes small(200, 0xab);
  const bytes mid(300, 0xcd);
  const bytes big(70000, 0xef);

  der_writer w;
  w.open(tag::sequence);
  w.octet_string(big);
  w.open(tag::set);
  w.octet_string(mid);
  w.open(tag::sequence);
  w.raw(small);
  w.close();
  w.integer(7);
  w.close();
  w.null();
  w.close();
  const bytes got = std::move(w).take();

  bytes inner = expected_header(0x30, small.size());
  append(inner, small);
  bytes middle_content = encode([&](der_writer& w) { w.octet_string(mid); });
  append(middle_content, inner);
  append(middle_content, encode([](der_writer& w) { w.integer(7); }));
  bytes middle = expected_header(0x31, middle_content.size());
  append(middle, middle_content);
  bytes outer_content = encode([&](der_writer& w) { w.octet_string(big); });
  append(outer_content, middle);
  append(outer_content, encode([](der_writer& w) { w.null(); }));
  bytes expected = expected_header(0x30, outer_content.size());
  append(expected, outer_content);
  ASSERT_EQ(got, expected);
  EXPECT_EQ(got[1], 0x83);
  EXPECT_EQ(middle[1], 0x82);
  EXPECT_EQ(inner[1], 0x81);

  // The decoder walks the patched levels back.
  buffer_reader rd{got};
  const tlv outer = read_tlv(rd);
  EXPECT_TRUE(rd.empty());
  const auto kids = children(outer);
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(kids[0].content.size(), big.size());
  ASSERT_TRUE(kids[1].is(tag::set));
  const auto set_kids = children(kids[1]);
  ASSERT_EQ(set_kids.size(), 3u);
  EXPECT_EQ(set_kids[1].content.size(), small.size());
  EXPECT_EQ(decode_integer(set_kids[2]), 7);
  EXPECT_TRUE(kids[2].is(tag::null_value));
}

TEST(DerWriter, RejectsUnbalancedNesting) {
  der_writer w;
  EXPECT_THROW(w.close(), codec_error);
  w.open(tag::sequence);
  EXPECT_THROW((void)std::move(w).take(), codec_error);

  der_writer deep;
  for (std::size_t i = 0; i < der_writer::kMaxDepth; ++i) {
    deep.open(tag::sequence);
  }
  EXPECT_THROW(deep.open(tag::sequence), codec_error);
}

TEST(DerWriter, ClearKeepsNothingOpen) {
  der_writer w;
  w.open(tag::sequence);
  w.integer(1);
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  w.null();  // take() below would throw if clear() left an element open
  EXPECT_EQ(std::move(w).take(), (bytes{0x05, 0x00}));
}

}  // namespace
}  // namespace certquic::asn1
