// Seeded round-trip property tests for the wire codecs that every other
// layer builds on: QUIC varints and coalesced datagrams, DER TLVs and the
// LZ engine behind RFC 8879 certificate compression; plus the
// fail-closed contracts of the TLS handshake-frame peek on arbitrary
// bytes and of the spill v4 decoder on mutated spill files. All
// randomness flows through the project rng with fixed seeds
// (tests/support/property.hpp), so a failure reproduces bit-for-bit
// from its iteration index.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <filesystem>
#include <iterator>
#include <string>
#include <typeinfo>

#include "asn1/der.hpp"
#include "ca/ecosystem.hpp"
#include "compress/lz.hpp"
#include "core/longitudinal.hpp"
#include "datagram.hpp"
#include "der_encode.hpp"
#include "engine/engine.hpp"
#include "engine/spill.hpp"
#include "property.hpp"
#include "quic/frames.hpp"
#include "quic/packet.hpp"
#include "quic/varint.hpp"
#include "spill_bytes.hpp"
#include "tls/handshake.hpp"
#include "util/buffer.hpp"
#include "util/errors.hpp"
#include "x509/key.hpp"
#include "x509/oids.hpp"

namespace certquic {
namespace {

using test::for_each_iteration;

// --- quic::varint -----------------------------------------------------

TEST(VarintProperty, RoundTripAcrossAllBands) {
  for_each_iteration([](rng& r, std::size_t i) {
    const std::uint64_t v = test::gen_varint_value(r);
    buffer_writer w;
    quic::write_varint(w, v);
    const bytes encoded = std::move(w).take();
    ASSERT_EQ(encoded.size(), quic::varint_size(v)) << "iteration " << i;
    buffer_reader rd(encoded);
    EXPECT_EQ(quic::read_varint(rd), v) << "iteration " << i;
    EXPECT_TRUE(rd.empty()) << "iteration " << i;
  });
}

TEST(VarintProperty, EncodingIsMinimalAtBandEdges) {
  // Band edges are where an off-by-one picks the wrong prefix.
  const std::uint64_t edges[] = {0,     63,         64,         16383,
                                 16384, 1073741823, 1073741824, quic::kVarintMax};
  const std::size_t sizes[] = {1, 1, 2, 2, 4, 4, 8, 8};
  for (std::size_t i = 0; i < std::size(edges); ++i) {
    EXPECT_EQ(quic::varint_size(edges[i]), sizes[i]) << "edge " << edges[i];
  }
  EXPECT_THROW((void)quic::varint_size(quic::kVarintMax + 1), codec_error);
}

TEST(VarintProperty, ConcatenatedStreamRoundTrips) {
  for_each_iteration(
      [](rng& r, std::size_t) {
        std::vector<std::uint64_t> values(r.uniform(1, 32));
        buffer_writer w;
        for (auto& v : values) {
          v = test::gen_varint_value(r);
          quic::write_varint(w, v);
        }
        const bytes encoded = std::move(w).take();
        buffer_reader rd(encoded);
        for (const auto v : values) {
          EXPECT_EQ(quic::read_varint(rd), v);
        }
        EXPECT_TRUE(rd.empty());
      },
      64);
}

// --- quic datagram codec ----------------------------------------------

/// A random coalesced datagram and the bytes its CRYPTO and STREAM
/// frames view (a deque, so earlier views survive later appends).
struct gen_datagram {
  std::deque<bytes> data;
  std::vector<quic::packet> packets;
};

/// Frame payload lengths on both sides of the 1/2- and 2/4-byte varint
/// widths, plus a few ordinary ones.
constexpr std::array<std::size_t, 12> kCryptoLengths = {
    0, 1, 62, 63, 64, 65, 300, 1000, 16382, 16383, 16384, 16385};

/// Draws a CRYPTO length: the 16 KiB ones rarely, so most datagrams stay
/// under the 1500-byte pad targets.
std::size_t gen_crypto_length(rng& r) {
  const std::size_t n = r.pick(kCryptoLengths);
  return n > 1500 && r.chance(0.8) ? r.uniform(0, 65) : n;
}

bytes_view gen_payload(rng& r, gen_datagram& g, std::size_t n) {
  bytes& b = g.data.emplace_back(n);
  r.fill(b);
  return b;
}

/// Up to four ACK, CRYPTO, STREAM and PADDING frames, never two PADDING
/// frames in a row (the parser would merge them).
void gen_frames(rng& r, gen_datagram& g, quic::packet& p) {
  bool last_padding = false;
  for (auto n = r.uniform(0, 4); n > 0; --n) {
    switch (r.uniform(0, 3)) {
      case 0:
        p.frames.push_back(quic::ack_frame{test::gen_varint_value(r)});
        last_padding = false;
        break;
      case 1:
        p.frames.push_back(quic::crypto_frame{
            test::gen_varint_value(r),
            gen_payload(r, g, gen_crypto_length(r))});
        last_padding = false;
        break;
      case 2:
        p.frames.push_back(quic::stream_frame{
            test::gen_varint_value(r), test::gen_varint_value(r),
            gen_payload(r, g, r.uniform(0, 300))});
        last_padding = false;
        break;
      default:
        if (!last_padding) {
          p.frames.push_back(quic::padding_frame{r.uniform(1, 80)});
          last_padding = true;
        }
        break;
    }
  }
}

/// One to three long-header packets (Initial or Handshake), then a
/// 1-RTT packet half the time: it has no length field, so it must be
/// last. Packet numbers fit the two bytes the codec writes.
gen_datagram gen_coalesced(rng& r) {
  gen_datagram g;
  const std::size_t long_headers = r.uniform(1, 3);
  for (std::size_t i = 0; i <= long_headers; ++i) {
    if (i == long_headers && r.chance(0.5)) {
      break;
    }
    quic::packet& p = g.packets.emplace_back();
    p.type = i == long_headers ? quic::packet_type::one_rtt
             : r.chance(0.5)   ? quic::packet_type::initial
                               : quic::packet_type::handshake;
    p.dcid.resize(r.uniform(0, quic::kMaxConnectionIdSize));
    r.fill(p.dcid);
    if (p.type != quic::packet_type::one_rtt) {
      p.scid.resize(r.uniform(0, quic::kMaxConnectionIdSize));
      r.fill(p.scid);
    }
    if (p.type == quic::packet_type::initial && r.chance(0.3)) {
      p.token = test::gen_bytes(r, 1, 70);
    }
    p.packet_number = r.uniform(0, 0xffff);
    gen_frames(r, g, p);
  }
  return g;
}

/// The protected size (packet number, frames, tag) of a long-header
/// packet: the value its length field carries.
std::size_t protected_size(const quic::packet& p) {
  return quic::kPacketNumberSize + p.payload_size() + quic::kAeadTagSize;
}

TEST(QuicCodecProperty, EncodedSizeIsTheComputedSize) {
  std::vector<quic::packet> slots;
  bytes built;
  for_each_iteration([&](rng& r, std::size_t i) {
    const gen_datagram g = gen_coalesced(r);
    quic::datagram_builder dg{slots};
    test::load(dg, g.packets);
    dg.encode(built);
    const bytes wire = quic::encode_datagram(g.packets);
    EXPECT_EQ(wire.size(), dg.size()) << "iteration " << i;
    EXPECT_EQ(built, wire) << "iteration " << i;
    std::size_t sum = 0;
    for (const quic::packet& p : g.packets) {
      sum += quic::encode_datagram({&p, 1}).size();
      EXPECT_EQ(quic::encode_datagram({&p, 1}).size(), p.wire_size())
          << "iteration " << i;
    }
    EXPECT_EQ(sum, wire.size()) << "iteration " << i;
  });
}

TEST(QuicCodecProperty, ParseThenEncodeGivesTheSameBytes) {
  std::vector<quic::packet> slots;
  for_each_iteration([&slots](rng& r, std::size_t i) {
    const gen_datagram g = gen_coalesced(r);
    const bytes wire = quic::encode_datagram(g.packets);
    const auto parsed = quic::parse_datagram(wire, slots);
    ASSERT_EQ(parsed.size(), g.packets.size()) << "iteration " << i;
    for (std::size_t k = 0; k < parsed.size(); ++k) {
      EXPECT_EQ(parsed[k].type, g.packets[k].type) << "iteration " << i;
      EXPECT_EQ(parsed[k].dcid, g.packets[k].dcid) << "iteration " << i;
      EXPECT_EQ(parsed[k].packet_number, g.packets[k].packet_number)
          << "iteration " << i;
      EXPECT_EQ(parsed[k].frames.size(), g.packets[k].frames.size())
          << "iteration " << i;
    }
    EXPECT_EQ(quic::encode_datagram(parsed), wire) << "iteration " << i;
    EXPECT_EQ(quic::parse_datagram(wire).size(), parsed.size())
        << "iteration " << i;
  });
}

TEST(QuicCodecProperty, PaddingLandsOnEveryTargetUpTo1500) {
  // A long-header packet's length field grows from one byte to two when
  // its protected size reaches 64, so one datagram size is unreachable:
  // padding stops one byte short of it. Every other target is exact.
  std::size_t landed = 0;
  std::size_t short_of_gap = 0;
  std::vector<quic::packet> slots;
  bytes wire;
  for_each_iteration(
      [&](rng& r, std::size_t i) {
        const gen_datagram g = gen_coalesced(r);
        const bytes unpadded_wire = quic::encode_datagram(g.packets);
        const std::size_t unpadded = unpadded_wire.size();
        const quic::packet& last = g.packets.back();
        const std::size_t before = protected_size(last);
        const bool has_gap =
            last.type != quic::packet_type::one_rtt && before < 64;
        const std::size_t gap = unpadded + (64 - before);
        for (std::size_t target = unpadded; target <= 1500; ++target) {
          quic::datagram_builder dg{slots};
          test::load(dg, g.packets);
          const std::size_t added = dg.pad_to(target);
          dg.encode(wire);
          EXPECT_EQ(wire.size(), dg.size())
              << "iteration " << i << " target " << target;
          const std::size_t want =
              has_gap && target == gap ? target - 1 : target;
          ASSERT_EQ(wire.size(), want)
              << "iteration " << i << " target " << target;
          EXPECT_EQ(quic::account(dg.packets().back().frames).padding -
                        quic::account(last.frames).padding,
                    added)
              << "iteration " << i << " target " << target;
          EXPECT_EQ(quic::encode_datagram(dg.packets()), wire)
              << "iteration " << i << " target " << target;
          landed += wire.size() == target;
          short_of_gap += wire.size() != target;
        }
        // A target at or below the datagram's size adds nothing.
        quic::datagram_builder dg{slots};
        test::load(dg, g.packets);
        EXPECT_EQ(dg.pad_to(unpadded), 0u);
        EXPECT_EQ(dg.pad_to(unpadded / 2), 0u);
        dg.encode(wire);
        EXPECT_EQ(wire, unpadded_wire);
      },
      128);
  // 110,106 targets land exactly: most of the 128 datagrams are well
  // under 1500 bytes, so each pads to hundreds of targets.
  EXPECT_GT(landed, 100'000u);
  EXPECT_GT(short_of_gap, 0u);
}

/// Frames decoded by the simplest scan there is: a PADDING run is
/// counted one zero byte at a time. Knows PING, ACK and CRYPTO.
std::vector<quic::frame> reference_frames(bytes_view payload) {
  std::vector<quic::frame> out;
  buffer_reader rd{payload};
  while (!rd.empty()) {
    const std::uint8_t type = rd.u8();
    if (type == 0x00) {
      std::size_t run = 1;
      while (!rd.empty() && rd.peek_u8() == 0x00) {
        (void)rd.u8();
        ++run;
      }
      out.push_back(quic::padding_frame{run});
    } else if (type == 0x01) {
      out.push_back(quic::ping_frame{});
    } else if (type == 0x02) {
      quic::ack_frame f;
      f.largest = quic::read_varint(rd);
      (void)quic::read_varint(rd);
      (void)quic::read_varint(rd);
      (void)quic::read_varint(rd);
      out.push_back(f);
    } else if (type == 0x06) {
      quic::crypto_frame f;
      f.offset = quic::read_varint(rd);
      f.data = rd.raw(quic::read_varint(rd));
      out.push_back(f);
    } else {
      ADD_FAILURE() << "reference scan: frame type " << int{type};
      break;
    }
  }
  return out;
}

/// One line per frame with the fields a frame keeps; a CRYPTO frame's
/// bytes by their offset from `base`.
std::string describe(const std::vector<quic::frame>& frames,
                     const std::uint8_t* base) {
  std::string s;
  for (const quic::frame& f : frames) {
    if (const auto* pad = std::get_if<quic::padding_frame>(&f)) {
      s += "padding " + std::to_string(pad->count);
    } else if (std::holds_alternative<quic::ping_frame>(f)) {
      s += "ping";
    } else if (const auto* ack = std::get_if<quic::ack_frame>(&f)) {
      s += "ack " + std::to_string(ack->largest);
    } else if (const auto* cf = std::get_if<quic::crypto_frame>(&f)) {
      s += "crypto " + std::to_string(cf->offset) + " at " +
           std::to_string(cf->data.data() - base) + " len " +
           std::to_string(cf->data.size());
    } else {
      s += "other";
    }
    s += "\n";
  }
  return s;
}

TEST(QuicCodecProperty, PaddingRunsParseAsAByteAtATimeScan) {
  // Runs of every length up to 192 after 0-9 bytes of PING frames, so
  // a run ends at every offset 0-63 of a 64-byte block, followed by a
  // PING, a CRYPTO frame or nothing (the run reaches the end).
  bytes crypto = {0x06, 0x07, 0x05};
  crypto.insert(crypto.end(), 5, 0xc3);
  const std::array<bytes, 3> tails = {bytes{}, bytes{0x01}, crypto};
  std::vector<quic::frame> parsed;
  for (std::size_t lead = 0; lead < 10; ++lead) {
    for (std::size_t run = 1; run <= 192; ++run) {
      for (const bytes& tail : tails) {
        bytes payload(lead, 0x01);
        payload.resize(lead + run, 0x00);
        append(payload, tail);
        quic::parse_frames(payload, parsed);
        ASSERT_EQ(describe(parsed, payload.data()),
                  describe(reference_frames(payload), payload.data()))
            << "lead " << lead << " run " << run << " tail " << tail.size();
      }
    }
  }
  // In a datagram: a 1-RTT packet's PADDING runs to the end of its
  // frames, up to the AEAD tag, and the Initial in front of it ends on
  // its length field.
  std::vector<quic::packet> slots;
  for (std::size_t run = 1; run <= 192; ++run) {
    std::vector<quic::packet> dgram(2);
    dgram[0].dcid = quic::connection_id{bytes(8, 0x11)};
    dgram[0].frames = {quic::ack_frame{3}, quic::padding_frame{run}};
    dgram[1].type = quic::packet_type::one_rtt;
    dgram[1].dcid = quic::connection_id{bytes(8, 0x22)};
    dgram[1].frames = {quic::ping_frame{}, quic::padding_frame{run}};
    const bytes wire = quic::encode_datagram(dgram);
    const auto got = quic::parse_datagram(wire, slots);
    ASSERT_EQ(got.size(), 2u) << "run " << run;
    for (std::size_t k = 0; k < 2; ++k) {
      bytes frames(dgram[k].payload_size(), 0);
      std::uint8_t* at = frames.data();
      for (const quic::frame& f : dgram[k].frames) {
        at = quic::put_frame(at, f);
      }
      EXPECT_EQ(describe(got[k].frames, nullptr),
                describe(reference_frames(frames), nullptr))
          << "run " << run << " packet " << k;
    }
    EXPECT_EQ(quic::encode_datagram(got), wire) << "run " << run;
  }
}

// --- asn1::der --------------------------------------------------------

TEST(DerProperty, IntegerRoundTrip) {
  for_each_iteration([](rng& r, std::size_t i) {
    const std::int64_t v = test::gen_int64(r);
    const bytes encoded =
        test::encode([&](asn1::der_writer& w) { w.integer(v); });
    buffer_reader rd(encoded);
    const asn1::tlv t = asn1::read_tlv(rd);
    ASSERT_TRUE(t.is(asn1::tag::integer)) << "iteration " << i;
    EXPECT_EQ(asn1::decode_integer(t), v) << "iteration " << i << " v=" << v;
    EXPECT_TRUE(rd.empty());
  });
}

TEST(DerProperty, IntegerEdgeCases) {
  // Deterministic edges the random generator cannot or rarely hits —
  // most importantly INT64_MIN, whose magnitude overflows a naive -v.
  const std::int64_t edges[] = {0,    1,          -1,
                                127,  -128,       128,
                                -129, INT64_MAX,  INT64_MIN};
  for (const std::int64_t v : edges) {
    const bytes encoded =
        test::encode([&](asn1::der_writer& w) { w.integer(v); });
    buffer_reader rd(encoded);
    const asn1::tlv t = asn1::read_tlv(rd);
    ASSERT_TRUE(t.is(asn1::tag::integer)) << "v=" << v;
    EXPECT_EQ(asn1::decode_integer(t), v) << "v=" << v;
    EXPECT_TRUE(rd.empty()) << "v=" << v;
  }
}

TEST(DerProperty, OidRoundTrip) {
  for_each_iteration([](rng& r, std::size_t i) {
    const asn1::oid_arcs arcs = test::gen_oid(r);
    const bytes encoded =
        test::encode([&](asn1::der_writer& w) { w.oid(asn1::oid{arcs}); });
    buffer_reader rd(encoded);
    const asn1::tlv t = asn1::read_tlv(rd);
    ASSERT_TRUE(t.is(asn1::tag::object_identifier)) << "iteration " << i;
    EXPECT_EQ(asn1::decode_oid(t), arcs) << "iteration " << i;
  });
}

TEST(DerProperty, NestedSequenceRoundTrips) {
  // SEQUENCE { INTEGER, OCTET STRING, SEQUENCE { PrintableString } }
  // with random payload sizes crossing the 1-byte/long-form length edge.
  for_each_iteration([](rng& r, std::size_t i) {
    const std::int64_t num = test::gen_int64(r);
    const bytes blob = test::gen_bytes(r, 0, 300);
    const std::string text = test::gen_printable(r, 0, 200);

    const bytes encoded = test::encode([&](asn1::der_writer& w) {
      w.open(asn1::tag::sequence);
      w.integer(num);
      w.octet_string(blob);
      w.open(asn1::tag::sequence);
      w.printable_string(text);
      w.close();
      w.close();
    });

    buffer_reader rd(encoded);
    const asn1::tlv outer = asn1::read_tlv(rd);
    ASSERT_TRUE(outer.is(asn1::tag::sequence)) << "iteration " << i;
    const auto kids = asn1::children(outer);
    ASSERT_EQ(kids.size(), 3u) << "iteration " << i;
    EXPECT_EQ(asn1::decode_integer(kids[0]), num);
    EXPECT_TRUE(kids[1].is(asn1::tag::octet_string));
    EXPECT_EQ(bytes(kids[1].content.begin(), kids[1].content.end()), blob);
    const auto grandkids = asn1::children(kids[2]);
    ASSERT_EQ(grandkids.size(), 1u);
    EXPECT_EQ(std::string(grandkids[0].content.begin(),
                          grandkids[0].content.end()),
              text);
  });
}

TEST(DerProperty, BigIntegerPreservesMagnitude) {
  for_each_iteration([](rng& r, std::size_t i) {
    bytes magnitude = test::gen_bytes(r, 1, 64);
    const bytes encoded =
        test::encode([&](asn1::der_writer& w) { w.big_integer(magnitude); });
    buffer_reader rd(encoded);
    const asn1::tlv t = asn1::read_tlv(rd);
    ASSERT_TRUE(t.is(asn1::tag::integer)) << "iteration " << i;
    // Decode manually: strip the sign-guard zero octet if present, then
    // compare against the magnitude with its own leading zeros stripped.
    bytes_view content = t.content;
    ASSERT_FALSE(content.empty());
    if (content[0] == 0x00 && content.size() > 1) {
      content = content.subspan(1);
    }
    std::size_t lead = 0;
    while (lead + 1 < magnitude.size() && magnitude[lead] == 0x00) {
      ++lead;
    }
    const bytes expect(magnitude.begin() + static_cast<std::ptrdiff_t>(lead),
                       magnitude.end());
    EXPECT_EQ(bytes(content.begin(), content.end()), expect)
        << "iteration " << i;
  });
}

// --- compress::lz -----------------------------------------------------

TEST(LzProperty, RoundTripWithoutDictionary) {
  for_each_iteration([](rng& r, std::size_t i) {
    const bytes input = test::gen_compressible_bytes(r, 0, 2048);
    const bytes packed = compress::lz_compress(input, {});
    EXPECT_EQ(compress::lz_decompress(packed, {}), input)
        << "iteration " << i << " len=" << input.size();
  });
}

TEST(LzProperty, RoundTripWithSharedDictionary) {
  for_each_iteration(
      [](rng& r, std::size_t i) {
        const bytes dict = test::gen_compressible_bytes(r, 64, 1024);
        // Build input that borrows slices of the dictionary so distances
        // reaching back past the input start are exercised.
        bytes input;
        const std::size_t pieces = r.uniform(1, 6);
        for (std::size_t p = 0; p < pieces; ++p) {
          if (r.chance(0.6) && !dict.empty()) {
            const std::size_t start = r.uniform(0, dict.size() - 1);
            const std::size_t len = r.uniform(
                1, std::min<std::size_t>(dict.size() - start, 128));
            input.insert(input.end(),
                         dict.begin() + static_cast<std::ptrdiff_t>(start),
                         dict.begin() + static_cast<std::ptrdiff_t>(start + len));
          } else {
            const bytes lit = test::gen_bytes(r, 1, 64);
            append(input, lit);
          }
        }
        const bytes packed = compress::lz_compress(input, dict);
        EXPECT_EQ(compress::lz_decompress(packed, dict), input)
            << "iteration " << i;
        // Dictionary hits must beat dictionary-less compression or tie.
        const bytes packed_nodict = compress::lz_compress(input, {});
        EXPECT_LE(packed.size(), packed_nodict.size() + 8) << "iteration " << i;
      },
      128);
}

TEST(LzProperty, IncompressibleInputSurvives) {
  for_each_iteration(
      [](rng& r, std::size_t i) {
        const bytes input = test::gen_bytes(r, 0, 512);  // uniform noise
        const bytes packed = compress::lz_compress(input, {});
        EXPECT_EQ(compress::lz_decompress(packed, {}), input)
            << "iteration " << i;
      },
      128);
}

TEST(LzProperty, LebVarintRoundTrip) {
  for_each_iteration([](rng& r, std::size_t) {
    const std::uint64_t v = r.next();
    bytes out;
    compress::write_varint(out, v);
    std::size_t pos = 0;
    EXPECT_EQ(compress::read_varint(out, pos), v);
    EXPECT_EQ(pos, out.size());
  });
}

// --- x509 post-quantum encodings --------------------------------------

TEST(PqcProperty, MlDsaSpkiDerRoundTripsAtFipsSizes) {
  // The SPKI must parse as SEQUENCE { AlgorithmIdentifier, BIT STRING }
  // with the CSOR OID and the exact FIPS 204 public-key length (+1 for
  // the unused-bits octet) — the sizes the whole what-if study rests on.
  struct mldsa_case {
    x509::key_algorithm alg;
    const asn1::oid& oid;
    std::size_t public_key_bytes;
  };
  const mldsa_case cases[] = {
      {x509::key_algorithm::mldsa_44, x509::oids::ml_dsa_44, 1312},
      {x509::key_algorithm::mldsa_65, x509::oids::ml_dsa_65, 1952},
      {x509::key_algorithm::mldsa_87, x509::oids::ml_dsa_87, 2592},
  };
  for_each_iteration(
      [&](rng& r, std::size_t i) {
        for (const auto& c : cases) {
          const bytes spki = test::encode(
              [&](asn1::der_writer& w) { x509::encode_spki(w, c.alg, r); });
          buffer_reader rd(spki);
          const asn1::tlv outer = asn1::read_tlv(rd);
          ASSERT_TRUE(outer.is(asn1::tag::sequence)) << "iteration " << i;
          EXPECT_TRUE(rd.empty());
          const auto kids = asn1::children(outer);
          ASSERT_EQ(kids.size(), 2u);
          const auto alg_kids = asn1::children(kids[0]);
          ASSERT_EQ(alg_kids.size(), 1u);  // absent parameters
          EXPECT_EQ(asn1::oid{asn1::decode_oid(alg_kids[0])}, c.oid);
          ASSERT_TRUE(kids[1].is(asn1::tag::bit_string));
          EXPECT_EQ(kids[1].content.size(), c.public_key_bytes + 1);
        }
      },
      16);
}

TEST(PqcProperty, MlDsaSignatureValueHasFipsSize) {
  struct sig_case {
    x509::signature_algorithm alg;
    std::size_t signature_bytes;
  };
  const sig_case cases[] = {
      {x509::signature_algorithm::mldsa_44, 2420},
      {x509::signature_algorithm::mldsa_65, 3309},
      {x509::signature_algorithm::mldsa_87, 4627},
  };
  for_each_iteration(
      [&](rng& r, std::size_t i) {
        for (const auto& c : cases) {
          const bytes sig = test::encode([&](asn1::der_writer& w) {
            x509::encode_signature_value(w, c.alg, r);
          });
          buffer_reader rd(sig);
          const asn1::tlv t = asn1::read_tlv(rd);
          ASSERT_TRUE(t.is(asn1::tag::bit_string)) << "iteration " << i;
          EXPECT_EQ(t.content.size(), c.signature_bytes + 1);
          EXPECT_TRUE(rd.empty());
        }
      },
      16);
}

TEST(PqcProperty, ChainSizesGrowStrictlyWithProfile) {
  // For any named hierarchy and any issuance randomness, the three
  // chain profiles must order strictly: classical < pqc_leaf (ML-DSA
  // leaf key dwarfs any classical SPKI) < pqc_full (parents and
  // signatures go post-quantum too).
  const auto eco = ca::ecosystem::make(0x77);
  for_each_iteration(
      [&](rng& r, std::size_t i) {
        const auto& profile = eco.profiles()[static_cast<std::size_t>(
            r.uniform(0, eco.profiles().size() - 1))];
        const std::string domain = r.ascii_label(4, 12) + ".example";
        const std::uint64_t seed = r.next();
        std::array<std::size_t, 3> sizes{};
        for (std::size_t p = 0; p < 3; ++p) {
          rng issue_rng{seed};
          sizes[p] = eco.issue(profile, domain, issue_rng,
                               x509::all_pq_profiles()[p])
                         .wire_size();
        }
        EXPECT_LT(sizes[0], sizes[1])
            << "iteration " << i << " " << ca::to_string(profile.id);
        EXPECT_LT(sizes[1], sizes[2])
            << "iteration " << i << " " << ca::to_string(profile.id);
      },
      64);
}

TEST(PqcProperty, CruiseLinerChainSizesGrowStrictlyWithProfile) {
  // The third profile-aware generator: SAN-heavy shared-hosting leaves
  // must order strictly too, across the whole Pareto SAN range.
  const auto eco = ca::ecosystem::make(0x79);
  for_each_iteration(
      [&](rng& r, std::size_t i) {
        const std::string domain = r.ascii_label(4, 12) + ".example";
        const std::size_t sans = r.uniform(8, 220);
        const std::uint64_t seed = r.next();
        std::array<std::size_t, 3> sizes{};
        for (std::size_t p = 0; p < 3; ++p) {
          rng issue_rng{seed};
          sizes[p] = eco.issue_cruise_liner(domain, sans, issue_rng,
                                            x509::all_pq_profiles()[p])
                         .wire_size();
        }
        EXPECT_LT(sizes[0], sizes[1]) << "iteration " << i << " sans=" << sans;
        EXPECT_LT(sizes[1], sizes[2]) << "iteration " << i << " sans=" << sans;
      },
      32);
}

TEST(PqcProperty, TailChainSizesGrowStrictlyWithProfile) {
  // Same law for the long-tail generator: identical draws across
  // profiles keep depth and SAN structure fixed, so sizes order
  // strictly per issuance.
  const auto eco = ca::ecosystem::make(0x78);
  for_each_iteration(
      [&](rng& r, std::size_t i) {
        const std::string domain = r.ascii_label(4, 12) + ".example";
        const bool quic_flavor = r.chance(0.5);
        const std::uint64_t seed = r.next();
        std::array<std::size_t, 3> sizes{};
        for (std::size_t p = 0; p < 3; ++p) {
          rng issue_rng{seed};
          sizes[p] = eco.issue_other(domain, issue_rng,
                                     {.quic_flavor = quic_flavor,
                                      .pq = x509::all_pq_profiles()[p]})
                         .wire_size();
        }
        EXPECT_LT(sizes[0], sizes[1]) << "iteration " << i;
        EXPECT_LT(sizes[1], sizes[2]) << "iteration " << i;
      },
      64);
}

// --- tls::peek_frame --------------------------------------------------

TEST(PeekFrameProperty, ArbitraryBytesFailClosed) {
  using tls::frame_status;
  using tls::handshake_type;
  constexpr std::array<handshake_type, 7> known = {
      handshake_type::client_hello,
      handshake_type::server_hello,
      handshake_type::encrypted_extensions,
      handshake_type::certificate,
      handshake_type::certificate_verify,
      handshake_type::finished,
      handshake_type::compressed_certificate};
  const auto is_known = [&known](handshake_type t) {
    return std::find(known.begin(), known.end(), t) != known.end();
  };
  static_assert(noexcept(tls::peek_frame(bytes_view{})));
  std::array<std::size_t, 3> seen{};  // per frame_status
  for_each_iteration(
      [&](rng& r, std::size_t i) {
        bytes data = test::gen_bytes(r, 0, 64);
        // Bias toward the interesting cases: a known type byte half the
        // time, and a length field near the input size a third of it.
        if (!data.empty() && r.chance(0.5)) {
          data[0] = static_cast<std::uint8_t>(r.pick(known));
        }
        if (data.size() >= 4 && r.chance(0.33)) {
          data[1] = 0;
          data[2] = 0;
          data[3] = static_cast<std::uint8_t>(r.uniform(0, 70));
        }
        tls::frame_info info;
        ASSERT_NO_THROW(info = tls::peek_frame(data)) << "iteration " << i;
        ++seen[static_cast<std::size_t>(info.status)];
        if (info.status == frame_status::complete) {
          EXPECT_LE(info.total_size, data.size()) << "iteration " << i;
          EXPECT_TRUE(is_known(info.type)) << "iteration " << i;
        }
        if (!data.empty() && !is_known(static_cast<handshake_type>(data[0]))) {
          EXPECT_EQ(info.status, frame_status::malformed) << "iteration " << i;
        }
        if (data.size() >= 4) {
          const std::size_t declared =
              4 + ((std::size_t{data[1]} << 16) | (std::size_t{data[2]} << 8) |
                   std::size_t{data[3]});
          if (declared > data.size()) {
            EXPECT_NE(info.status, frame_status::complete)
                << "iteration " << i;
            if (is_known(static_cast<handshake_type>(data[0]))) {
              EXPECT_EQ(info.status, frame_status::partial)
                  << "iteration " << i;
              EXPECT_EQ(info.total_size, declared) << "iteration " << i;
            }
          }
        }
      },
      10'000);
  // The bias above reaches every verdict often.
  for (const std::size_t n : seen) {
    EXPECT_GT(n, 500u);
  }
}

// --- engine spill v4 --------------------------------------------------

/// The golden-test population (2000 domains, seed 42).
const internet::model& golden_model() {
  static const internet::model m =
      internet::model::generate({.domains = 2000, .seed = 42});
  return m;
}

/// The two-variant plan the spill mutants are replayed against.
engine::probe_plan mutant_plan() {
  engine::probe_plan plan;
  plan.max_services = 12;
  plan.sweep_initial_sizes({1200, 1362});
  return plan;
}

/// A golden spill of mutant_plan(), optionally with certificates.
bytes golden_spill(bool capture_certificate) {
  engine::probe_plan plan = mutant_plan();
  for (engine::probe_variant& v : plan.variants) {
    v.capture_certificate = capture_certificate;
  }
  const auto path = std::filesystem::temp_directory_path() /
                    "certquic_spill_golden.spill";
  {
    engine::spill_sink sink{path.string()};
    engine::executor{golden_model(), engine::options::serial()}.run(plan,
                                                                    sink);
  }
  bytes out = test::read_file_bytes(path);
  std::filesystem::remove(path);
  return out;
}

bytes varint_bytes(std::uint64_t v) {
  buffer_writer w;
  quic::write_varint(w, v);
  return std::move(w).take();
}

/// A length the file does not have: near the truth, in any varint
/// band, or far past any file.
std::uint64_t lie_about(rng& r, std::uint64_t truth) {
  switch (r.uniform(0, 2)) {
    case 0: {
      const std::uint64_t delta = r.uniform(1, 3);
      return r.chance(0.5) || truth < delta ? truth + delta : truth - delta;
    }
    case 1:
      return test::gen_varint_value(r);
    default:
      return std::uint64_t{1} << 61;
  }
}

/// Rewrites the varint at the front of `span` (keeping what follows).
void rewrite_leading_varint(bytes& span, std::size_t offset,
                            std::uint64_t value) {
  buffer_reader r{bytes_view{span}.subspan(offset)};
  (void)quic::read_varint(r);
  bytes out(span.begin(), span.begin() + static_cast<std::ptrdiff_t>(offset));
  append(out, varint_bytes(value));
  append(out, bytes_view{span}.subspan(offset + r.position()));
  span = std::move(out);
}

bytes mutate_spill(rng& r, const std::array<bytes, 2>& goldens) {
  const std::size_t which = r.uniform(0, 1);
  bytes file = goldens[which];
  switch (r.uniform(0, 3)) {
    case 0: {  // bit flips
      const std::uint64_t flips = r.uniform(1, 4);
      for (std::uint64_t k = 0; k < flips; ++k) {
        file[r.uniform(0, file.size() - 1)] ^=
            static_cast<std::uint8_t>(1u << r.uniform(0, 7));
      }
      return file;
    }
    case 1:  // truncation
      file.resize(r.uniform(0, file.size() - 1));
      return file;
    case 2: {  // record splices, within one spill or across the two
      test::spill_bytes spill = test::split_spill(file);
      const test::spill_bytes other = test::split_spill(goldens[1 - which]);
      auto& recs = spill.records;
      const auto any = [&r](const std::vector<bytes>& v) {
        return static_cast<std::ptrdiff_t>(r.uniform(0, v.size() - 1));
      };
      switch (r.uniform(0, 4)) {
        case 0:
          std::swap(recs[static_cast<std::size_t>(any(recs))],
                    recs[static_cast<std::size_t>(any(recs))]);
          break;
        case 1:
          recs.insert(recs.begin() + any(recs), recs[static_cast<std::size_t>(
                                                    any(recs))]);
          break;
        case 2:
          recs.erase(recs.begin() + any(recs));
          break;
        case 3:
          recs[static_cast<std::size_t>(any(recs))] =
              other.records[static_cast<std::size_t>(any(other.records))];
          break;
        default: {  // a byte range of one spill pasted into the other
          const bytes& src = goldens[1 - which];
          const std::size_t from = r.uniform(0, src.size() - 1);
          const std::size_t len = r.uniform(1, std::min<std::size_t>(
                                                   64, src.size() - from));
          bytes joined = spill.join();
          joined.insert(joined.begin() + static_cast<std::ptrdiff_t>(
                                             r.uniform(0, joined.size())),
                        src.begin() + static_cast<std::ptrdiff_t>(from),
                        src.begin() + static_cast<std::ptrdiff_t>(from + len));
          return joined;
        }
      }
      return spill.join();
    }
    default: {  // length-field lies: a record length, a header count or
                // the footer count
      test::spill_bytes spill = test::split_spill(file);
      switch (r.uniform(0, 3)) {
        case 0:
        case 1: {
          bytes& rec = spill.records[r.uniform(0, spill.records.size() - 1)];
          buffer_reader rd{rec};
          rewrite_leading_varint(rec, 0, lie_about(r, quic::read_varint(rd)));
          break;
        }
        case 2: {
          constexpr std::size_t kMagicSize = 8;
          buffer_reader rd{bytes_view{spill.header}.subspan(kMagicSize)};
          const std::uint64_t variants = quic::read_varint(rd);
          const std::size_t sampled_at = kMagicSize + rd.position();
          const std::uint64_t sampled = quic::read_varint(rd);
          if (r.chance(0.5)) {
            rewrite_leading_varint(spill.header, kMagicSize,
                                   lie_about(r, variants));
          } else {
            rewrite_leading_varint(spill.header, sampled_at,
                                   lie_about(r, sampled));
          }
          break;
        }
        default:
          spill.footer = test::spill_footer(
              lie_about(r, spill.records.size()));
          break;
      }
      return spill.join();
    }
  }
}

TEST(SpillProperty, MutantsReplayOrFailClosed) {
  const std::array<bytes, 2> goldens = {golden_spill(false),
                                        golden_spill(true)};
  const engine::probe_plan plan = mutant_plan();
  const engine::spill_reader reader{golden_model(), plan};
  const auto path = std::filesystem::temp_directory_path() /
                    "certquic_spill_mutant.spill";
  // replayed, codec_error, config_error
  std::array<std::size_t, 3> outcomes{};
  for_each_iteration(
      [&](rng& r, std::size_t i) {
        test::write_file_bytes(path, mutate_spill(r, goldens));
        engine::spill_probe_result probe;
        ASSERT_NO_THROW(probe = engine::spill_probe(path.string()))
            << "iteration " << i;
        core::epoch_aggregate agg;
        core::epoch_aggregate_sink sink{agg};
        try {
          (void)reader.replay(path.string(), sink);
          ++outcomes[0];
          EXPECT_TRUE(probe.complete()) << "iteration " << i;
        } catch (const codec_error&) {
          ++outcomes[1];
        } catch (const config_error&) {
          ++outcomes[2];
        } catch (const std::exception& e) {
          // std::bad_alloc and std::length_error land here: a length
          // field made the decoder (or a sink) size something by it.
          ADD_FAILURE() << "iteration " << i << ": " << typeid(e).name()
                        << " escaped: " << e.what();
        }
      },
      2400);
  std::filesystem::remove(path);
  // Every verdict occurs: flips inside certificate bytes and counters
  // still replay, and a header sample lie is a config_error.
  for (const std::size_t n : outcomes) {
    EXPECT_GT(n, 20u);
  }
}

TEST(SpillProperty, LyingBodyLengthThrowsWithoutAllocating) {
  // A record claiming a 2^61-byte body in a 100-byte file: the cursor
  // must reject it against the bytes the file holds, before any
  // buffer is sized by it (that allocation would throw bad_alloc).
  bytes file = test::split_spill(golden_spill(false)).header;
  append(file, varint_bytes(std::uint64_t{1} << 61));
  file.resize(100, 0x01);
  const auto path = std::filesystem::temp_directory_path() /
                    "certquic_spill_lying_length.spill";
  test::write_file_bytes(path, file);
  const auto probe = engine::spill_probe(path.string());
  EXPECT_EQ(probe.state, engine::spill_state::truncated);
  EXPECT_EQ(probe.records, 0u);
  const engine::probe_plan plan = mutant_plan();
  core::epoch_aggregate agg;
  core::epoch_aggregate_sink sink{agg};
  EXPECT_THROW((void)engine::spill_reader(golden_model(), plan)
                   .replay(path.string(), sink),
               codec_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace certquic
