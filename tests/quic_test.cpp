// Unit, integration and property tests for the QUIC transport module.
#include <gtest/gtest.h>

#include <deque>
#include <string>

#include "ca/ecosystem.hpp"
#include "core/census.hpp"
#include "datagram.hpp"
#include "engine/probe_plan.hpp"
#include "internet/model.hpp"
#include "net/simulator.hpp"
#include "quic/behavior.hpp"
#include "quic/client.hpp"
#include "quic/frames.hpp"
#include "quic/packet.hpp"
#include "quic/server.hpp"
#include "quic/varint.hpp"
#include "scan/classify.hpp"
#include "tls/handshake.hpp"
#include "util/errors.hpp"

namespace certquic::quic {
namespace {

using ca::profile_id;

// CRYPTO and STREAM frames view their bytes; a test's payloads are kept
// here so they outlive every packet built from them.
bytes_view keep(bytes b) {
  static std::deque<bytes> kept;
  return kept.emplace_back(std::move(b));
}

const net::endpoint_id kClientEp{net::ipv4::of(10, 1, 0, 1), 40000};
const net::endpoint_id kServerEp{net::ipv4::of(192, 0, 2, 1), 443};

TEST(Varint, KnownEncodings) {
  buffer_writer w;
  write_varint(w, 37);        // 1 byte
  write_varint(w, 15293);     // 2 bytes
  write_varint(w, 494878333); // 4 bytes
  const bytes out = std::move(w).take();
  // RFC 9000 §A.1 sample values.
  const bytes expected = {0x25, 0x7b, 0xbd, 0x9d, 0x7f, 0x3e, 0x7d};
  EXPECT_EQ(out, expected);
}

TEST(Varint, RoundTripAllSizeClasses) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{63}, std::uint64_t{64},
        std::uint64_t{16383}, std::uint64_t{16384}, (std::uint64_t{1} << 30) - 1,
        std::uint64_t{1} << 30, kVarintMax}) {
    buffer_writer w;
    write_varint(w, v);
    EXPECT_EQ(w.size(), varint_size(v));
    const bytes data = std::move(w).take();
    buffer_reader r{data};
    EXPECT_EQ(read_varint(r), v);
  }
}

TEST(Varint, RejectsOverflow) {
  EXPECT_THROW((void)varint_size(kVarintMax + 1), codec_error);
}

/// The wire encoding of `frames`, back to back.
bytes frames_payload(const std::vector<frame>& frames) {
  std::size_t size = 0;
  for (const auto& f : frames) {
    size += frame_size(f);
  }
  bytes out(size, 0);
  std::uint8_t* at = out.data();
  for (const auto& f : frames) {
    at = put_frame(at, f);
  }
  return out;
}

TEST(Frames, SizesMatchEncoding) {
  rng r{1};
  bytes crypto_data(321);
  r.fill(crypto_data);
  const std::vector<frame> frames = {
      padding_frame{17},
      ping_frame{},
      ack_frame{7},
      crypto_frame{100, crypto_data},
      stream_frame{0, 64, keep(bytes(48, 0x33))},
      connection_close_frame{0x0a, "bye"},
  };
  for (const auto& f : frames) {
    // put_frame writes into zeroed storage and stops where frame_size
    // says the frame ends; the byte after it stays untouched.
    bytes out(frame_size(f) + 1, 0);
    out.back() = 0xee;
    EXPECT_EQ(put_frame(out.data(), f), out.data() + frame_size(f));
    EXPECT_EQ(out.back(), 0xee);
  }
}

TEST(Frames, ParseRoundTrip) {
  bytes crypto_data = {9, 8, 7, 6, 5};
  const bytes payload = frames_payload(
      {crypto_frame{42, crypto_data}, ack_frame{3}, padding_frame{25}});
  std::vector<frame> parsed;
  parse_frames(payload, parsed);
  ASSERT_EQ(parsed.size(), 3u);
  const auto& cf = std::get<crypto_frame>(parsed[0]);
  EXPECT_EQ(cf.offset, 42u);
  EXPECT_EQ(bytes(cf.data.begin(), cf.data.end()), crypto_data);
  // The frame views the payload it was parsed from: no copy.
  EXPECT_EQ(cf.data.data(), payload.data() + 3);
  EXPECT_EQ(std::get<ack_frame>(parsed[1]).largest, 3u);
  EXPECT_EQ(std::get<padding_frame>(parsed[2]).count, 25u);

  const auto acc = account(parsed);
  EXPECT_EQ(acc.crypto_payload, 5u);
  EXPECT_EQ(acc.padding, 25u);
  EXPECT_TRUE(acc.ack_eliciting);
}

// ---- PADDING runs ---------------------------------------------------------

bytes zeros(std::size_t n) { return bytes(n, 0); }

/// `p` alone in a datagram padded to `target` bytes, built as an
/// endpoint builds one.
bytes padded_wire(const packet& p, std::size_t target) {
  std::vector<packet> slots;
  datagram_builder dg{slots};
  test::load(dg, {&p, 1});
  (void)dg.pad_to(target);
  bytes wire;
  dg.encode(wire);
  return wire;
}

bytes concat(std::initializer_list<bytes_view> parts) {
  bytes out;
  for (const auto part : parts) {
    append(out, part);
  }
  return out;
}

TEST(FramesPadding, RunCollapsesToOneFrameWhereverItSits) {
  const bytes crypto = frames_payload({crypto_frame{7, bytes(40, 0xc3)}});
  const bytes ping = frames_payload({ping_frame{}});
  const bytes ack = frames_payload({ack_frame{9}});
  // Run lengths around the scan's 8-byte word, plus a long one. One
  // slot serves every parse: each replaces what the last one left.
  std::vector<frame> parsed;
  for (const std::size_t n : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 1003u}) {
    SCOPED_TRACE(n);
    const bytes leading = concat({zeros(n), crypto});
    parse_frames(leading, parsed);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(std::get<padding_frame>(parsed[0]).count, n);
    EXPECT_EQ(std::get<crypto_frame>(parsed[1]).offset, 7u);

    parse_frames(concat({ping, zeros(n), ack}), parsed);
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_TRUE(std::holds_alternative<ping_frame>(parsed[0]));
    EXPECT_EQ(std::get<padding_frame>(parsed[1]).count, n);
    EXPECT_EQ(std::get<ack_frame>(parsed[2]).largest, 9u);

    const bytes trailing = concat({crypto, zeros(n)});
    parse_frames(trailing, parsed);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(std::get<padding_frame>(parsed[1]).count, n);

    parse_frames(zeros(n), parsed);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(std::get<padding_frame>(parsed[0]).count, n);
  }
  parse_frames({}, parsed);
  EXPECT_TRUE(parsed.empty());
}

TEST(FramesPadding, TrailingRunStopsAtTheAeadTag) {
  // The tag placeholder is zero bytes too; the packet's length field,
  // not the padding scan, decides where the frames end.
  for (const packet_type type : {packet_type::initial,
                                 packet_type::handshake,
                                 packet_type::one_rtt}) {
    for (const std::size_t n : {1u, 8u, 13u, 900u}) {
      packet p;
      p.type = type;
      p.dcid = connection_id{bytes(8, 0x5d)};
      p.frames = {crypto_frame{0, keep(bytes(33, 0x44))}, padding_frame{n}};
      const bytes wire = encode_datagram(std::vector<packet>{p});
      const auto parsed = parse_datagram(wire);
      ASSERT_EQ(parsed.size(), 1u);
      ASSERT_EQ(parsed[0].frames.size(), 2u);
      EXPECT_EQ(std::get<padding_frame>(parsed[0].frames[1]).count, n);
      EXPECT_EQ(parsed[0].wire_size(), wire.size());
    }
  }
}

TEST(FramesPadding, PaddingOnlyPacketRoundTrips) {
  packet p;
  p.type = packet_type::handshake;
  p.dcid = connection_id{bytes(8, 0x21)};
  p.frames = {padding_frame{1170}};
  const bytes wire = encode_datagram(std::vector<packet>{p});
  const auto parsed = parse_datagram(wire);
  ASSERT_EQ(parsed.size(), 1u);
  ASSERT_EQ(parsed[0].frames.size(), 1u);
  EXPECT_EQ(std::get<padding_frame>(parsed[0].frames[0]).count, 1170u);
  EXPECT_EQ(encode_datagram(parsed), wire);
}

TEST(FramesPadding, MalformedFrameAfterARunStillThrows) {
  std::vector<frame> parsed;
  for (const std::size_t n : {1u, 8u, 21u, 640u}) {
    SCOPED_TRACE(n);
    // CRYPTO whose length varint promises more bytes than remain.
    EXPECT_THROW(
        parse_frames(concat({zeros(n), bytes{0x06, 0x00, 0x10, 0xaa}}),
                     parsed),
        codec_error);
    // A frame type cut off before its first field.
    EXPECT_THROW(parse_frames(concat({zeros(n), bytes{0x06}}), parsed),
                 codec_error);
    // A two-byte varint cut in half.
    EXPECT_THROW(parse_frames(concat({zeros(n), bytes{0x02, 0x40}}), parsed),
                 codec_error);
    // An unknown frame type.
    EXPECT_THROW(parse_frames(concat({zeros(n), bytes{0x1f}}), parsed),
                 codec_error);
  }
}

TEST(Frames, AckOnlyIsNotAckEliciting) {
  const auto acc = account({ack_frame{1}, padding_frame{10}});
  EXPECT_FALSE(acc.ack_eliciting);
}

TEST(Packet, WireSizeMatchesEncoding) {
  rng r{2};
  packet p;
  p.type = packet_type::initial;
  p.dcid.resize(8);
  r.fill(p.dcid);
  p.token.resize(24);
  r.fill(p.token);
  bytes crypto_data(800);
  r.fill(crypto_data);
  p.frames.push_back(crypto_frame{0, crypto_data});
  p.frames.push_back(padding_frame{100});
  EXPECT_EQ(encode_datagram({&p, 1}).size(), p.wire_size());
}

TEST(Packet, DatagramRoundTripWithCoalescing) {
  rng r{3};
  packet init;
  init.type = packet_type::initial;
  init.dcid.resize(8);
  r.fill(init.dcid);
  init.scid.resize(8);
  r.fill(init.scid);
  init.packet_number = 0;
  init.frames.push_back(ack_frame{0});
  init.frames.push_back(crypto_frame{0, keep(bytes(120, 0x42))});

  packet hs;
  hs.type = packet_type::handshake;
  hs.dcid = init.dcid;
  hs.scid = init.scid;
  hs.packet_number = 0;
  hs.frames.push_back(crypto_frame{0, keep(bytes(900, 0x41))});

  const bytes wire = encode_datagram(std::vector<packet>{init, hs});
  const auto parsed = parse_datagram(wire);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].type, packet_type::initial);
  EXPECT_EQ(parsed[1].type, packet_type::handshake);
  EXPECT_EQ(parsed[0].dcid, init.dcid);

  const auto acc = account_datagram(wire);
  EXPECT_EQ(acc.total, wire.size());
  EXPECT_EQ(acc.crypto_payload, 1020u);
  EXPECT_TRUE(acc.has_initial);
}

TEST(Packet, RetryRoundTrip) {
  packet retry;
  retry.type = packet_type::retry;
  retry.dcid = connection_id{bytes(8, 1)};
  retry.scid = connection_id{bytes(8, 2)};
  retry.token = bytes(24, 3);
  const bytes wire = encode_datagram(std::vector<packet>{retry});
  EXPECT_EQ(wire.size(), retry.wire_size());
  const auto parsed = parse_datagram(wire);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].type, packet_type::retry);
  EXPECT_EQ(parsed[0].token, bytes(24, 3));
}

TEST(Packet, PadDatagramHitsExactTarget) {
  for (const std::size_t target : {1200u, 1252u, 1362u, 1472u}) {
    rng r{4};
    packet p;
    p.type = packet_type::initial;
    p.dcid.resize(8);
    r.fill(p.dcid);
    p.frames.push_back(crypto_frame{0, keep(bytes(300, 0x55))});
    EXPECT_EQ(padded_wire(p, target).size(), target);
  }
}

TEST(Packet, BuilderRefusesWhatItCannotBuild) {
  std::vector<packet> slots;
  datagram_builder empty{slots};
  EXPECT_THROW((void)empty.pad_to(1200), config_error);

  datagram_builder full{slots};
  for (std::size_t i = 0; i < kMaxCoalesced; ++i) {
    (void)full.open(packet_type::handshake);
  }
  EXPECT_THROW((void)full.open(packet_type::one_rtt), config_error);

  // Retry and Version Negotiation packets carry no frames to pad.
  datagram_builder retry{slots};
  retry.open(packet_type::retry).token = bytes(24, 0x7e);
  EXPECT_THROW((void)retry.pad_to(1200), config_error);
  datagram_builder vn{slots};
  vn.open(packet_type::initial) = make_version_negotiation({}, {}, {1});
  EXPECT_THROW((void)vn.pad_to(1200), config_error);
}

TEST(Packet, ParseRejectsMissingFixedBit) {
  // A non-zero first byte with neither the long-header nor the fixed
  // bit set is not a QUIC packet (a 0x00 byte would be datagram-level
  // padding instead).
  const bytes data = {0x20, 0x01, 0x02};
  EXPECT_THROW((void)parse_datagram(data), codec_error);
}

TEST(Packet, ParseRejectsTruncatedShortHeader) {
  // A fixed-bit short header that ends before packet number + AEAD tag.
  const bytes data = {0x40, 0x01, 0x02};
  EXPECT_THROW((void)parse_datagram(data), codec_error);
}

TEST(Packet, OneRttRoundTrip) {
  rng r{6};
  packet p;
  p.type = packet_type::one_rtt;
  p.dcid.resize(8);
  r.fill(p.dcid);
  p.packet_number = 3;
  p.frames.push_back(stream_frame{0, 0, keep(bytes(200, 0x5a))});
  const bytes wire = encode_datagram(std::vector<packet>{p});
  EXPECT_EQ(wire.size(), p.wire_size());
  const auto parsed = parse_datagram(wire);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].type, packet_type::one_rtt);
  EXPECT_EQ(parsed[0].dcid, p.dcid);
  EXPECT_EQ(parsed[0].packet_number, 3u);
  ASSERT_EQ(parsed[0].frames.size(), 1u);
  const auto* sf = std::get_if<stream_frame>(&parsed[0].frames[0]);
  ASSERT_NE(sf, nullptr);
  EXPECT_EQ(bytes(sf->data.begin(), sf->data.end()), bytes(200, 0x5a));

  const auto acc = account_datagram(wire);
  EXPECT_EQ(acc.stream_payload, 200u);
}

TEST(Packet, OneRttCoalescesLastAfterLongHeaders) {
  // A short-header packet has no length field, so it must close the
  // datagram; the parser consumes the rest of the buffer for it.
  rng r{7};
  packet hs;
  hs.type = packet_type::handshake;
  hs.dcid.resize(8);
  r.fill(hs.dcid);
  hs.frames.push_back(crypto_frame{0, keep(bytes(40, 0x21))});

  packet app;
  app.type = packet_type::one_rtt;
  app.dcid = hs.dcid;
  app.frames.push_back(stream_frame{0, 0, keep(bytes(15, 0x47))});

  const auto parsed = parse_datagram(encode_datagram(std::vector<packet>{hs, app}));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].type, packet_type::handshake);
  EXPECT_EQ(parsed[1].type, packet_type::one_rtt);
  const auto* sf = std::get_if<stream_frame>(&parsed[1].frames[0]);
  ASSERT_NE(sf, nullptr);
  EXPECT_EQ(sf->data.size(), 15u);
}

TEST(Packet, TrailingZerosAreDatagramPadding) {
  rng r{5};
  packet p;
  p.type = packet_type::initial;
  p.dcid.resize(8);
  r.fill(p.dcid);
  p.frames.push_back(crypto_frame{0, keep(bytes(10, 0x11))});
  bytes wire = encode_datagram(std::vector<packet>{p});
  wire.resize(wire.size() + 64, 0);  // UDP-layer padding
  const auto parsed = parse_datagram(wire);
  EXPECT_EQ(parsed.size(), 1u);
}

// ---- Connection-ID length cap (RFC 9000 §17.2) ---------------------------

/// One valid packet of each kind the codec parses, with empty ids.
packet packet_of_kind(const std::string& kind) {
  if (kind == "version_negotiation") {
    return make_version_negotiation({}, {}, {kVersion1});
  }
  packet p;
  if (kind == "retry") {
    p.type = packet_type::retry;
    p.token = bytes(24, 3);
    return p;
  }
  p.type = kind == "initial"     ? packet_type::initial
           : kind == "zero_rtt"  ? packet_type::zero_rtt
           : kind == "handshake" ? packet_type::handshake
                                 : packet_type::one_rtt;
  p.frames.push_back(crypto_frame{0, keep(bytes(40, 0x44))});
  return p;
}

/// The wire form of `p` (whose ids are empty) with its id length bytes
/// rewritten to `dcid_len` and, for long headers, `scid_len`, each
/// followed by that many id bytes — so lengths past the cap, which no
/// connection_id can hold, still reach the parser.
bytes with_cid_lengths(const packet& p, std::uint8_t dcid_len,
                       std::uint8_t scid_len) {
  const bytes wire = encode_datagram({&p, 1});
  const bool short_header = p.type == packet_type::one_rtt;
  // Short header: flags, dcid length. Long header: flags, version,
  // dcid length, scid length.
  const std::size_t dcid_at = short_header ? 1 : 5;
  bytes out(wire.begin(), wire.begin() + static_cast<long>(dcid_at));
  out.push_back(dcid_len);
  out.insert(out.end(), dcid_len, 0xab);
  if (!short_header) {
    out.push_back(scid_len);
    out.insert(out.end(), scid_len, 0xcd);
  }
  out.insert(out.end(),
             wire.begin() + static_cast<long>(dcid_at + (short_header ? 1 : 2)),
             wire.end());
  return out;
}

class ConnectionIdCap : public ::testing::TestWithParam<std::string> {};

TEST_P(ConnectionIdCap, ParseAcceptsTwentyBytesAndRejectsMore) {
  const packet p = packet_of_kind(GetParam());
  const bool short_header = p.type == packet_type::one_rtt;
  const std::uint8_t scid_max = short_header ? 0 : 20;
  const auto parsed = parse_datagram(with_cid_lengths(p, 20, scid_max));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].dcid.size(), 20u);
  EXPECT_EQ(parsed[0].scid.size(), scid_max);
  for (const std::uint8_t len : {21, 255}) {
    SCOPED_TRACE(static_cast<int>(len));
    EXPECT_THROW((void)parse_datagram(with_cid_lengths(p, len, 0)),
                 codec_error);
    if (!short_header) {
      EXPECT_THROW((void)parse_datagram(with_cid_lengths(p, 0, len)),
                   codec_error);
    }
  }
}

TEST_P(ConnectionIdCap, EncodeRejectsOversizeIds) {
  // An oversize id cannot be put into a packet, so none is ever encoded.
  for (const std::size_t len : {21u, 255u}) {
    SCOPED_TRACE(len);
    const bytes id(len, 0xab);
    if (GetParam() == "version_negotiation") {
      EXPECT_THROW((void)make_version_negotiation(id, {}, {kVersion1}),
                   codec_error);
      EXPECT_THROW((void)make_version_negotiation({}, id, {kVersion1}),
                   codec_error);
      continue;
    }
    packet p = packet_of_kind(GetParam());
    EXPECT_THROW(p.dcid = connection_id{id}, codec_error);
    EXPECT_THROW(p.scid.resize(len), codec_error);
    EXPECT_TRUE(p.dcid.empty());
    EXPECT_TRUE(p.scid.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(EveryPacketType, ConnectionIdCap,
                         ::testing::Values("initial", "zero_rtt",
                                           "handshake", "retry", "one_rtt",
                                           "version_negotiation"),
                         [](const auto& info) { return info.param; });

TEST(Server, RejectsMaxUdpPayloadBelowTheInitialFloor) {
  // Below 60 bytes the CRYPTO chunk arithmetic would wrap; anything
  // under RFC 9000's 1200-byte floor is a configuration error.
  net::simulator sim;
  ca::ecosystem eco = ca::ecosystem::make();
  rng issue_rng{99};
  const auto chain =
      eco.issue(eco.profile(profile_id::cloudflare), "x.org", issue_rng);
  server_behavior behavior = server_behavior::compliant();
  for (const std::size_t payload : {0u, 59u, 60u, 1199u}) {
    SCOPED_TRACE(payload);
    behavior.max_udp_payload = payload;
    EXPECT_THROW((server{sim, kServerEp, chain, behavior, bytes_view{}, 1}),
                 config_error);
  }
  // The floor itself is a working server.
  behavior.max_udp_payload = kMinInitialSize;
  const server srv{sim, kServerEp, chain, behavior, bytes_view{}, 1};
  client cli{sim, kClientEp, kServerEp, client_config{.initial_size = 1362},
             2};
  cli.start();
  sim.run();
  EXPECT_TRUE(cli.result().handshake_complete);
}

// ---- End-to-end handshakes over the simulator ---------------------------

struct handshake_fixture {
  net::simulator sim;
  ca::ecosystem eco = ca::ecosystem::make();
  const bytes dictionary = eco.compression_dictionary();

  observation run(profile_id profile, server_behavior behavior,
                  client_config config, const std::string& domain = "x.org") {
    rng issue_rng{99};
    auto chain = eco.issue(eco.profile(profile), domain, issue_rng);
    server srv{sim, kServerEp, std::move(chain), behavior, dictionary, 1};
    client cli{sim, kClientEp, kServerEp, std::move(config), 2};
    cli.start();
    sim.run();
    return cli.result();
  }
};

TEST(Handshake, CompliantSmallChainCompletesIn1Rtt) {
  handshake_fixture fx;
  const auto obs = fx.run(profile_id::cloudflare, server_behavior::compliant(),
                          client_config{.initial_size = 1362});
  EXPECT_TRUE(obs.handshake_complete);
  EXPECT_FALSE(obs.retry_seen);
  EXPECT_EQ(obs.acks_before_complete, 0u);
  // Compliant server: never exceed 3x before validation.
  EXPECT_LE(obs.bytes_received_first_burst, 3 * obs.bytes_sent_first_flight);
}

TEST(Handshake, LargeChainForcesMultiRtt) {
  handshake_fixture fx;
  const auto obs = fx.run(profile_id::le_r3_x1cross,
                          server_behavior::standard_no_coalesce(),
                          client_config{.initial_size = 1362});
  EXPECT_TRUE(obs.handshake_complete);
  EXPECT_GE(obs.acks_before_complete, 1u);
  EXPECT_LE(obs.bytes_received_first_burst, 3 * obs.bytes_sent_first_flight);
}

TEST(Handshake, CloudflareProfileAmplifiesButCompletes1Rtt) {
  handshake_fixture fx;
  const auto obs = fx.run(profile_id::cloudflare, server_behavior::cloudflare(),
                          client_config{.initial_size = 1362});
  EXPECT_TRUE(obs.handshake_complete);
  EXPECT_EQ(obs.acks_before_complete, 0u);  // completed within 1 RTT
  // ... yet the first burst exceeds the anti-amplification limit (§4.1).
  EXPECT_GT(obs.bytes_received_first_burst, 3 * obs.bytes_sent_first_flight);
  // The overshoot stays small (Fig. 4: factors below ~6x).
  EXPECT_LT(obs.first_burst_amplification(), 6.0);
  // Superfluous padding is substantial (§4.1: ~2.4 kB constant).
  EXPECT_GT(obs.padding_bytes_first_burst, 1800u);
}

TEST(Handshake, CloudflarePaddingIsConstantAcrossDomains) {
  // §4.1: "exactly 2462 superfluous QUIC padding bytes" regardless of
  // the (varying) TLS payload size.
  std::vector<std::size_t> paddings;
  for (int i = 0; i < 5; ++i) {
    handshake_fixture fx;
    const auto obs = fx.run(
        profile_id::cloudflare, server_behavior::cloudflare(),
        client_config{.initial_size = 1362},
        "domain" + std::to_string(i) + ".example");
    paddings.push_back(obs.padding_bytes_first_burst);
  }
  for (const auto p : paddings) {
    EXPECT_EQ(p, 2462u);  // the constant the paper reports
  }
}

TEST(Handshake, RetryServerTriggersRetryAndCompletes) {
  handshake_fixture fx;
  const auto obs = fx.run(
      profile_id::cloudflare, server_behavior::retry_always(),
      client_config{.initial_size = 1362});
  EXPECT_TRUE(obs.retry_seen);
  EXPECT_TRUE(obs.handshake_complete);
  EXPECT_GE(obs.client_datagrams, 2u);
}

TEST(Handshake, CompressionNegotiatedWhenOffered) {
  handshake_fixture fx;
  client_config config;
  config.initial_size = 1250;  // Chromium default
  config.offer_compression = {compress::algorithm::brotli};
  const auto obs = fx.run(
      profile_id::le_r3_x1cross, server_behavior::cloudflare(),
      std::move(config));
  EXPECT_TRUE(obs.handshake_complete);
  EXPECT_TRUE(obs.compression_used);
  EXPECT_LT(obs.certificate_msg_size, obs.certificate_uncompressed_size / 2);
}

TEST(Handshake, CompressionAbsentWithoutOffer) {
  handshake_fixture fx;
  const auto obs = fx.run(
      profile_id::le_r3_x1cross, server_behavior::cloudflare(),
      client_config{.initial_size = 1362});
  EXPECT_FALSE(obs.compression_used);
}

TEST(Handshake, SilentClientElicitsRetransmissions) {
  handshake_fixture fx;
  client_config config;
  config.initial_size = 1252;
  config.send_acks = false;
  config.timeout = net::seconds(300);
  const auto obs = fx.run(profile_id::le_r3_x1cross,
                          server_behavior::meta_pre_disclosure(7),
                          std::move(config));
  // mvfst behaviour: resends ignore the limit; amplification blows up.
  EXPECT_GT(obs.bytes_received_total, 10 * obs.bytes_sent_first_flight);
  EXPECT_GE(obs.server_datagrams, 8u);  // initial flight + 7 resends
}

TEST(Handshake, CompliantServerNeverExceeds3xEvenWhenSilent) {
  handshake_fixture fx;
  client_config config;
  config.initial_size = 1252;
  config.send_acks = false;
  config.timeout = net::seconds(300);
  const auto obs = fx.run(
      profile_id::le_r3_x1cross, server_behavior::compliant(),
      std::move(config));
  EXPECT_LE(obs.bytes_received_total, 3 * obs.bytes_sent_first_flight);
}

TEST(Handshake, UndersizedInitialIsDropped) {
  handshake_fixture fx;
  const auto obs = fx.run(profile_id::cloudflare, server_behavior::compliant(),
                          client_config{.initial_size = 900,
                                        .timeout = net::seconds(1)});
  EXPECT_FALSE(obs.response_received);
  EXPECT_TRUE(obs.timed_out);
}

TEST(Handshake, AppDataExchangeMeasuresTtfb) {
  handshake_fixture fx;
  client_config config;
  config.initial_size = 1362;
  config.fetch_app_data = true;
  const auto obs = fx.run(profile_id::cloudflare, server_behavior::compliant(),
                          std::move(config));
  ASSERT_TRUE(obs.handshake_complete);
  EXPECT_EQ(obs.app_bytes_received, 256u);
  // 1-RTT timeline: the request coalesces with the Finished flight,
  // which leaves ack_delay (1 ms) after the server burst arrives; the
  // response lands one RTT (20 ms) later.
  EXPECT_EQ(obs.first_app_byte_time,
            obs.complete_time + net::milliseconds(1) + net::milliseconds(20));
}

TEST(Handshake, NoAppDataWithoutFetchFlag) {
  handshake_fixture fx;
  const auto obs = fx.run(profile_id::cloudflare, server_behavior::compliant(),
                          client_config{.initial_size = 1362});
  EXPECT_TRUE(obs.handshake_complete);
  EXPECT_EQ(obs.app_bytes_received, 0u);
  EXPECT_EQ(obs.first_app_byte_time, 0u);
}

TEST(Handshake, PtoRetransmissionTimingUnderLoss) {
  // The server's first flight is lost; the PTO retransmission restores
  // the handshake on an exact deterministic timeline: client Initial
  // arrives at 10 ms, the first flight (sent at 10 ms) is dropped, the
  // 400 ms PTO fires at 410 ms and the retransmitted flight lands at
  // 420 ms. The google profile retransmits outside the amplification
  // limit — a compliant server has no budget left for the resend and
  // must wait for the client to retry instead.
  handshake_fixture fx;
  net::path_config to_client;
  to_client.loss_rate = 1.0;
  fx.sim.set_path_to(kClientEp, to_client);
  fx.sim.schedule(net::milliseconds(100), [&fx]() {
    fx.sim.set_path_to(kClientEp, net::path_config{});  // loss ends
  });
  const auto obs = fx.run(profile_id::cloudflare, server_behavior::google(),
                          client_config{.initial_size = 1362});
  ASSERT_TRUE(obs.handshake_complete);
  EXPECT_EQ(obs.first_receive_time, net::milliseconds(420));
}

TEST(Handshake, BottleneckSpreadsBurstWithoutChangingBytes) {
  handshake_fixture fx_burst;
  const auto burst = fx_burst.run(profile_id::le_r3_x1cross,
                                  server_behavior::standard_no_coalesce(),
                                  client_config{.initial_size = 1362});

  // A bandwidth cap on the path to the client serializes the server's
  // burst (~5 ms per full datagram).
  handshake_fixture fx_capped;
  net::path_config to_client;
  to_client.bandwidth_bps = 2'000'000;
  fx_capped.sim.set_path_to(kClientEp, to_client);
  const auto spread = fx_capped.run(profile_id::le_r3_x1cross,
                                    server_behavior::standard_no_coalesce(),
                                    client_config{.initial_size = 1362});

  ASSERT_TRUE(burst.handshake_complete);
  ASSERT_TRUE(spread.handshake_complete);
  // The bottleneck only re-times the same bytes.
  EXPECT_EQ(spread.bytes_received_total, burst.bytes_received_total);
  EXPECT_EQ(spread.tls_bytes_received, burst.tls_bytes_received);
  // The multi-datagram burst arrives spread out, delaying completion.
  EXPECT_GT(spread.complete_time, burst.complete_time);
  EXPECT_GT(spread.last_receive_time - spread.first_receive_time,
            burst.last_receive_time - burst.first_receive_time);
}

TEST(Handshake, BudgetBlockedFlightsAreTimed) {
  // A chain larger than 3x the client Initial forces the compliant
  // server to park its flight on the amplification budget until the
  // client's ACK validates the path; the stats record both the event
  // and the blocked duration (at least the client-side ack_delay, at
  // most the round trip that releases it).
  net::simulator sim;
  ca::ecosystem eco = ca::ecosystem::make();
  rng issue_rng{99};
  auto chain =
      eco.issue(eco.profile(profile_id::le_r3_x1cross), "x.org", issue_rng);
  const bytes dictionary = eco.compression_dictionary();
  server srv{sim,   kServerEp, std::move(chain),
             server_behavior::compliant(), dictionary, 1};
  client cli{sim, kClientEp, kServerEp,
             client_config{.initial_size = 1362}, 2};
  cli.start();
  sim.run();
  ASSERT_TRUE(cli.result().handshake_complete);
  EXPECT_GE(srv.stats().budget_blocked_flights, 1u);
  EXPECT_GE(srv.stats().budget_blocked_us,
            static_cast<std::uint64_t>(net::milliseconds(1)));
  EXPECT_LE(srv.stats().budget_blocked_us,
            static_cast<std::uint64_t>(net::milliseconds(21)));
}

// Property: an RFC-9000-compliant server never exceeds the 3x limit
// before validation, across Initial sizes, chains and coalescing modes.
struct ComplianceCase {
  profile_id profile;
  std::size_t initial_size;
  bool coalesce;
  bool acks;
};

class AmplificationInvariant
    : public ::testing::TestWithParam<ComplianceCase> {};

TEST_P(AmplificationInvariant, Holds) {
  const auto& param = GetParam();
  handshake_fixture fx;
  server_behavior behavior = param.coalesce
                                 ? server_behavior::compliant()
                                 : server_behavior::standard_no_coalesce();
  client_config config;
  config.initial_size = param.initial_size;
  config.send_acks = param.acks;
  config.timeout = net::seconds(120);
  const auto obs = fx.run(param.profile, behavior, std::move(config));
  ASSERT_TRUE(obs.response_received);
  EXPECT_LE(obs.bytes_received_first_burst, 3 * obs.bytes_sent_first_flight);
  if (!param.acks) {
    EXPECT_LE(obs.bytes_received_total, 3 * obs.bytes_sent_first_flight);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AmplificationInvariant,
    ::testing::Values(
        ComplianceCase{profile_id::cloudflare, 1200, true, true},
        ComplianceCase{profile_id::cloudflare, 1472, false, true},
        ComplianceCase{profile_id::le_r3_x1cross, 1200, true, true},
        ComplianceCase{profile_id::le_r3_x1cross, 1200, false, false},
        ComplianceCase{profile_id::le_r3_x1cross, 1362, true, false},
        ComplianceCase{profile_id::le_r3_x1cross, 1472, false, true},
        ComplianceCase{profile_id::sectigo, 1250, true, true},
        ComplianceCase{profile_id::sectigo, 1362, false, false},
        ComplianceCase{profile_id::cpanel, 1302, true, true},
        ComplianceCase{profile_id::gts_1c3, 1362, false, true}));

TEST(Packet, VersionNegotiationRoundTrip) {
  const packet vn = make_version_negotiation(
      bytes{1, 2}, bytes{3, 4, 5}, {kVersion1, 0x6b3343cfu});
  EXPECT_TRUE(vn.is_version_negotiation());
  const bytes wire = encode_datagram(std::vector<packet>{vn});
  EXPECT_EQ(wire.size(), vn.wire_size());
  const auto parsed = parse_datagram(wire);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_TRUE(parsed[0].is_version_negotiation());
  ASSERT_EQ(parsed[0].supported_versions.size(), 2u);
  EXPECT_EQ(parsed[0].supported_versions[0], kVersion1);
  EXPECT_EQ(parsed[0].dcid, (connection_id{bytes{1, 2}}));
}

TEST(Handshake, VersionMismatchNegotiatesAndCompletes) {
  handshake_fixture fx;
  server_behavior behavior = server_behavior::compliant();
  behavior.supported_version = 0x6b3343cfu;  // QUIC v2 code point
  client_config config;
  config.initial_size = 1362;  // client offers v1
  const auto obs = fx.run(profile_id::cloudflare, behavior, std::move(config));
  EXPECT_TRUE(obs.version_negotiation_seen);
  EXPECT_TRUE(obs.handshake_complete);
  EXPECT_GE(obs.client_datagrams, 2u);  // original + renegotiated Initial
}

TEST(Handshake, MatchingVersionSkipsNegotiation) {
  handshake_fixture fx;
  const auto obs = fx.run(profile_id::cloudflare, server_behavior::compliant(),
                          client_config{.initial_size = 1362});
  EXPECT_FALSE(obs.version_negotiation_seen);
}

TEST(Handshake, SilentClientIgnoresVersionNegotiation) {
  handshake_fixture fx;
  server_behavior behavior = server_behavior::compliant();
  behavior.supported_version = 0x6b3343cfu;
  client_config config;
  config.initial_size = 1362;
  config.send_acks = false;
  config.timeout = net::seconds(2);
  const auto obs = fx.run(profile_id::cloudflare, behavior, std::move(config));
  EXPECT_FALSE(obs.version_negotiation_seen);
  EXPECT_FALSE(obs.handshake_complete);
  // A VN reply is tiny: no amplification value for attackers.
  EXPECT_LT(obs.bytes_received_total, 100u);
}

// Fuzz property: arbitrary bytes never crash the datagram parser —
// they either parse or raise codec_error.
class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

/// `wire` with one bit flipped.
bytes flip_one_bit(rng& r, bytes wire) {
  const auto pos = r.uniform(0, wire.size() - 1);
  wire[pos] ^= static_cast<std::uint8_t>(1u << r.uniform(0, 7));
  return wire;
}

/// `wire` with a run of 1-1500 zero bytes spliced in anywhere, then cut
/// anywhere half the time.
bytes splice_zero_run(rng& r, bytes wire) {
  const auto at = static_cast<long>(r.uniform(0, wire.size()));
  const auto run = static_cast<std::size_t>(r.uniform(1, 1500));
  wire.insert(wire.begin() + at, run, std::uint8_t{0});
  if (r.chance(0.5)) {
    wire.resize(static_cast<std::size_t>(r.uniform(0, wire.size())));
  }
  return wire;
}

/// Runs one handshake of `rec` through a relay that records every
/// datagram of both directions as it forwards it, and appends them to
/// `out` in the order they were sent.
void capture_handshake(const internet::model& m,
                       const internet::service_record& rec,
                       const server_behavior& behavior, client_config config,
                       std::vector<bytes>& out) {
  net::simulator sim;
  const net::endpoint_id relay_for_client{net::ipv4::of(10, 2, 0, 1), 443};
  const net::endpoint_id relay_for_server{net::ipv4::of(10, 2, 0, 2), 40000};
  const server srv{sim,
                   kServerEp,
                   m.chain_of(rec, internet::fetch_protocol::quic),
                   behavior,
                   m.compression_dictionary(),
                   rec.seed};
  config.sni = rec.domain;
  client cli{sim, kClientEp, relay_for_client, std::move(config),
             rec.seed ^ 0xc11};
  sim.attach(relay_for_client, [&](const net::datagram& d) {
    out.push_back(d.payload);
    sim.send({relay_for_server, kServerEp, d.payload});
  });
  sim.attach(relay_for_server, [&](const net::datagram& d) {
    out.push_back(d.payload);
    sim.send({relay_for_client, kClientEp, d.payload});
  });
  cli.start();
  sim.run();
  EXPECT_TRUE(cli.result().handshake_complete) << rec.domain;
}

/// The datagrams of a few handshakes with the first QUIC service of the
/// golden population (2000 domains, seed 42): one per Initial size of
/// the Fig. 3 sweep under the service's own behaviour, then a Retry
/// server, a Version Negotiation server and a coalescing server that
/// also answers the 1-RTT request.
const std::vector<bytes>& real_wire_images() {
  static const std::vector<bytes> wires = [] {
    const internet::model m =
        internet::model::generate({.domains = 2000, .seed = 42});
    const internet::service_record& rec = m.records()[engine::sample_indices(
        m, engine::service_filter::quic, 1).front()];
    std::vector<bytes> out;
    for (const std::size_t size : core::initial_size_sweep()) {
      capture_handshake(m, rec, m.behavior_of(rec),
                        client_config{.initial_size = size}, out);
    }
    capture_handshake(m, rec, server_behavior::retry_always(), {}, out);
    server_behavior vn = server_behavior::compliant();
    vn.supported_version = 0xff00'001d;
    capture_handshake(m, rec, vn, {}, out);
    capture_handshake(m, rec, server_behavior::compliant(),
                      client_config{.fetch_app_data = true}, out);
    return out;
  }();
  return wires;
}

TEST_P(ParserFuzz, MutantsOfRealWireImagesParseOrFailClosed) {
  const std::vector<bytes>& wires = real_wire_images();
  // The images hold what they are meant to: a Retry, a Version
  // Negotiation, coalesced packets and a 1-RTT packet.
  bool retry = false;
  bool negotiation = false;
  bool coalesced = false;
  bool one_rtt = false;
  for (const bytes& wire : wires) {
    const auto packets = parse_datagram(wire);
    coalesced = coalesced || packets.size() > 1;
    for (const packet& p : packets) {
      retry = retry || p.type == packet_type::retry;
      negotiation = negotiation || p.is_version_negotiation();
      one_rtt = one_rtt || p.type == packet_type::one_rtt;
    }
  }
  ASSERT_TRUE(retry && negotiation && coalesced && one_rtt);

  // Truncations at every 7th byte (from an offset each seed moves), bit
  // flips and spliced zero runs, all parsed into one set of slots: a
  // mutant parses as it would into fresh slots, or throws codec_error.
  rng r{GetParam() ^ 0x3e41};
  std::vector<packet> slots;
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  const auto attempt = [&](bytes_view mutant) {
    std::span<const packet> packets;
    try {
      packets = parse_datagram(mutant, slots);
    } catch (const codec_error&) {
      ++rejected;
      return;
    }
    ++parsed;
    const std::vector<packet> fresh = parse_datagram(mutant);
    ASSERT_EQ(packets.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      const packet& a = packets[i];
      const packet& b = fresh[i];
      EXPECT_TRUE(a.type == b.type && a.version == b.version &&
                  a.dcid == b.dcid && a.scid == b.scid &&
                  a.token == b.token && a.packet_number == b.packet_number &&
                  a.supported_versions == b.supported_versions &&
                  a.frames.size() == b.frames.size());
    }
    EXPECT_EQ(encode_datagram(packets), encode_datagram(fresh));
  };
  for (const bytes& wire : wires) {
    for (std::size_t cut = GetParam() % 7; cut < wire.size(); cut += 7) {
      attempt({wire.data(), cut});
    }
    for (int round = 0; round < 20; ++round) {
      attempt(flip_one_bit(r, wire));
      attempt(splice_zero_run(r, wire));
    }
  }
  EXPECT_GT(parsed, 1000u);
  EXPECT_GT(rejected, 1000u);
}

TEST_P(ParserFuzz, RandomBytesAreSafe) {
  rng r{GetParam()};
  for (int round = 0; round < 400; ++round) {
    bytes noise(static_cast<std::size_t>(r.uniform(0, 1600)));
    r.fill(noise);
    try {
      const auto packets = parse_datagram(noise);
      for (const auto& p : packets) {
        (void)p.wire_size();
      }
    } catch (const codec_error&) {
      // expected for malformed input
    }
  }
}

TEST_P(ParserFuzz, TruncatedValidDatagramsAreSafe) {
  rng r{GetParam() ^ 0xfeed};
  packet init;
  init.type = packet_type::initial;
  init.dcid.resize(8);
  r.fill(init.dcid);
  bytes crypto(600);
  r.fill(crypto);
  init.frames.push_back(crypto_frame{0, crypto});
  const bytes wire = padded_wire(init, 1200);
  for (std::size_t cut = 0; cut < wire.size(); cut += 7) {
    const bytes_view truncated{wire.data(), cut};
    try {
      (void)parse_datagram(truncated);
    } catch (const codec_error&) {
    }
  }
}

TEST_P(ParserFuzz, BitFlippedDatagramsAreSafe) {
  rng r{GetParam() ^ 0xf11b};
  packet init;
  init.type = packet_type::initial;
  init.dcid.resize(8);
  r.fill(init.dcid);
  bytes crypto(300);
  r.fill(crypto);
  init.frames.push_back(crypto_frame{0, crypto});
  bytes wire = encode_datagram(std::vector<packet>{init});
  for (int round = 0; round < 300; ++round) {
    try {
      (void)parse_datagram(flip_one_bit(r, wire));
    } catch (const codec_error&) {
    }
  }
}

TEST_P(ParserFuzz, ZeroRunsSplicedAnywhereAreSafe) {
  rng r{GetParam() ^ 0x2e60};
  packet init;
  init.type = packet_type::initial;
  init.dcid.resize(8);
  r.fill(init.dcid);
  bytes crypto(500);
  r.fill(crypto);
  init.frames.push_back(crypto_frame{0, crypto});
  const bytes wire = padded_wire(init, 1200);
  std::vector<frame> frames;
  for (int round = 0; round < 300; ++round) {
    const bytes mutated = splice_zero_run(r, wire);
    try {
      (void)parse_datagram(mutated);
    } catch (const codec_error&) {
    }
    try {
      parse_frames(mutated, frames);
    } catch (const codec_error&) {
    }
  }
}

TEST_P(ParserFuzz, ZeroRunsAtFrameBoundariesCollapse) {
  // Splicing zero runs between well-formed frames yields the same frames
  // with the runs as single padding_frames: no two PADDING frames are
  // adjacent, the padding total is exact, and re-encoding gives back
  // the input byte for byte.
  rng r{GetParam() ^ 0xb0d5};
  for (int round = 0; round < 200; ++round) {
    std::vector<bytes> pieces;
    std::size_t real_frames = 0;
    for (auto n = r.uniform(0, 6); n > 0; --n) {
      bytes data(static_cast<std::size_t>(r.uniform(0, 300)));
      r.fill(data);
      switch (r.uniform(0, 3)) {
        case 0:
          pieces.push_back(frames_payload({ping_frame{}}));
          break;
        case 1:
          pieces.push_back(frames_payload({ack_frame{r.uniform(0, 99999)}}));
          break;
        case 2:
          pieces.push_back(frames_payload(
              {crypto_frame{r.uniform(0, 5000), data}}));
          break;
        default:
          pieces.push_back(frames_payload(
              {stream_frame{r.uniform(0, 9), r.uniform(0, 70000), data}}));
          break;
      }
      ++real_frames;
    }
    // At most one run per gap (before, between and after the frames).
    bytes payload;
    std::size_t padding = 0;
    std::size_t runs = 0;
    for (std::size_t i = 0; i <= pieces.size(); ++i) {
      if (r.chance(0.5)) {
        const auto n = static_cast<std::size_t>(r.uniform(1, 1200));
        append_zeros(payload, n);
        padding += n;
        ++runs;
      }
      if (i < pieces.size()) {
        append(payload, pieces[i]);
      }
    }
    std::vector<frame> parsed;
    parse_frames(payload, parsed);
    EXPECT_EQ(parsed.size(), real_frames + runs);
    EXPECT_EQ(account(parsed).padding, padding);
    for (std::size_t i = 1; i < parsed.size(); ++i) {
      EXPECT_FALSE(std::holds_alternative<padding_frame>(parsed[i - 1]) &&
                   std::holds_alternative<padding_frame>(parsed[i]));
    }
    EXPECT_EQ(frames_payload(parsed), payload);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// Property: the historical draft policies order total attacker-visible
// bytes as expected (Table 3 ablation).
TEST(Handshake, DraftPolicyOrdering) {
  auto run_policy = [](amplification_policy policy) {
    handshake_fixture fx;
    server_behavior behavior = server_behavior::compliant();
    behavior.policy = policy;
    behavior.max_retransmissions = 0;
    client_config config;
    config.initial_size = 1200;
    config.send_acks = false;
    config.timeout = net::seconds(30);
    const auto obs =
        fx.run(profile_id::le_r3_x1cross, behavior, std::move(config));
    return obs.bytes_received_total;
  };
  const auto unlimited = run_policy(amplification_policy::unlimited);
  const auto three_datagrams =
      run_policy(amplification_policy::max_three_datagrams);
  const auto three_x = run_policy(amplification_policy::three_x_bytes);
  EXPECT_GE(unlimited, three_datagrams);
  EXPECT_GE(unlimited, three_x);
  EXPECT_GT(unlimited, 4000u);  // full flight flows pre-Draft-09
  EXPECT_LE(three_x, 3 * 1200u);
}

// ---- Malformed and truncated flights ------------------------------------

// A hand-built sender endpoint answers the client's first Initial with a
// scripted burst of datagrams, all sent at once, then counts every
// datagram the client sends afterwards.
using scripted_burst = std::vector<std::vector<packet>>;

struct scripted_outcome {
  observation obs;
  std::size_t client_datagrams_after_reply = 0;
};

scripted_outcome run_scripted(const scripted_burst& burst) {
  net::simulator sim;
  scripted_outcome out;
  bool replied = false;
  sim.attach(kServerEp, [&](const net::datagram& d) {
    if (replied) {
      ++out.client_datagrams_after_reply;
      return;
    }
    replied = true;
    for (const std::vector<packet>& dgram : burst) {
      sim.send({kServerEp, d.src, encode_datagram(dgram)});
    }
  });
  client cli{sim, kClientEp, kServerEp, client_config{}, 2};
  cli.start();
  sim.run();
  out.obs = cli.result();
  return out;
}

packet crypto_packet(packet_type type, bytes data, std::uint64_t offset = 0) {
  packet p;
  p.type = type;
  p.frames.push_back(crypto_frame{offset, keep(std::move(data))});
  return p;
}

packet retry_packet() {
  packet retry;
  retry.type = packet_type::retry;
  retry.token = bytes(16, 7);
  return retry;
}

bytes concat(std::initializer_list<bytes> parts) {
  bytes out;
  for (const bytes& p : parts) {
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

/// A handshake message: type, 3-byte length, then `body_size` bytes.
bytes message(tls::handshake_type type, std::size_t body_size) {
  buffer_writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u24(static_cast<std::uint32_t>(body_size));
  w.raw(bytes(body_size, 0x42));
  return std::move(w).take();
}

const bytes kServerHello = message(tls::handshake_type::server_hello, 90);
const bytes kEncryptedExtensions =
    message(tls::handshake_type::encrypted_extensions, 60);
const bytes kValidHandshake =
    concat({kEncryptedExtensions,
            message(tls::handshake_type::certificate, 900),
            message(tls::handshake_type::certificate_verify, 75),
            message(tls::handshake_type::finished, 32)});
const bytes kUnknownTypeMessage = {0x63, 0, 0, 4, 1, 2, 3, 4};

// One datagram: the Initial-level payload, then the Handshake-level one
// (omitted when empty).
std::vector<packet> flight(const bytes& initial, const bytes& handshake) {
  std::vector<packet> dgram;
  dgram.push_back(crypto_packet(packet_type::initial, initial));
  if (!handshake.empty()) {
    dgram.push_back(crypto_packet(packet_type::handshake, handshake));
  }
  return dgram;
}

struct MalformedCase {
  const char* name;
  scripted_burst burst;
};

void PrintTo(const MalformedCase& c, std::ostream* os) { *os << c.name; }

class MalformedFlight : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MalformedFlight, ClientAbandonsAndSendsNothingMore) {
  const scripted_outcome out = run_scripted(GetParam().burst);
  EXPECT_TRUE(out.obs.response_received);
  EXPECT_FALSE(out.obs.handshake_complete);
  EXPECT_TRUE(out.obs.timed_out);
  EXPECT_EQ(out.client_datagrams_after_reply, 0u);
  EXPECT_EQ(out.obs.client_datagrams, 1u);
  EXPECT_EQ(out.obs.acks_before_complete, 0u);
  EXPECT_EQ(scan::classify(out.obs), scan::handshake_class::unreachable);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MalformedFlight,
    ::testing::Values(
        // A whole first Initial-level message that is not a ServerHello.
        MalformedCase{"InitialNotServerHello",
                      {flight(kEncryptedExtensions, kValidHandshake)}},
        // An Initial-level type byte that is no handshake type at all.
        MalformedCase{"InitialUnknownType", {flight({0x63, 0, 0}, {})}},
        // A Handshake-level message whose type byte is unknown.
        MalformedCase{
            "HandshakeUnknownType",
            {flight(kServerHello,
                    concat({kEncryptedExtensions, kUnknownTypeMessage}))}},
        // A whole CompressedCertificate too short for its
        // uncompressed_length field.
        MalformedCase{
            "CompressedCertificateTooShort",
            {flight(kServerHello,
                    concat({kEncryptedExtensions,
                            message(
                                tls::handshake_type::compressed_certificate,
                                4)}))}},
        // A partial flight arms the ACK timer; the malformed message
        // arriving in the same instant cancels that ACK, and a Retry
        // after it gets no new Initial.
        MalformedCase{
            "MalformedAfterPartialBurst",
            {flight(kServerHello, kEncryptedExtensions),
             {crypto_packet(packet_type::handshake, kUnknownTypeMessage,
                            kEncryptedExtensions.size())},
             {retry_packet()}}}),
    [](const auto& info) { return std::string{info.param.name}; });

TEST(ScriptedFlight, TruncatedValidFlightStillDrawsTheAckFlight) {
  // Partial is not malformed: a flight cut inside the Certificate keeps
  // the client waiting and acknowledging.
  const bytes truncated(kValidHandshake.begin(), kValidHandshake.begin() + 500);
  const scripted_outcome partial =
      run_scripted({flight(kServerHello, truncated)});
  EXPECT_FALSE(partial.obs.handshake_complete);
  EXPECT_GE(partial.client_datagrams_after_reply, 1u);
  EXPECT_GE(partial.obs.acks_before_complete, 1u);

  // The same sender with the whole flight completes in one round trip
  // and draws the Finished flight.
  const scripted_outcome whole =
      run_scripted({flight(kServerHello, kValidHandshake)});
  EXPECT_TRUE(whole.obs.handshake_complete);
  EXPECT_EQ(whole.obs.acks_before_complete, 0u);
  EXPECT_EQ(whole.client_datagrams_after_reply, 1u);
  EXPECT_EQ(whole.obs.certificate_msg_size, 904u);
  EXPECT_FALSE(whole.obs.compression_used);
}

}  // namespace
}  // namespace certquic::quic
