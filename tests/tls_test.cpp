// Unit tests for the TLS 1.3 handshake message layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ca/ecosystem.hpp"
#include "tls/handshake.hpp"
#include "util/buffer.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace certquic::tls {
namespace {

using ca::profile_id;

bytes encoded_client_hello(std::string_view server_name,
                           std::span<const compress::algorithm> offers,
                           rng& r) {
  bytes out;
  encode_client_hello(server_name, offers, r, out);
  return out;
}

bytes encoded_finished(rng& r) {
  bytes out;
  encode_finished(r, out);
  return out;
}

/// A handshake message: 1-byte type + 3-byte length + body.
bytes frame_message(handshake_type type, bytes_view body) {
  buffer_writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u24(static_cast<std::uint32_t>(body.size()));
  w.raw(body);
  return std::move(w).take();
}

class TlsTest : public ::testing::Test {
 protected:
  ca::ecosystem eco_ = ca::ecosystem::make();
  rng rng_{77};

  x509::chain make_chain(profile_id profile = profile_id::cloudflare) {
    return eco_.issue(eco_.profile(profile), "example.org", rng_);
  }
};

TEST_F(TlsTest, FrameRoundTrip) {
  const bytes body = {1, 2, 3, 4, 5};
  const bytes framed = frame_message(handshake_type::finished, body);
  EXPECT_EQ(framed.size(), body.size() + 4);
  const auto info = peek_frame(framed);
  EXPECT_EQ(info.status, frame_status::complete);
  EXPECT_EQ(info.type, handshake_type::finished);
  EXPECT_EQ(info.total_size, framed.size());
}

TEST_F(TlsTest, PeekFrameStatusTable) {
  // Every proper prefix of a framed message is partial; the header's
  // total is known once its four bytes are in.
  const bytes framed =
      frame_message(handshake_type::finished, bytes(32, 0));
  const std::size_t n = framed.size();
  for (std::size_t len = 0; len < n; ++len) {
    SCOPED_TRACE(len);
    const frame_info info = peek_frame(bytes_view{framed}.first(len));
    EXPECT_EQ(info.status, frame_status::partial);
    EXPECT_EQ(info.total_size, len < 4 ? 0u : n);
  }
  const frame_info whole = peek_frame(framed);
  EXPECT_EQ(whole.status, frame_status::complete);
  EXPECT_EQ(whole.type, handshake_type::finished);
  EXPECT_EQ(whole.total_size, n);

  // An unknown type byte is malformed from its first byte on, and
  // trailing bytes never change a whole message's verdict.
  struct row {
    bytes data;
    frame_status status;
  };
  const row table[] = {
      {{0x63}, frame_status::malformed},
      {{0x00, 0, 0, 0}, frame_status::malformed},
      {{0x03, 0, 0, 1, 0xaa}, frame_status::malformed},
      {{0xff, 0, 0, 0, 0}, frame_status::malformed},
      {{0x14, 0, 0, 0}, frame_status::complete},
      {{0x14, 0, 0, 1, 0xaa, 0x63}, frame_status::complete},
      {{0x0b, 0xff, 0xff, 0xff}, frame_status::partial},
  };
  for (const row& r : table) {
    SCOPED_TRACE(::testing::PrintToString(r.data));
    EXPECT_EQ(peek_frame(r.data).status, r.status);
  }
}

TEST_F(TlsTest, ParseOfferedCompressionRejectsTruncatedClientHello) {
  const compress::algorithm brotli[] = {compress::algorithm::brotli};
  const bytes ch = encoded_client_hello("example.org", brotli, rng_);
  for (const std::size_t len : {std::size_t{0}, std::size_t{3},
                                std::size_t{40}, ch.size() - 1}) {
    SCOPED_TRACE(len);
    EXPECT_THROW(
        (void)parse_offered_compression(bytes_view{ch}.first(len)),
        codec_error);
  }
  // A whole message that is not a ClientHello is rejected too.
  EXPECT_THROW((void)parse_offered_compression(encoded_finished(rng_)),
               codec_error);
}

TEST_F(TlsTest, ClientHelloRealisticSize) {
  const bytes ch = encoded_client_hello("www.example.org", {}, rng_);
  // Realistic browser ClientHellos (sans padding) run ~250-400 bytes.
  EXPECT_GT(ch.size(), 250u);
  EXPECT_LT(ch.size(), 420u);
  EXPECT_EQ(peek_frame(ch).type, handshake_type::client_hello);
}

TEST_F(TlsTest, ClientHelloCompressionOfferRoundTrip) {
  const compress::algorithm offers[] = {compress::algorithm::brotli,
                                        compress::algorithm::zstd};
  const bytes ch = encoded_client_hello("example.org", offers, rng_);
  const auto offered = parse_offered_compression(ch);
  ASSERT_EQ(offered.size(), 2u);
  EXPECT_EQ(offered[0], compress::algorithm::brotli);
  EXPECT_EQ(offered[1], compress::algorithm::zstd);

  const bytes bare = encoded_client_hello("example.org", {}, rng_);
  EXPECT_TRUE(parse_offered_compression(bare).empty());
}

TEST_F(TlsTest, ServerHelloSizeStable) {
  const bytes sh = encode_server_hello(rng_);
  EXPECT_EQ(peek_frame(sh).type, handshake_type::server_hello);
  // SH with key_share + supported_versions: ~120-135 bytes framed.
  EXPECT_GT(sh.size(), 110u);
  EXPECT_LT(sh.size(), 140u);
}

TEST_F(TlsTest, CertificateMessageMatchesChainSize) {
  const auto chain = make_chain();
  const bytes cert_msg = encode_certificate(chain);
  // Framing: 4 (frame) + 1 (context) + 3 (list len) + per-cert 3+2.
  const std::size_t expected =
      4 + 1 + 3 + chain.wire_size() + chain.depth() * 5;
  EXPECT_EQ(cert_msg.size(), expected);
  EXPECT_EQ(peek_frame(cert_msg).type, handshake_type::certificate);
}

TEST_F(TlsTest, CompressedCertificateShrinksChain) {
  const auto chain = make_chain(profile_id::le_r3_x1cross);
  const bytes dictionary = eco_.compression_dictionary();
  const compress::codec codec{compress::algorithm::brotli, dictionary};
  const bytes plain = encode_certificate(chain);
  const bytes compressed = encode_compressed_certificate(chain, codec);
  EXPECT_EQ(peek_frame(compressed).type,
            handshake_type::compressed_certificate);
  EXPECT_LT(compressed.size(), plain.size() / 2);
}

TEST_F(TlsTest, CertificateVerifySizeTracksKey) {
  const auto rsa =
      encode_certificate_verify(x509::key_algorithm::rsa_2048, rng_).size();
  const auto ec =
      encode_certificate_verify(x509::key_algorithm::ecdsa_p256, rng_).size();
  EXPECT_EQ(rsa, 4u + 4u + 256u);
  EXPECT_EQ(ec, 4u + 4u + 71u);
}

TEST_F(TlsTest, FinishedIs36Bytes) {
  EXPECT_EQ(encoded_finished(rng_).size(), 36u);
}

// A reused buffer comes back holding only the new message, in the
// storage it brought.
TEST_F(TlsTest, EncodersReplaceTheBufferAndKeepItsStorage) {
  bytes out(700, 0xab);
  const std::uint8_t* storage = out.data();
  rng a{9};
  rng b{9};
  encode_client_hello("example.org", {}, a, out);
  EXPECT_EQ(out, encoded_client_hello("example.org", {}, b));
  EXPECT_EQ(out.data(), storage);
  encode_finished(a, out);
  EXPECT_EQ(out, encoded_finished(b));
  EXPECT_EQ(out.data(), storage);
}

TEST_F(TlsTest, ServerFlightLevelsSplitCorrectly) {
  const auto chain = make_chain();
  const auto flight = build_server_flight(chain, nullptr, rng_);
  EXPECT_EQ(peek_frame(flight.server_hello).type,
            handshake_type::server_hello);
  EXPECT_EQ(peek_frame(flight.server_hello).total_size,
            flight.server_hello.size());
  // The Handshake level is four messages back to back.
  std::vector<handshake_type> types;
  std::size_t offset = 0;
  while (offset < flight.handshake.size()) {
    const frame_info info = peek_frame(
        bytes_view{flight.handshake}.subspan(offset));
    types.push_back(info.type);
    offset += info.total_size;
  }
  EXPECT_EQ(offset, flight.handshake.size());
  EXPECT_EQ(types, (std::vector<handshake_type>{
                       handshake_type::encrypted_extensions,
                       handshake_type::certificate,
                       handshake_type::certificate_verify,
                       handshake_type::finished}));
  EXPECT_EQ(flight.total_size(),
            flight.server_hello.size() + flight.handshake.size());
}

TEST_F(TlsTest, FlightSizeDominatedByCertificate) {
  const auto small =
      build_server_flight(make_chain(profile_id::cloudflare), nullptr, rng_);
  const auto big = build_server_flight(make_chain(profile_id::le_r3_x1cross),
                                       nullptr, rng_);
  // §2: "the size of a server reply is mainly determined by its
  // certificate [chain]".
  EXPECT_GT(big.total_size(), small.total_size() + 1500);
}

TEST_F(TlsTest, CompressedFlightFitsAmplificationBudget) {
  const auto chain = make_chain(profile_id::le_r3_x1cross);
  const bytes dictionary = eco_.compression_dictionary();
  const compress::codec codec{compress::algorithm::brotli, dictionary};
  const auto plain = build_server_flight(chain, nullptr, rng_);
  const auto packed = build_server_flight(chain, &codec, rng_);
  // §4.2: compression keeps 99% of chains under 3x1357 = 4071 bytes.
  EXPECT_GT(plain.total_size(), 4071u);
  EXPECT_LT(packed.total_size(), 4071u);
}


/// FNV-1a over every byte of an encoding, then over the generator's
/// next output, so both the bytes and the number of draws are pinned.
std::uint64_t fingerprint(std::initializer_list<bytes_view> parts,
                          rng& after) {
  std::uint64_t h = 0xcbf2'9ce4'8422'2325ULL;
  const auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x0000'0100'0000'01b3ULL;
  };
  for (const bytes_view part : parts) {
    for (const std::uint8_t b : part) {
      mix(b);
    }
  }
  const std::uint64_t next = after.next();
  for (int shift = 0; shift < 64; shift += 8) {
    mix(static_cast<std::uint8_t>(next >> shift));
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// The encoders' bytes for fixed rng seeds, captured before the
// encoders were rewritten to write each message into one buffer: the
// rewrite must keep every byte and every rng draw where it was. The
// goldens would see a changed byte only through byte totals.
TEST_F(TlsTest, EncoderBytesArePinned) {
  const auto with_rng = [](std::uint64_t seed, auto&& encode) {
    rng r{seed};
    const bytes out = encode(r);
    return fingerprint({out}, r);
  };
  std::vector<std::pair<std::string, std::uint64_t>> got;
  got.emplace_back("client_hello", with_rng(1, [](rng& r) {
                     return encoded_client_hello("example.org", {}, r);
                   }));
  got.emplace_back("client_hello_compression", with_rng(2, [](rng& r) {
                     const compress::algorithm offers[] = {
                         compress::algorithm::zlib,
                         compress::algorithm::brotli,
                         compress::algorithm::zstd};
                     return encoded_client_hello("www.example.com",
                                                 offers, r);
                   }));
  got.emplace_back("server_hello", with_rng(3, [](rng& r) {
                     return encode_server_hello(r);
                   }));
  got.emplace_back("encrypted_extensions", with_rng(4, [](rng& r) {
                     return encode_encrypted_extensions(r);
                   }));
  got.emplace_back("finished", with_rng(5, [](rng& r) {
                     return encoded_finished(r);
                   }));
  for (const auto alg :
       {x509::key_algorithm::rsa_2048, x509::key_algorithm::rsa_4096,
        x509::key_algorithm::ecdsa_p256, x509::key_algorithm::ecdsa_p384,
        x509::key_algorithm::mldsa_44, x509::key_algorithm::mldsa_65,
        x509::key_algorithm::mldsa_87}) {
    got.emplace_back("certificate_verify " + x509::to_string(alg),
                     with_rng(6, [alg](rng& r) {
                       return encode_certificate_verify(alg, r);
                     }));
  }
  const bytes dictionary = eco_.compression_dictionary();
  const compress::codec brotli{compress::algorithm::brotli, dictionary};
  for (const auto pq :
       {x509::pq_profile::classical, x509::pq_profile::pqc_full}) {
    rng issue_rng{8};
    const x509::chain chain =
        eco_.issue(eco_.profile(profile_id::le_r3_x1cross), "example.org",
                   issue_rng, pq);
    for (const compress::codec* codec : {static_cast<const compress::codec*>(
                                             nullptr),
                                         &brotli}) {
      rng r{9};
      const server_flight flight = build_server_flight(chain, codec, r);
      got.emplace_back("server_flight " + x509::to_string(pq) +
                           (codec != nullptr ? " brotli" : ""),
                       fingerprint({flight.server_hello, flight.handshake},
                                   r));
    }
  }
  const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
      {"client_hello", 0x4e1841f16455b00bULL},
      {"client_hello_compression", 0x7e5f12f3880a05e1ULL},
      {"server_hello", 0x2e7fda52446519daULL},
      {"encrypted_extensions", 0x45acc76e0a4693b6ULL},
      {"finished", 0xab7d1240ac533fafULL},
      {"certificate_verify RSA-2048", 0x482c77ca153026a0ULL},
      {"certificate_verify RSA-4096", 0x7627d8bdf0e09afeULL},
      {"certificate_verify ECDSA-P256", 0x92856de2845a8ba5ULL},
      {"certificate_verify ECDSA-P384", 0xf01dc61f7831c3a4ULL},
      {"certificate_verify ML-DSA-44", 0xfebcb0f86a00f5bbULL},
      {"certificate_verify ML-DSA-65", 0xfebcb0f86a00f5bbULL},
      {"certificate_verify ML-DSA-87", 0xfebcb0f86a00f5bbULL},
      {"server_flight classical", 0x38bf15c6b2d7a334ULL},
      {"server_flight classical brotli", 0x644651006b8b416eULL},
      {"server_flight pqc_full", 0x71cfcabe59f80969ULL},
      {"server_flight pqc_full brotli", 0xb55c9002e600862aULL}};
  ASSERT_EQ(got.size(), pinned.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, pinned[i].first);
    EXPECT_EQ(got[i].second, pinned[i].second)
        << got[i].first << " is now " << hex(got[i].second);
  }
}

}  // namespace
}  // namespace certquic::tls
