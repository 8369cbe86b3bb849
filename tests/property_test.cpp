// Seeded round-trip property tests for the three wire codecs that every
// other layer builds on: QUIC varints, DER TLVs and the LZ engine behind
// RFC 8879 certificate compression; plus the fail-closed contract of the
// TLS handshake-frame peek on arbitrary bytes. All randomness flows through the
// project rng with fixed seeds (tests/support/property.hpp), so a failure
// reproduces bit-for-bit from its iteration index.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>

#include "asn1/der.hpp"
#include "ca/ecosystem.hpp"
#include "compress/lz.hpp"
#include "der_encode.hpp"
#include "property.hpp"
#include "quic/varint.hpp"
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
    const asn1::oid arcs = test::gen_oid(r);
    const bytes encoded =
        test::encode([&](asn1::der_writer& w) { w.oid(arcs); });
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
          EXPECT_EQ(asn1::decode_oid(alg_kids[0]), c.oid);
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
        EXPECT_LT(sizes[0], sizes[1]) << "iteration " << i << " "
                                      << profile.id;
        EXPECT_LT(sizes[1], sizes[2]) << "iteration " << i << " "
                                      << profile.id;
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

}  // namespace
}  // namespace certquic
