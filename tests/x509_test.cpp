// Unit and property tests for the X.509 certificate model.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "asn1/der.hpp"
#include "der_encode.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "x509/certificate.hpp"
#include "x509/chain.hpp"
#include "x509/extensions.hpp"
#include "x509/oids.hpp"

namespace certquic::x509 {
namespace {

certificate make_leaf(rng& r, key_algorithm key = key_algorithm::ecdsa_p256,
                      signature_algorithm sig =
                          signature_algorithm::sha256_rsa_2048,
                      std::vector<dns_name> sans = {{"", "example.org"},
                                                    {"www", "example.org"}}) {
  const auto issuer = name_ref::org("US", "Example CA", "Example CA R1");
  const auto subject = name_ref::common_name("example.org");
  const certificate_spec spec{.issuer = issuer,
                              .subject = subject,
                              .valid = {},
                              .key_alg = key,
                              .sig_alg = sig};
  return certificate{spec, r, [&](asn1::der_writer& w) {
                       write_basic_constraints(w, false);
                       write_key_usage(w, 0x80);
                       write_ext_key_usage(w);
                       write_subject_key_id(w, r);
                       write_authority_key_id(w, bytes(20, 0xab));
                       write_subject_alt_name(w, sans);
                       write_certificate_policies(w, false,
                                                  "http://cps.example.com");
                       write_authority_info_access(
                           w, "http://ocsp.example.com",
                           "http://ca.example.com/r1.crt");
                       write_crl_distribution_points(
                           w, "http://crl.example.com/r1.crl");
                       write_sct_list(w, 2, r);
                     }};
}

certificate make_ca(rng& r, const std::string& cn,
                    key_algorithm key = key_algorithm::rsa_2048,
                    bool self_signed = false) {
  const std::string issuer_cn = self_signed ? cn : "Example Root";
  const auto issuer = name_ref::org("US", "Example Trust", issuer_cn);
  const auto subject = name_ref::org("US", "Example Trust", cn);
  const certificate_spec spec{.issuer = issuer,
                              .subject = subject,
                              .valid = {},
                              .key_alg = key,
                              .sig_alg = signature_algorithm::sha256_rsa_4096};
  return certificate{spec, r, [&](asn1::der_writer& w) {
                       write_basic_constraints(w, true, 0);
                       write_key_usage(w, 0x06);
                       write_subject_key_id(w, r);
                     }};
}

/// One shared parent list.
std::shared_ptr<const parent_list> shared(parent_list parents) {
  return std::make_shared<const parent_list>(std::move(parents));
}

/// A self-signed root with only basicConstraints.
certificate make_root(rng& r) {
  const auto name = name_ref::org("US", "T", "Root X");
  return certificate{{.issuer = name,
                      .subject = name,
                      .valid = {},
                      .key_alg = key_algorithm::ecdsa_p256,
                      .sig_alg = signature_algorithm::ecdsa_sha256},
                     r,
                     [](asn1::der_writer& w) {
                       write_basic_constraints(w, true);
                     }};
}

/// The one Extension TLV `write` appends, read back.
template <typename Write>
struct written_extension {
  bytes der;
  extension ext;

  explicit written_extension(Write&& write)
      : der(test::encode(std::forward<Write>(write))) {
    buffer_reader r{der};
    ext = read_extension(r);
    EXPECT_TRUE(r.empty());
  }
};

/// The Name `name` encodes.
bytes encoded(const name_ref& name) {
  return test::encode([&](asn1::der_writer& w) { name.encode(w); });
}

TEST(DistinguishedName, EncodeAndRender) {
  const bytes der = encoded(name_ref::org("US", "Let's Encrypt", "R3"));
  EXPECT_EQ(der[0], 0x30);
  // C(13) + O(~24) + CN(~9) + header: spot-check a plausible size window.
  EXPECT_GT(der.size(), 30u);
  EXPECT_LT(der.size(), 70u);
  const distinguished_name dn = distinguished_name::decode(der);
  EXPECT_EQ(dn.to_string(), "C=US, O=Let's Encrypt, CN=R3");
  EXPECT_EQ(dn.common_name(), "R3");
  // C is a PrintableString; O and CN are UTF8Strings.
  ASSERT_EQ(dn.parts().size(), 3u);
  EXPECT_TRUE(dn.parts()[0].printable);
  EXPECT_FALSE(dn.parts()[1].printable);
  EXPECT_FALSE(dn.parts()[2].printable);
}

TEST(DistinguishedName, EqualityIsStructural) {
  const auto read = [](std::string_view cn) {
    return distinguished_name::decode(encoded(name_ref::common_name(cn)));
  };
  const auto a = read("x");
  const auto b = read("x");
  const auto c = read("y");
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(DistinguishedName, DecodeReadsTheEncodingBack) {
  const distinguished_name cn = distinguished_name::decode(
      encoded(name_ref::common_name("www.example.org")));
  EXPECT_EQ(cn.to_string(), "CN=www.example.org");
  ASSERT_EQ(cn.parts().size(), 1u);
  EXPECT_FALSE(cn.parts()[0].printable);
  // A Name composed from pieces is the Name of the whole values.
  const bytes whole = encoded(name_ref::org("US", "Let's Encrypt", "R3"));
  EXPECT_EQ(
      encoded(name_ref::org("US", {"Let's", " ", "Encrypt"}, {"R", "3"})),
      whole);
  EXPECT_EQ(encoded(name_ref{whole}), whole);
  EXPECT_EQ(distinguished_name::decode(whole).common_name(), "R3");
}

TEST(DistinguishedName, DecodeRejectsUnknownAttributesAndTrailingBytes) {
  // SEQUENCE { SET { SEQUENCE { OID 2.5.4.99, UTF8String "x" } } }.
  const bytes unknown = {0x30, 0x0c, 0x31, 0x0a, 0x30, 0x08, 0x06,
                         0x03, 0x55, 0x04, 0x63, 0x0c, 0x01, 0x78};
  EXPECT_THROW((void)distinguished_name::decode(unknown), codec_error);
  bytes trailing = encoded(name_ref::common_name("x"));
  trailing.push_back(0);
  EXPECT_THROW((void)distinguished_name::decode(trailing), codec_error);
}

TEST(Key, SpkiSizesMatchRealWorld) {
  rng r{1};
  const auto spki_size = [&](key_algorithm a) {
    return test::encode([&](asn1::der_writer& w) { encode_spki(w, a, r); })
        .size();
  };
  // Real-world DER sizes: RSA-2048 SPKI = 294 B, RSA-4096 = 550 B,
  // P-256 = 91 B, P-384 = 120 B.
  EXPECT_EQ(spki_size(key_algorithm::rsa_2048), 294u);
  EXPECT_EQ(spki_size(key_algorithm::rsa_4096), 550u);
  EXPECT_EQ(spki_size(key_algorithm::ecdsa_p256), 91u);
  EXPECT_EQ(spki_size(key_algorithm::ecdsa_p384), 120u);
  // ML-DSA (FIPS 204): a 13-byte parameterless AlgorithmIdentifier and
  // the raw 1312/1952/2592-byte public key in a BIT STRING.
  EXPECT_EQ(spki_size(key_algorithm::mldsa_44), 1334u);
  EXPECT_EQ(spki_size(key_algorithm::mldsa_65), 1974u);
  EXPECT_EQ(spki_size(key_algorithm::mldsa_87), 2614u);
}

TEST(Key, SignatureSizesMatchRealWorld) {
  rng r{2};
  const auto signature_size = [&](signature_algorithm a) {
    return test::encode(
               [&](asn1::der_writer& w) { encode_signature_value(w, a, r); })
        .size();
  };
  EXPECT_EQ(signature_size(signature_algorithm::sha256_rsa_2048),
            261u);  // 256 + BIT STRING framing
  EXPECT_EQ(signature_size(signature_algorithm::sha256_rsa_4096), 517u);
  // ECDSA signatures jitter by the r/s sign octets: P-256 in [70, 74],
  // P-384 in [102, 106] including framing.
  for (int i = 0; i < 50; ++i) {
    const auto p256 = signature_size(signature_algorithm::ecdsa_sha256);
    EXPECT_GE(p256, 70u);
    EXPECT_LE(p256, 77u);
    const auto p384 = signature_size(signature_algorithm::ecdsa_sha384);
    EXPECT_GE(p384, 102u);
    EXPECT_LE(p384, 109u);
  }
  // ML-DSA signatures are fixed 2420/3309/4627-byte strings (FIPS 204).
  EXPECT_EQ(signature_size(signature_algorithm::mldsa_44), 2425u);
  EXPECT_EQ(signature_size(signature_algorithm::mldsa_65), 3314u);
  EXPECT_EQ(signature_size(signature_algorithm::mldsa_87), 4632u);
}

TEST(Key, SignatureByIssuerKey) {
  // Every issuer key, the signature it produces, and both names.
  struct row {
    key_algorithm key;
    signature_algorithm sig;
    const char* key_name;
    const char* sig_name;
  };
  const row rows[] = {
      {key_algorithm::rsa_2048, signature_algorithm::sha256_rsa_2048,
       "RSA-2048", "sha256WithRSA(2048)"},
      {key_algorithm::rsa_4096, signature_algorithm::sha256_rsa_4096,
       "RSA-4096", "sha256WithRSA(4096)"},
      {key_algorithm::ecdsa_p256, signature_algorithm::ecdsa_sha256,
       "ECDSA-P256", "ecdsa-with-SHA256"},
      {key_algorithm::ecdsa_p384, signature_algorithm::ecdsa_sha384,
       "ECDSA-P384", "ecdsa-with-SHA384"},
      {key_algorithm::mldsa_44, signature_algorithm::mldsa_44, "ML-DSA-44",
       "ML-DSA-44"},
      {key_algorithm::mldsa_65, signature_algorithm::mldsa_65, "ML-DSA-65",
       "ML-DSA-65"},
      {key_algorithm::mldsa_87, signature_algorithm::mldsa_87, "ML-DSA-87",
       "ML-DSA-87"},
  };
  for (const row& r : rows) {
    SCOPED_TRACE(r.key_name);
    EXPECT_EQ(signature_by(r.key), r.sig);
    EXPECT_EQ(to_string(r.key), r.key_name);
    EXPECT_EQ(to_string(r.sig), r.sig_name);
  }
  // A value outside either enum is a configuration error everywhere.
  const auto bad_key = static_cast<key_algorithm>(std::size(rows));
  const auto bad_sig = static_cast<signature_algorithm>(std::size(rows));
  rng r{3};
  asn1::der_writer w;
  EXPECT_THROW((void)signature_by(bad_key), config_error);
  EXPECT_THROW((void)to_string(bad_key), config_error);
  EXPECT_THROW((void)to_string(bad_sig), config_error);
  EXPECT_THROW(encode_spki(w, bad_key, r), config_error);
  EXPECT_THROW(encode_signature_algorithm(w, bad_sig), config_error);
  EXPECT_THROW(encode_signature_value(w, bad_sig, r), config_error);
}

TEST(Extensions, SubjectAltNameRoundTrip) {
  const std::vector<dns_name> names = {
      {"", "a.example"}, {"*", "b.example"}, {"c", "example"}};
  const written_extension san{
      [&](asn1::der_writer& w) { write_subject_alt_name(w, names); }};
  EXPECT_EQ(parse_subject_alt_name(san.ext),
            (std::vector<std::string>{"a.example", "*.b.example",
                                      "c.example"}));
  EXPECT_FALSE(san.ext.critical);
  EXPECT_TRUE(san.ext.is(oids::subject_alt_name));
}

TEST(Extensions, ParseRejectsAnotherExtension) {
  const written_extension ku{
      [](asn1::der_writer& w) { write_key_usage(w, 0x80); }};
  EXPECT_THROW((void)parse_subject_alt_name(ku.ext), codec_error);
}

template <typename Write>
std::size_t encoded_size(Write&& write) {
  return test::encode(std::forward<Write>(write)).size();
}

TEST(Extensions, SanSizeGrowsWithNames) {
  std::vector<dns_name> names;
  const std::size_t empty_ish = encoded_size([](asn1::der_writer& w) {
    write_subject_alt_name(w, {{"", "x.example"}});
  });
  for (int i = 0; i < 50; ++i) {
    names.push_back({"host" + std::to_string(i), "example.com"});
  }
  const std::size_t big = encoded_size(
      [&](asn1::der_writer& w) { write_subject_alt_name(w, names); });
  EXPECT_GT(big, empty_ish + 45 * 20);
}

TEST(Extensions, BasicConstraintsDistinguishesCa) {
  const written_extension ca{
      [](asn1::der_writer& w) { write_basic_constraints(w, true, 0); }};
  const written_extension leaf{
      [](asn1::der_writer& w) { write_basic_constraints(w, false); }};
  EXPECT_GT(ca.ext.value.size(), leaf.ext.value.size());
  EXPECT_TRUE(ca.ext.critical);
  EXPECT_TRUE(ca.ext.is(oids::basic_constraints));
}

TEST(Extensions, SctListSizeScalesWithCount) {
  rng r{3};
  const auto two =
      encoded_size([&](asn1::der_writer& w) { write_sct_list(w, 2, r); });
  const auto three =
      encoded_size([&](asn1::der_writer& w) { write_sct_list(w, 3, r); });
  // 119-byte SCT + 2-byte length prefix, plus up to two DER length-form
  // promotions (OCTET STRING and Extension SEQUENCE crossing 255 bytes).
  EXPECT_GE(three - two, 121u);
  EXPECT_LE(three - two, 123u);
}

TEST(Extensions, ReadRejectsMalformedExtensions) {
  // An INTEGER where the Extension SEQUENCE belongs, then a SEQUENCE
  // with an extnID but no extnValue.
  for (const bytes& der : {bytes{0x02, 0x01, 0x00},
                           bytes{0x30, 0x05, 0x06, 0x03, 0x55, 0x1d, 0x11}}) {
    buffer_reader r{der};
    EXPECT_THROW((void)read_extension(r), codec_error);
  }
}

TEST(Certificate, EncodesRealisticLeafSize) {
  rng r{4};
  const certificate leaf = make_leaf(r);
  // A DV ECDSA leaf with 2 SANs and 2 SCTs is ~1.0-1.3 kB in the wild.
  EXPECT_GT(leaf.size(), 900u);
  EXPECT_LT(leaf.size(), 1400u);
  EXPECT_FALSE(leaf.is_ca());
  EXPECT_FALSE(leaf.self_signed());
}

TEST(Certificate, FieldSizesSumToTotal) {
  rng r{5};
  const certificate leaf = make_leaf(r);
  const field_sizes& s = leaf.sizes();
  EXPECT_EQ(s.total, leaf.der().size());
  EXPECT_GT(s.other(), 0u);
  EXPECT_EQ(s.subject + s.issuer + s.public_key_info + s.extensions +
                s.signature + s.other(),
            s.total);
}

TEST(Certificate, DerParsesAsThreeElementSequence) {
  rng r{6};
  const certificate leaf = make_leaf(r);
  buffer_reader reader{leaf.der()};
  const asn1::tlv outer = asn1::read_tlv(reader);
  EXPECT_TRUE(outer.is(asn1::tag::sequence));
  EXPECT_TRUE(reader.empty());
  const auto kids = asn1::children(outer);
  ASSERT_EQ(kids.size(), 3u);          // tbs, sigAlg, signature
  EXPECT_TRUE(kids[0].is(asn1::tag::sequence));
  EXPECT_TRUE(kids[1].is(asn1::tag::sequence));
  EXPECT_TRUE(kids[2].is(asn1::tag::bit_string));
}

/// Every TLV in `content`, each with its full encoded size.
std::vector<std::pair<asn1::tlv, std::size_t>> sized_children(
    bytes_view content) {
  std::vector<std::pair<asn1::tlv, std::size_t>> out;
  buffer_reader r{content};
  while (!r.empty()) {
    const std::size_t before = r.remaining();
    const asn1::tlv t = asn1::read_tlv(r);
    out.emplace_back(t, before - r.remaining());
  }
  return out;
}

TEST(Certificate, FieldSizesMatchTheParsedElements) {
  // The writer measures fields by offset while it encodes; the parsed
  // DER must agree element by element, for a short-form-heavy ECDSA leaf
  // and a long-form-heavy RSA-4096 CA.
  rng r{11};
  for (const certificate& cert :
       {make_leaf(r), make_ca(r, "Example Sub CA", key_algorithm::rsa_4096)}) {
    buffer_reader reader{cert.der()};
    const auto outer = sized_children(asn1::read_tlv(reader).content);
    ASSERT_EQ(outer.size(), 3u);
    const auto tbs = sized_children(outer[0].first.content);
    ASSERT_EQ(tbs.size(), 8u);  // version .. [3] extensions
    const field_sizes& s = cert.sizes();
    EXPECT_EQ(s.issuer, tbs[3].second);
    EXPECT_EQ(s.subject, tbs[5].second);
    EXPECT_EQ(s.public_key_info, tbs[6].second);
    EXPECT_EQ(s.extensions, tbs[7].first.content.size());  // the SEQUENCE
    std::size_t san = 0;
    for (const auto& [ext, size] :
         sized_children(asn1::children(tbs[7].first)[0].content)) {
      if (asn1::oid{asn1::decode_oid(asn1::children(ext)[0])} ==
          oids::subject_alt_name) {
        san += size;
      }
    }
    EXPECT_EQ(cert.san_bytes(), san);
    EXPECT_EQ(s.signature, outer[2].second);
    EXPECT_EQ(s.total, cert.der().size());
    // The DER is one allocation of exactly its size.
    EXPECT_EQ(cert.der().capacity(), cert.der().size());
  }
}

TEST(Certificate, NamesViewTheirEncoding) {
  rng r{14};
  const certificate leaf = make_leaf(r);
  EXPECT_EQ(distinguished_name::decode(leaf.issuer()).to_string(),
            "C=US, O=Example CA, CN=Example CA R1");
  EXPECT_EQ(distinguished_name::decode(leaf.subject()).to_string(),
            "CN=example.org");
  EXPECT_EQ(leaf.describe(), "CN=example.org (ECDSA-P256, " +
                                 std::to_string(leaf.size()) + "B)");
}

TEST(Certificate, EncodedIssuerWritesTheSameBytes) {
  // A leaf issued from its parent's encoded subject is byte-identical
  // to one issued from the parent's name given by its values.
  rng r{15};
  const certificate parent = make_ca(r, "Example Sub CA");
  const auto subject = name_ref::common_name("example.org");
  const auto issue = [&](name_ref issuer) {
    rng leaf_rng{16};
    return certificate{{.issuer = issuer,
                        .subject = subject,
                        .valid = {},
                        .key_alg = key_algorithm::ecdsa_p256,
                        .sig_alg = signature_algorithm::ecdsa_sha256},
                       leaf_rng,
                       [&](asn1::der_writer& w) {
                         write_basic_constraints(w, false);
                         write_subject_key_id(w, leaf_rng);
                       }};
  };
  const certificate from_der = issue(parent.subject());
  const auto parent_dn =
      name_ref::org("US", "Example Trust", "Example Sub CA");
  const certificate from_dn = issue(parent_dn);
  EXPECT_EQ(from_der.der(), from_dn.der());
  EXPECT_TRUE(std::ranges::equal(from_der.issuer(), parent.subject()));
  EXPECT_EQ(from_der.serial(), from_dn.serial());
}

TEST(Certificate, RsaLeafLargerThanEcdsaLeaf) {
  rng r{7};
  const certificate ec = make_leaf(r, key_algorithm::ecdsa_p256);
  const certificate rsa = make_leaf(r, key_algorithm::rsa_2048,
                                    signature_algorithm::sha256_rsa_2048);
  EXPECT_GT(rsa.size(), ec.size() + 150);
}

TEST(Certificate, SanBytesTracked) {
  rng r{8};
  const certificate leaf = make_leaf(r);
  EXPECT_GT(leaf.san_bytes(), 0u);
  EXPECT_LT(leaf.san_bytes(), leaf.size());
  EXPECT_EQ(leaf.subject_alt_names().size(), 2u);
}

TEST(Certificate, CaAndSelfSignedDetection) {
  rng r{9};
  const certificate ca = make_ca(r, "Example Root", key_algorithm::rsa_4096,
                                 /*self_signed=*/false);
  EXPECT_TRUE(ca.is_ca());
  const certificate root = make_root(r);
  EXPECT_TRUE(root.self_signed());
  EXPECT_TRUE(root.is_ca());
}

TEST(Certificate, SerialIsPositiveAnd16Bytes) {
  rng r{10};
  for (int i = 0; i < 20; ++i) {
    const certificate leaf = make_leaf(r);
    EXPECT_EQ(leaf.serial().size(), 16u);
    EXPECT_EQ(leaf.serial()[0] & 0x80, 0);
  }
}

TEST(Chain, SizesAndDepth) {
  rng r{11};
  auto inter = std::make_shared<const certificate>(make_ca(r, "CA 1"));
  auto root = std::make_shared<const certificate>(
      make_ca(r, "Root", key_algorithm::rsa_4096));
  auto leaf = std::make_shared<const certificate>(make_leaf(r));
  const std::size_t leaf_size = leaf->size();
  const chain c{leaf, shared({inter, root})};
  EXPECT_EQ(c.depth(), 3u);
  EXPECT_EQ(c.wire_size(), leaf_size + inter->size() + root->size());
  EXPECT_EQ(c.parent_wire_size(), inter->size() + root->size());
  EXPECT_EQ(c.concatenated_der().size(), c.wire_size());
}

TEST(Chain, EmptyChainBehaviour) {
  const chain c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.wire_size(), 0u);
  EXPECT_THROW((void)c.leaf(), config_error);
}

TEST(Chain, DetectsTrustAnchorInclusion) {
  rng r{12};
  auto root = std::make_shared<const certificate>(make_root(r));
  auto inter = std::make_shared<const certificate>(make_ca(r, "CA 2"));

  const chain with_anchor{std::make_shared<const certificate>(make_leaf(r)),
                          shared({inter, root})};
  EXPECT_TRUE(with_anchor.includes_trust_anchor());
  const chain without{std::make_shared<const certificate>(make_leaf(r)),
                      shared({inter})};
  EXPECT_FALSE(without.includes_trust_anchor());
}

TEST(Chain, SharedParentsReuseBytes) {
  rng r{13};
  auto inter = std::make_shared<const certificate>(make_ca(r, "Shared CA"));
  const auto list = shared({inter});
  const chain a{std::make_shared<const certificate>(make_leaf(r)), list};
  const chain b{std::make_shared<const certificate>(make_leaf(r)), list};
  EXPECT_EQ(&a.parents(), &b.parents());
  EXPECT_EQ(a.parents()[0].get(), b.parents()[0].get());
}

// Property sweep: every (key, signature) combination encodes, parses and
// accounts sizes consistently.
struct AlgCase {
  key_algorithm key;
  signature_algorithm sig;
};

class CertificateAlgSweep : public ::testing::TestWithParam<AlgCase> {};

TEST_P(CertificateAlgSweep, EncodesAndAccounts) {
  rng r{977};
  const auto& param = GetParam();
  const certificate leaf = make_leaf(r, param.key, param.sig);
  EXPECT_EQ(leaf.sizes().total, leaf.size());
  // SPKI sizes must match the algorithm exactly.
  const std::size_t expected_spki =
      param.key == key_algorithm::rsa_2048     ? 294u
      : param.key == key_algorithm::rsa_4096   ? 550u
      : param.key == key_algorithm::ecdsa_p256 ? 91u
                                               : 120u;
  EXPECT_EQ(leaf.sizes().public_key_info, expected_spki);
  buffer_reader reader{leaf.der()};
  EXPECT_NO_THROW((void)asn1::read_tlv(reader));
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, CertificateAlgSweep,
    ::testing::Values(
        AlgCase{key_algorithm::rsa_2048, signature_algorithm::sha256_rsa_2048},
        AlgCase{key_algorithm::rsa_2048, signature_algorithm::sha256_rsa_4096},
        AlgCase{key_algorithm::rsa_4096, signature_algorithm::sha256_rsa_2048},
        AlgCase{key_algorithm::ecdsa_p256, signature_algorithm::ecdsa_sha256},
        AlgCase{key_algorithm::ecdsa_p256,
                signature_algorithm::sha256_rsa_2048},
        AlgCase{key_algorithm::ecdsa_p384, signature_algorithm::ecdsa_sha384}));

}  // namespace
}  // namespace certquic::x509
