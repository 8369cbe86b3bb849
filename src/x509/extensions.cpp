#include "x509/extensions.hpp"

#include <algorithm>
#include <array>

#include "util/errors.hpp"
#include "x509/oids.hpp"

namespace certquic::x509 {
namespace {

/// Writes Extension ::= SEQUENCE { extnID, critical, extnValue } with
/// the value `write` encodes straight into the extnValue OCTET STRING.
template <typename Write>
void write_extension(asn1::der_writer& w, const asn1::oid& id, bool critical,
                     Write&& write) {
  w.open(asn1::tag::sequence);
  w.oid(id);
  if (critical) {
    w.boolean(true);
  }
  w.open(asn1::tag::octet_string);
  write();
  w.close();
  w.close();
}

/// GeneralName uniformResourceIdentifier: [6] IMPLICIT IA5String.
void general_uri(asn1::der_writer& w, const pieces& url) {
  url.encode(w, asn1::context_tag(6, /*constructed=*/false));
}

}  // namespace

bool extension::is(const asn1::oid& o) const noexcept {
  return std::ranges::equal(id, o.der());
}

extension read_extension(buffer_reader& r) {
  const asn1::tlv whole = asn1::read_tlv(r);
  if (!whole.is(asn1::tag::sequence)) {
    throw codec_error("Extension is not a SEQUENCE");
  }
  buffer_reader fields{whole.content};
  extension out;
  if (!asn1::read_tlv(fields).is(asn1::tag::object_identifier)) {
    throw codec_error("Extension has no extnID");
  }
  out.id = whole.content.first(whole.content.size() - fields.remaining());
  asn1::tlv next = asn1::read_tlv(fields);
  if (next.is(asn1::tag::boolean)) {
    out.critical = next.content.size() == 1 && next.content[0] != 0;
    next = asn1::read_tlv(fields);
  }
  if (!next.is(asn1::tag::octet_string) || !fields.empty()) {
    throw codec_error("Extension has no extnValue");
  }
  out.value = next.content;
  return out;
}

void write_basic_constraints(asn1::der_writer& w, bool is_ca,
                             std::optional<int> path_len) {
  write_extension(w, oids::basic_constraints, /*critical=*/true, [&] {
    w.open(asn1::tag::sequence);
    if (is_ca) {
      w.boolean(true);
      if (path_len) {
        w.integer(*path_len);
      }
    }
    w.close();
  });
}

void write_key_usage(asn1::der_writer& w, std::uint8_t bits) {
  // KeyUsage is a BIT STRING; X.509 uses up to 9 bits, we model the
  // common single-octet form.
  int unused = 0;
  std::uint8_t probe = bits;
  if (probe == 0) {
    unused = 8;
  } else {
    while ((probe & 0x01) == 0) {
      probe = static_cast<std::uint8_t>(probe >> 1);
      ++unused;
    }
  }
  write_extension(w, oids::key_usage, /*critical=*/true, [&] {
    w.bit_string({&bits, 1}, static_cast<std::uint8_t>(unused));
  });
}

void write_ext_key_usage(asn1::der_writer& w, bool client_auth) {
  write_extension(w, oids::ext_key_usage, /*critical=*/false, [&] {
    w.open(asn1::tag::sequence);
    w.oid(oids::eku_server_auth);
    if (client_auth) {
      w.oid(oids::eku_client_auth);
    }
    w.close();
  });
}

void write_subject_key_id(asn1::der_writer& w, rng& r) {
  write_extension(w, oids::subject_key_identifier, /*critical=*/false, [&] {
    w.header(asn1::tag::octet_string, 20);
    r.fill({w.append(20), 20});
  });
}

void write_authority_key_id(asn1::der_writer& w, bytes_view issuer_key_id) {
  // AuthorityKeyIdentifier ::= SEQUENCE { keyIdentifier [0] IMPLICIT ... }.
  write_extension(w, oids::authority_key_identifier, /*critical=*/false, [&] {
    w.open(asn1::tag::sequence);
    w.tlv(asn1::context_tag(0, /*constructed=*/false), issuer_key_id);
    w.close();
  });
}

void write_subject_alt_name(asn1::der_writer& w,
                            const std::vector<dns_name>& dns_names) {
  write_extension(w, oids::subject_alt_name, /*critical=*/false, [&] {
    w.open(asn1::tag::sequence);
    for (const auto& name : dns_names) {
      // GeneralName dNSName is [2] IMPLICIT IA5String.
      (name.label.empty() ? pieces{name.parent, {}}
                          : pieces{name.label, ".", name.parent})
          .encode(w, asn1::context_tag(2, /*constructed=*/false));
    }
    w.close();
  });
}

void write_authority_info_access(asn1::der_writer& w, pieces ocsp_url,
                                 pieces ca_issuers_url) {
  write_extension(w, oids::authority_info_access, /*critical=*/false, [&] {
    auto access = [&w](const asn1::oid& method, const pieces& url) {
      w.open(asn1::tag::sequence);
      w.oid(method);
      general_uri(w, url);
      w.close();
    };
    w.open(asn1::tag::sequence);
    if (!ocsp_url.empty()) {
      access(oids::aia_ocsp, ocsp_url);
    }
    if (!ca_issuers_url.empty()) {
      access(oids::aia_ca_issuers, ca_issuers_url);
    }
    w.close();
  });
}

void write_crl_distribution_points(asn1::der_writer& w, pieces url) {
  // DistributionPoint ::= SEQUENCE { distributionPoint [0] { fullName [0]
  //   GeneralNames } } — two nested context tags around the URI.
  write_extension(w, oids::crl_distribution_points, /*critical=*/false, [&] {
    w.open(asn1::tag::sequence);
    w.open(asn1::tag::sequence);
    w.open(asn1::context_tag(0));
    w.open(asn1::context_tag(0));
    general_uri(w, url);
    w.close();
    w.close();
    w.close();
    w.close();
  });
}

void write_certificate_policies(asn1::der_writer& w,
                                bool organization_validated, pieces cps_uri) {
  write_extension(w, oids::certificate_policies, /*critical=*/false, [&] {
    w.open(asn1::tag::sequence);
    w.open(asn1::tag::sequence);  // PolicyInformation
    w.oid(organization_validated
              ? oids::policy_organization_validated
              : oids::policy_domain_validated);
    if (!cps_uri.empty()) {
      w.open(asn1::tag::sequence);
      w.open(asn1::tag::sequence);
      w.oid(oids::policy_cps);
      cps_uri.encode(w, static_cast<std::uint8_t>(asn1::tag::ia5_string));
      w.close();
      w.close();
    }
    w.close();
    w.close();
  });
}

bytes_view well_known_log_id(std::size_t index) {
  // A fixed set of CT log identities stands in for the real public logs
  // (Google Argon/Xenon, Cloudflare Nimbus, DigiCert Yeti, ...). Keeping
  // them constant matters for the compression study: log ids repeat
  // across the whole corpus and are dictionary-compressible, exactly as
  // in real chains.
  using log_id = std::array<std::uint8_t, 32>;
  static const std::array<log_id, 8> table = [] {
    std::array<log_id, 8> ids{};
    for (std::uint64_t i = 0; i < ids.size(); ++i) {
      rng log_rng{0x1070'0000 + i};
      log_rng.fill(ids[i]);
    }
    return ids;
  }();
  return table[index % table.size()];
}

void write_sct_list(asn1::der_writer& w, std::size_t count, rng& r) {
  // RFC 6962 SignedCertificateTimestampList inside an OCTET STRING:
  // a 2-byte list length, then per SCT a 2-byte length + 119 bytes
  // (version + 32-byte log id + timestamp + ECDSA signature).
  constexpr std::size_t kSct = 1 + 32 + 86;
  write_extension(w, oids::sct_list, /*critical=*/false, [&] {
    const std::size_t list = count * (2 + kSct);
    w.header(asn1::tag::octet_string, 2 + list);
    w.u8(static_cast<std::uint8_t>(list >> 8));
    w.u8(static_cast<std::uint8_t>(list));
    for (std::size_t i = 0; i < count; ++i) {
      std::uint8_t* sct = w.append(2 + kSct);
      sct[0] = static_cast<std::uint8_t>(kSct >> 8);
      sct[1] = static_cast<std::uint8_t>(kSct);
      sct[2] = 0;  // version v1
      const bytes_view log_id = well_known_log_id(r.uniform(0, 7));
      std::copy(log_id.begin(), log_id.end(), sct + 3);
      // Timestamp + ECDSA signature.
      r.fill({sct + 3 + log_id.size(), kSct - 1 - log_id.size()});
    }
  });
}

std::vector<std::string> parse_subject_alt_name(const extension& ext) {
  if (!ext.is(oids::subject_alt_name)) {
    throw codec_error("extension is not subjectAltName");
  }
  buffer_reader r{ext.value};
  const asn1::tlv outer = asn1::read_tlv(r);
  std::vector<std::string> names;
  for (const auto& child : asn1::children(outer)) {
    if (child.tag_byte == 0x82) {  // [2] IMPLICIT dNSName
      names.emplace_back(child.content.begin(), child.content.end());
    }
  }
  return names;
}

}  // namespace certquic::x509
