// X.509v3 extension writers for the extensions that dominate real-world
// certificate sizes (Fig. 2 of the paper), and the reader tests and
// certificate facts walk them back with.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asn1/der.hpp"
#include "util/buffer.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "x509/name.hpp"

namespace certquic::x509 {

/// One Extension read back from DER. It views the encoded bytes and
/// owns nothing: issuance writes extensions straight into the
/// certificate's DER, and readers walk them there.
struct extension {
  bytes_view id;  // the extnID OBJECT IDENTIFIER TLV
  bool critical = false;
  bytes_view value;  // the content of the extnValue OCTET STRING

  [[nodiscard]] bool is(const asn1::oid& o) const noexcept;
};

/// Reads one Extension ::= SEQUENCE { extnID, critical BOOLEAN DEFAULT
/// FALSE, extnValue OCTET STRING } from `r`. Throws codec_error on
/// malformed input.
[[nodiscard]] extension read_extension(buffer_reader& r);

/// One dNSName of a subjectAltName: `label + "." + parent`, or just
/// `parent` when the label is empty. Random labels fit the small-string
/// buffer, and the parent is the domain the caller already holds.
struct dns_name {
  std::string label;
  std::string_view parent;
};

// --- Writers ----------------------------------------------------------
// Each appends one complete Extension TLV to `w`, value included, in a
// single pass: no extension value exists outside the writer.

/// basicConstraints; CA certificates set `is_ca` (critical).
void write_basic_constraints(asn1::der_writer& w, bool is_ca,
                             std::optional<int> path_len = std::nullopt);

/// keyUsage bit string; pass X.509 bit flags (digitalSignature = 0x80,
/// keyCertSign = 0x04, cRLSign = 0x02, keyEncipherment = 0x20).
void write_key_usage(asn1::der_writer& w, std::uint8_t bits);

/// extKeyUsage with serverAuth (+clientAuth when `client_auth`).
void write_ext_key_usage(asn1::der_writer& w, bool client_auth = true);

/// subjectKeyIdentifier with a random 20-byte key id.
void write_subject_key_id(asn1::der_writer& w, rng& r);

/// authorityKeyIdentifier referencing a 20-byte issuer key id.
void write_authority_key_id(asn1::der_writer& w, bytes_view issuer_key_id);

/// subjectAltName with the given DNS names.
void write_subject_alt_name(asn1::der_writer& w,
                            const std::vector<dns_name>& dns_names);

/// authorityInfoAccess with OCSP and/or caIssuers URLs (empty = omit).
/// URLs are pieces, e.g. {"http://ocsp.", host}: issuance names a CA's
/// URLs from its host without building a string per certificate.
void write_authority_info_access(asn1::der_writer& w, pieces ocsp_url,
                                 pieces ca_issuers_url);

/// cRLDistributionPoints with one URL.
void write_crl_distribution_points(asn1::der_writer& w, pieces url);

/// certificatePolicies with a DV/OV policy and a CPS URI (empty = omit).
void write_certificate_policies(asn1::der_writer& w,
                                bool organization_validated, pieces cps_uri);

/// Embedded signed-certificate-timestamp list with `count` synthetic
/// SCTs of realistic size (~119 bytes each); leaf certificates from
/// public CAs typically embed 2-3.
void write_sct_list(asn1::der_writer& w, std::size_t count, rng& r);

/// Parses the dns names back out of a subjectAltName (used by tests and
/// by certificate::subject_alt_names). Throws codec_error when `ext` is
/// another extension.
[[nodiscard]] std::vector<std::string> parse_subject_alt_name(
    const extension& ext);

/// The fixed 32-byte id of CT log `index % 8`, from a table built once;
/// exposed so the compression-dictionary builder can include the
/// well-known log ids.
[[nodiscard]] bytes_view well_known_log_id(std::size_t index);

}  // namespace certquic::x509
