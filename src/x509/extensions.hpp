// X.509v3 extension model and builders for the extensions that dominate
// real-world certificate sizes (Fig. 2 of the paper).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asn1/der.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace certquic::x509 {

/// One certificate extension. `id` points into the static table of
/// x509/oids.hpp; `value` holds the DER inside the extnValue OCTET
/// STRING; `encode()` produces the full Extension SEQUENCE.
struct extension {
  const asn1::oid* id = nullptr;
  bool critical = false;
  bytes value;

  /// Extension ::= SEQUENCE { extnID, critical BOOLEAN DEFAULT FALSE,
  ///                          extnValue OCTET STRING }, written into `w`.
  void encode(asn1::der_writer& w) const;
};

/// A URI given as the concatenation of up to three pieces, e.g.
/// {"http://", host, "/cps"}: issuance names a CA's URLs from its host
/// without building a string per certificate. Empty means "omit". It
/// views its pieces, which must outlive the builder call.
struct uri {
  std::string_view prefix;
  std::string_view host;
  std::string_view suffix;

  uri() = default;
  uri(const char* whole) : prefix(whole) {}
  uri(const std::string& whole) : prefix(whole) {}
  uri(std::string_view p, std::string_view h, std::string_view s = {})
      : prefix(p), host(h), suffix(s) {}

  [[nodiscard]] std::size_t size() const noexcept {
    return prefix.size() + host.size() + suffix.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
};

/// One dNSName of a subjectAltName: `label + "." + parent`, or just
/// `parent` when the label is empty. Random labels fit the small-string
/// buffer, and the parent is the domain the caller already holds.
struct dns_name {
  std::string label;
  std::string_view parent;
};

// --- Builders -------------------------------------------------------------

/// basicConstraints; CA certificates set `is_ca` (critical).
[[nodiscard]] extension make_basic_constraints(
    bool is_ca, std::optional<int> path_len = std::nullopt);

/// keyUsage bit string; pass X.509 bit flags (digitalSignature = 0x80,
/// keyCertSign = 0x04, cRLSign = 0x02, keyEncipherment = 0x20).
[[nodiscard]] extension make_key_usage(std::uint8_t bits);

/// extKeyUsage with serverAuth (+clientAuth when `client_auth`).
[[nodiscard]] extension make_ext_key_usage(bool client_auth = true);

/// subjectKeyIdentifier with a random 20-byte key id.
[[nodiscard]] extension make_subject_key_id(rng& r);

/// authorityKeyIdentifier referencing a 20-byte issuer key id.
[[nodiscard]] extension make_authority_key_id(bytes_view issuer_key_id);

/// subjectAltName with the given DNS names.
[[nodiscard]] extension make_subject_alt_name(
    const std::vector<dns_name>& dns_names);

/// authorityInfoAccess with OCSP and/or caIssuers URLs (empty = omit).
[[nodiscard]] extension make_authority_info_access(uri ocsp_url,
                                                   uri ca_issuers_url);

/// cRLDistributionPoints with one URL.
[[nodiscard]] extension make_crl_distribution_points(uri url);

/// certificatePolicies with a DV/OV policy and optional CPS URI.
[[nodiscard]] extension make_certificate_policies(bool organization_validated,
                                                  uri cps_uri);

/// Embedded signed-certificate-timestamp list with `count` synthetic
/// SCTs of realistic size (~119 bytes each); leaf certificates from
/// public CAs typically embed 2-3.
[[nodiscard]] extension make_sct_list(std::size_t count, rng& r);

/// Parses the dns names back out of a subjectAltName value (used by
/// tests and by the SAN-share analysis of Fig. 14).
[[nodiscard]] std::vector<std::string> parse_subject_alt_name(
    const extension& ext);

/// The fixed 32-byte id of CT log `index % 8`, from a table built once;
/// exposed so the compression-dictionary builder can include the
/// well-known log ids.
[[nodiscard]] bytes_view well_known_log_id(std::size_t index);

}  // namespace certquic::x509
