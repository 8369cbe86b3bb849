// X.501 distinguished names (issuer / subject fields).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "asn1/der.hpp"
#include "util/bytes.hpp"

namespace certquic::x509 {

/// One relative distinguished name component, e.g. CN=example.org.
/// `attribute` points into the static table of x509/oids.hpp.
struct rdn {
  const asn1::oid* attribute = nullptr;
  std::string value;
  /// PrintableString when true (C=, short names), UTF8String otherwise.
  bool printable = false;
};

/// An ordered distinguished name; encodes as RDNSequence.
class distinguished_name {
 public:
  distinguished_name() = default;
  explicit distinguished_name(std::vector<rdn> parts)
      : parts_(std::move(parts)) {}

  /// Just CN=<common_name>.
  [[nodiscard]] static distinguished_name cn(std::string common_name);
  /// C=<country>, O=<org>, CN=<common_name> — the usual CA layout.
  [[nodiscard]] static distinguished_name org(std::string country,
                                              std::string org_name,
                                              std::string common_name);

  [[nodiscard]] const std::vector<rdn>& parts() const noexcept {
    return parts_;
  }
  [[nodiscard]] bool empty() const noexcept { return parts_.empty(); }

  /// Reads an encoded RDNSequence back. Throws codec_error on malformed
  /// DER or an attribute type outside x509/oids.hpp.
  [[nodiscard]] static distinguished_name decode(bytes_view der);

  /// Returns the CN value or "" when absent.
  [[nodiscard]] std::string common_name() const;

  /// DER RDNSequence encoding, written into `w`.
  void encode(asn1::der_writer& w) const;

  /// Human-readable "C=US, O=Example, CN=example.org".
  [[nodiscard]] std::string to_string() const;

  /// Structural equality (attribute OIDs and values).
  [[nodiscard]] bool operator==(const distinguished_name& other) const;

 private:
  std::vector<rdn> parts_;
};

/// The issuer or subject of a certificate being issued: a
/// distinguished_name to encode, a Name already encoded (a parent
/// certificate's subject), copied verbatim, or CN=<common name> encoded
/// straight from a view of the name. It views each, so what it refers
/// to must outlive the issuance.
class name_ref {
 public:
  name_ref() = default;
  name_ref(const distinguished_name& dn) : dn_(&dn) {}
  name_ref(distinguished_name&&) = delete;  // would dangle
  name_ref(bytes_view der) : der_(der) {}

  /// CN=<common_name>: the Name distinguished_name::cn(common_name)
  /// encodes, with no copy of the name.
  [[nodiscard]] static name_ref common_name(std::string_view common_name) {
    name_ref ref;
    ref.common_name_ = common_name;
    return ref;
  }

  /// Writes the Name into `w`.
  void encode(asn1::der_writer& w) const;

 private:
  const distinguished_name* dn_ = nullptr;
  bytes_view der_;
  std::string_view common_name_;
};

}  // namespace certquic::x509
