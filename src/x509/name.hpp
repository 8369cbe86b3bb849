// X.501 distinguished names (issuer / subject fields).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "asn1/der.hpp"
#include "util/bytes.hpp"

namespace certquic::x509 {

/// A string given as the concatenation of up to four views, e.g.
/// {label, " CA ", "2"} or {"http://", label, ".example", "/cps"}:
/// issuance composes a CA's names and URLs from its label without
/// building a string per certificate. It views its pieces, which must
/// outlive its use.
struct pieces {
  std::array<std::string_view, 4> parts{};

  pieces() = default;
  pieces(const char* whole) : parts{whole} {}
  pieces(const std::string& whole) : parts{whole} {}
  pieces(std::string_view a, std::string_view b, std::string_view c = {},
         std::string_view d = {})
      : parts{a, b, c, d} {}

  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const std::string_view piece : parts) {
      n += piece.size();
    }
    return n;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Writes the concatenation as one string TLV tagged `tag_byte`.
  void encode(asn1::der_writer& w, std::uint8_t tag_byte) const;
};

/// One relative distinguished name component, e.g. CN=example.org.
/// `attribute` points into the static table of x509/oids.hpp.
struct rdn {
  const asn1::oid* attribute = nullptr;
  std::string value;
  /// PrintableString when true (C=, short names), UTF8String otherwise.
  bool printable = false;
};

/// An ordered distinguished name, read back from an encoded
/// RDNSequence (name_ref writes one).
class distinguished_name {
 public:
  distinguished_name() = default;
  explicit distinguished_name(std::vector<rdn> parts)
      : parts_(std::move(parts)) {}

  [[nodiscard]] const std::vector<rdn>& parts() const noexcept {
    return parts_;
  }
  [[nodiscard]] bool empty() const noexcept { return parts_.empty(); }

  /// Reads an encoded RDNSequence back. Throws codec_error on malformed
  /// DER or an attribute type outside x509/oids.hpp.
  [[nodiscard]] static distinguished_name decode(bytes_view der);

  /// Returns the CN value or "" when absent.
  [[nodiscard]] std::string common_name() const;

  /// Human-readable "C=US, O=Example, CN=example.org".
  [[nodiscard]] std::string to_string() const;

  /// Structural equality (attribute OIDs and values).
  [[nodiscard]] bool operator==(const distinguished_name& other) const;

 private:
  std::vector<rdn> parts_;
};

/// The issuer or subject of a certificate being issued: a Name already
/// encoded (a parent certificate's subject), copied verbatim, or a
/// CN=... or C=, O=, CN= Name encoded straight from views of its
/// values. It views each, so what it refers to must outlive the
/// issuance.
class name_ref {
 public:
  name_ref() = default;
  name_ref(bytes_view der) : der_(der) {}

  /// CN=<common_name>, with no copy of the name.
  [[nodiscard]] static name_ref common_name(std::string_view common_name) {
    name_ref ref;
    ref.form_ = form::common_name;
    ref.common_name_ = pieces{common_name, {}};
    return ref;
  }

  /// C=<country>, O=<organization>, CN=<common_name> (the usual CA
  /// layout), with no string built for a value. C is a
  /// PrintableString, O and CN are UTF8Strings.
  [[nodiscard]] static name_ref org(std::string_view country,
                                    pieces organization, pieces common_name) {
    name_ref ref;
    ref.form_ = form::org;
    ref.country_ = country;
    ref.organization_ = organization;
    ref.common_name_ = common_name;
    return ref;
  }

  /// Writes the Name into `w`.
  void encode(asn1::der_writer& w) const;

 private:
  enum class form : std::uint8_t { der, common_name, org };

  form form_ = form::der;
  bytes_view der_;
  std::string_view country_;
  pieces organization_;
  pieces common_name_;
};

}  // namespace certquic::x509
