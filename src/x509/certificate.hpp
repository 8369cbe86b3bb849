// X.509v3 certificate: one-pass DER issuance + per-field size accounting
// (the measurement basis for Figs. 2b, 6, 7, 8 and 14).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "asn1/der.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "x509/key.hpp"
#include "x509/name.hpp"

namespace certquic::x509 {

/// Validity window, UTCTime strings ("YYMMDDHHMMSSZ").
struct validity {
  std::string_view not_before = "220910000000Z";
  std::string_view not_after = "221209000000Z";
};

/// Measured sizes (bytes) of the encoded certificate components; these
/// are exactly the field classes of Figure 2(b) / Figure 8. 32 bits
/// each: the corpus fold holds them for every certificate in flight.
struct field_sizes {
  std::uint32_t subject = 0;
  std::uint32_t issuer = 0;
  std::uint32_t public_key_info = 0;
  std::uint32_t extensions = 0;
  std::uint32_t signature = 0;  // signatureValue BIT STRING
  std::uint32_t total = 0;      // full DER certificate

  /// Everything not covered above (serial, version, validity, framing).
  [[nodiscard]] std::size_t other() const noexcept {
    const std::size_t known = std::size_t{subject} + issuer +
                              public_key_info + extensions + signature;
    return total >= known ? total - known : 0;
  }
};

/// What a certificate is issued with besides its extensions. The names
/// are views (see name_ref) that must outlive the constructor call.
struct certificate_spec {
  name_ref issuer;
  name_ref subject;
  validity valid;
  key_algorithm key_alg = key_algorithm::ecdsa_p256;
  signature_algorithm sig_alg = signature_algorithm::ecdsa_sha256;
};

/// An immutable certificate: encoded once, in one pass, into its own
/// DER; every other fact it reports is read from that DER.
class certificate {
 public:
  /// Issues a certificate. `write_extensions(w)` runs first and writes
  /// the Extension TLVs (the x509/extensions.hpp writers), in order,
  /// into the thread's scratch writer `w`; its rng draws come before
  /// the serial, key material and signature this constructor then
  /// draws from `r`. It must not issue another certificate.
  template <typename WriteExtensions>
  certificate(const certificate_spec& spec, rng& r,
              WriteExtensions&& write_extensions)
      : key_alg_(spec.key_alg), sig_alg_(spec.sig_alg) {
    asn1::der_writer& w = scratch();
    write_extensions(w);
    encode(spec, r, w);
  }

  /// The encoded issuer and subject Names (RDNSequence TLVs), viewing
  /// der(); distinguished_name::decode reads one back.
  [[nodiscard]] bytes_view issuer() const noexcept {
    return bytes_view{der_}.subspan(issuer_at_, sizes_.issuer);
  }
  [[nodiscard]] bytes_view subject() const noexcept {
    return bytes_view{der_}.subspan(subject_at_, sizes_.subject);
  }
  [[nodiscard]] key_algorithm key_alg() const noexcept { return key_alg_; }
  [[nodiscard]] signature_algorithm sig_alg() const noexcept {
    return sig_alg_;
  }
  /// The random positive 16-byte serial.
  [[nodiscard]] const std::array<std::uint8_t, 16>& serial() const noexcept {
    return serial_;
  }

  /// Full DER encoding.
  [[nodiscard]] const bytes& der() const noexcept { return der_; }
  /// Size of the DER encoding.
  [[nodiscard]] std::size_t size() const noexcept { return der_.size(); }
  /// Field-size breakdown.
  [[nodiscard]] const field_sizes& sizes() const noexcept { return sizes_; }

  /// True when basicConstraints marks this certificate as a CA; read
  /// from der() on demand.
  [[nodiscard]] bool is_ca() const;
  /// True when the encoded issuer and subject are equal.
  [[nodiscard]] bool self_signed() const noexcept;

  /// DNS names in subjectAltName ({} when absent), decoded from der().
  [[nodiscard]] std::vector<std::string> subject_alt_names() const;
  /// Encoded size of the subjectAltName extension (0 when absent);
  /// numerator of the Fig. 14 SAN byte share. Read from der() on demand.
  [[nodiscard]] std::size_t san_bytes() const;

  /// One-line render for diagnostics: "CN=leaf.example (ECDSA-P256, 1034B)".
  [[nodiscard]] std::string describe() const;

 private:
  /// The thread's scratch writer, cleared.
  [[nodiscard]] static asn1::der_writer& scratch();
  /// Encodes the certificate around the extensions `w` holds.
  void encode(const certificate_spec& spec, rng& r, asn1::der_writer& w);
  /// The Extension TLV whose extnID is `id`, viewing der(); empty when
  /// the certificate has none.
  [[nodiscard]] bytes_view find_extension(const asn1::oid& id) const;

  bytes der_;
  field_sizes sizes_;
  std::array<std::uint8_t, 16> serial_{};
  /// Offsets into der_ of the issuer Name, the subject Name and the
  /// extensions SEQUENCE.
  std::uint32_t issuer_at_ = 0;
  std::uint32_t subject_at_ = 0;
  std::uint32_t extensions_at_ = 0;
  key_algorithm key_alg_;
  signature_algorithm sig_alg_;
};

}  // namespace certquic::x509
