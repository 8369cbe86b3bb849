// Public key and signature algorithm modelling.
//
// Keys and signatures carry size-faithful synthetic material: the DER
// layout (AlgorithmIdentifier, SubjectPublicKeyInfo, signature BIT
// STRING) is exactly that of real certificates, while the key/signature
// bits themselves are random. Certificate *sizes* — the quantity this
// paper studies — are therefore accurate without implementing RSA/ECDSA.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "asn1/der.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace certquic::x509 {

/// Public key algorithm and length: the classes of Table 2 of the
/// paper, plus the ML-DSA (FIPS 204) parameter sets used by the
/// post-quantum what-if study (Chou & Cao).
enum class key_algorithm {
  rsa_2048,
  rsa_4096,
  ecdsa_p256,
  ecdsa_p384,
  mldsa_44,  // ML-DSA-44: 1312-byte public key
  mldsa_65,  // ML-DSA-65: 1952-byte public key
  mldsa_87,  // ML-DSA-87: 2592-byte public key
};

/// Signature algorithm of the issuing CA.
enum class signature_algorithm {
  sha256_rsa_2048,  // sha256WithRSAEncryption, 2048-bit issuer key
  sha256_rsa_4096,  // sha256WithRSAEncryption, 4096-bit issuer key
  ecdsa_sha256,     // ecdsa-with-SHA256 (P-256 issuer)
  ecdsa_sha384,     // ecdsa-with-SHA384 (P-384 issuer)
  mldsa_44,         // ML-DSA-44: 2420-byte signature
  mldsa_65,         // ML-DSA-65: 3309-byte signature
  mldsa_87,         // ML-DSA-87: 4627-byte signature
};

/// Which certificates of a served chain carry post-quantum material —
/// the chain-profile sweep axis of the PQC what-if study. `classical`
/// is the default everywhere and reproduces today's chains byte for
/// byte; the two PQC profiles model the migration stages of Chou & Cao.
enum class pq_profile : std::uint8_t {
  classical,  // today's RSA/ECDSA chains
  pqc_leaf,   // ML-DSA-44 leaf key, classical intermediates + signatures
  pqc_full,   // ML-DSA keys and signatures on every certificate
};

/// The three profiles in sweep order (classical first).
[[nodiscard]] const std::array<pq_profile, 3>& all_pq_profiles() noexcept;

/// Human-readable name, e.g. "RSA-2048" / "ECDSA-P256" / "ML-DSA-44".
[[nodiscard]] std::string to_string(key_algorithm a);
[[nodiscard]] std::string to_string(signature_algorithm a);
/// Profile name as used on CLIs and in reports: "classical" /
/// "pqc_leaf" / "pqc_full".
[[nodiscard]] std::string to_string(pq_profile p);
/// Inverse of to_string(pq_profile); throws config_error on unknown
/// names.
[[nodiscard]] pq_profile parse_pq_profile(std::string_view name);

/// Signature algorithm naturally produced by a CA holding a key of
/// algorithm `a` (RSA keys sign sha256WithRSA, P-384 signs ecdsa-sha384).
[[nodiscard]] signature_algorithm signature_by(key_algorithm issuer_key);

/// DER AlgorithmIdentifier for a signature algorithm, written into `w`.
void encode_signature_algorithm(asn1::der_writer& w, signature_algorithm a);

/// DER SubjectPublicKeyInfo with freshly synthesized key bits, written
/// into `w`.
void encode_spki(asn1::der_writer& w, key_algorithm a, rng& r);

/// Synthesized signatureValue BIT STRING matching the algorithm's
/// real-world size (RSA: modulus-sized; ECDSA: DER-encoded r/s pair),
/// written into `w`.
void encode_signature_value(asn1::der_writer& w, signature_algorithm a,
                            rng& r);

}  // namespace certquic::x509
