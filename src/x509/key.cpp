#include "x509/key.hpp"

#include <iterator>

#include "util/assert.hpp"
#include "util/errors.hpp"
#include "x509/oids.hpp"

namespace certquic::x509 {
namespace {

/// The largest random INTEGER magnitude written: an RSA-4096 modulus.
constexpr std::size_t kMaxMagnitude = 512;

/// INTEGER over `n` random magnitude octets, the top bit forced on when
/// `set_top_bit` (RSA moduli keep their full width).
void random_integer(asn1::der_writer& w, std::size_t n, rng& r,
                    bool set_top_bit) {
  CERTQUIC_ASSERT(n > 0 && n <= kMaxMagnitude, "magnitude out of range");
  std::uint8_t magnitude[kMaxMagnitude];
  r.fill({magnitude, n});
  if (set_top_bit) {
    magnitude[0] |= 0x80;
  }
  w.big_integer({magnitude, n});
}

/// BIT STRING (no unused bits) of `prefix` octets followed by `n` random
/// octets, the first random octet's top bit forced on when
/// `set_top_bit`.
void random_bit_string(asn1::der_writer& w, std::size_t n, rng& r,
                       bool set_top_bit, bytes_view prefix = {}) {
  w.header(asn1::tag::bit_string, 1 + prefix.size() + n);
  w.u8(0);
  w.raw(prefix);
  std::uint8_t* bits = w.append(n);
  r.fill({bits, n});
  if (set_top_bit && n > 0) {
    bits[0] |= 0x80;
  }
}

/// How an algorithm lays out its key and signature. Each family is one
/// layout; the rows below give its sizes and OIDs.
enum class family : std::uint8_t { rsa, ec, mldsa };

/// A key algorithm's facts. `size` is the RSA modulus, the EC
/// coordinate or the ML-DSA public key, in bytes; `oid` is
/// rsaEncryption, the named curve or the ML-DSA parameter set.
struct key_row {
  std::string_view name;
  family kind;
  std::size_t size;
  const asn1::oid* oid;
  signature_algorithm signer;  // what a CA holding this key signs with
};

/// A signature algorithm's facts. `size` is the RSA signature, the EC
/// coordinate or the ML-DSA signature, in bytes.
struct signature_row {
  std::string_view name;
  family kind;
  std::size_t size;
  const asn1::oid* oid;
};

// One row per enumerator, in enum order. ML-DSA sizes are FIPS 204's
// (Table 2 of the standard): the quantities that make PQC chains blow
// through the QUIC amplification budgets. ML-DSA uses one OID per
// parameter set for both the key and the signature.
constexpr key_row kKeys[] = {
    {"RSA-2048", family::rsa, 256, &oids::rsa_encryption,
     signature_algorithm::sha256_rsa_2048},
    {"RSA-4096", family::rsa, 512, &oids::rsa_encryption,
     signature_algorithm::sha256_rsa_4096},
    {"ECDSA-P256", family::ec, 32, &oids::curve_p256,
     signature_algorithm::ecdsa_sha256},
    {"ECDSA-P384", family::ec, 48, &oids::curve_p384,
     signature_algorithm::ecdsa_sha384},
    {"ML-DSA-44", family::mldsa, 1312, &oids::ml_dsa_44,
     signature_algorithm::mldsa_44},
    {"ML-DSA-65", family::mldsa, 1952, &oids::ml_dsa_65,
     signature_algorithm::mldsa_65},
    {"ML-DSA-87", family::mldsa, 2592, &oids::ml_dsa_87,
     signature_algorithm::mldsa_87},
};
static_assert(std::size(kKeys) ==
              static_cast<std::size_t>(key_algorithm::mldsa_87) + 1);

constexpr signature_row kSignatures[] = {
    {"sha256WithRSA(2048)", family::rsa, 256, &oids::sha256_with_rsa},
    {"sha256WithRSA(4096)", family::rsa, 512, &oids::sha256_with_rsa},
    {"ecdsa-with-SHA256", family::ec, 32, &oids::ecdsa_with_sha256},
    {"ecdsa-with-SHA384", family::ec, 48, &oids::ecdsa_with_sha384},
    {"ML-DSA-44", family::mldsa, 2420, &oids::ml_dsa_44},
    {"ML-DSA-65", family::mldsa, 3309, &oids::ml_dsa_65},
    {"ML-DSA-87", family::mldsa, 4627, &oids::ml_dsa_87},
};
static_assert(std::size(kSignatures) ==
              static_cast<std::size_t>(signature_algorithm::mldsa_87) + 1);

const key_row& row_of(key_algorithm a) {
  const auto i = static_cast<std::size_t>(a);
  if (i >= std::size(kKeys)) {
    throw config_error("unknown key_algorithm");
  }
  return kKeys[i];
}

const signature_row& row_of(signature_algorithm a) {
  const auto i = static_cast<std::size_t>(a);
  if (i >= std::size(kSignatures)) {
    throw config_error("unknown signature_algorithm");
  }
  return kSignatures[i];
}

}  // namespace

const std::array<pq_profile, 3>& all_pq_profiles() noexcept {
  static const std::array<pq_profile, 3> profiles = {
      pq_profile::classical, pq_profile::pqc_leaf, pq_profile::pqc_full};
  return profiles;
}

std::string to_string(pq_profile p) {
  switch (p) {
    case pq_profile::classical:
      return "classical";
    case pq_profile::pqc_leaf:
      return "pqc_leaf";
    case pq_profile::pqc_full:
      return "pqc_full";
  }
  throw config_error("unknown pq_profile");
}

pq_profile parse_pq_profile(std::string_view name) {
  for (const pq_profile p : all_pq_profiles()) {
    if (to_string(p) == name) {
      return p;
    }
  }
  throw config_error("unknown pq_profile: " + std::string(name));
}

std::string to_string(key_algorithm a) {
  return std::string{row_of(a).name};
}

std::string to_string(signature_algorithm a) {
  return std::string{row_of(a).name};
}

signature_algorithm signature_by(key_algorithm issuer_key) {
  return row_of(issuer_key).signer;
}

void encode_signature_algorithm(asn1::der_writer& w, signature_algorithm a) {
  const signature_row& row = row_of(a);
  w.open(asn1::tag::sequence);
  w.oid(*row.oid);
  // RSA AlgorithmIdentifiers carry an explicit NULL parameter; ECDSA
  // and ML-DSA ones have absent parameters.
  if (row.kind == family::rsa) {
    w.null();
  }
  w.close();
}

void encode_spki(asn1::der_writer& w, key_algorithm a, rng& r) {
  const key_row& row = row_of(a);
  w.open(asn1::tag::sequence);
  w.open(asn1::tag::sequence);
  switch (row.kind) {
    case family::rsa:
      w.oid(*row.oid);
      w.null();
      w.close();
      w.open(asn1::tag::bit_string);
      w.u8(0);
      w.open(asn1::tag::sequence);
      random_integer(w, row.size, r, true);
      w.integer(65537);
      w.close();
      w.close();
      break;
    case family::ec: {
      w.oid(oids::ec_public_key);
      w.oid(*row.oid);
      w.close();
      // Uncompressed point: 0x04 || X || Y.
      const std::uint8_t uncompressed = 0x04;
      random_bit_string(w, 2 * row.size, r, false, {&uncompressed, 1});
      break;
    }
    case family::mldsa:
      // No parameters; the key is the raw encoded public key inside the
      // BIT STRING.
      w.oid(*row.oid);
      w.close();
      random_bit_string(w, row.size, r, false);
      break;
  }
  w.close();
}

void encode_signature_value(asn1::der_writer& w, signature_algorithm a,
                            rng& r) {
  const signature_row& row = row_of(a);
  switch (row.kind) {
    case family::rsa:
      // Modulus-sized, full width.
      return random_bit_string(w, row.size, r, true);
    case family::ec:
      // ECDSA-Sig-Value ::= SEQUENCE { r INTEGER, s INTEGER }. Random
      // magnitudes reproduce the real size jitter (+0/1 byte for the
      // sign octet) of DER-encoded ECDSA signatures.
      w.open(asn1::tag::bit_string);
      w.u8(0);
      w.open(asn1::tag::sequence);
      random_integer(w, row.size, r, false);
      random_integer(w, row.size, r, false);
      w.close();
      w.close();
      return;
    case family::mldsa:
      // A fixed-size opaque byte string.
      return random_bit_string(w, row.size, r, false);
  }
}

}  // namespace certquic::x509
