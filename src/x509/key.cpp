#include "x509/key.hpp"

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

void encode_rsa_spki(asn1::der_writer& w, std::size_t modulus_bytes, rng& r) {
  w.open(asn1::tag::sequence);
  w.open(asn1::tag::sequence);
  w.oid(oids::rsa_encryption);
  w.null();
  w.close();
  w.open(asn1::tag::bit_string);
  w.u8(0);
  w.open(asn1::tag::sequence);
  random_integer(w, modulus_bytes, r, true);
  w.integer(65537);
  w.close();
  w.close();
  w.close();
}

void encode_ec_spki(asn1::der_writer& w, const asn1::oid& curve,
                    std::size_t coord_bytes, rng& r) {
  w.open(asn1::tag::sequence);
  w.open(asn1::tag::sequence);
  w.oid(oids::ec_public_key);
  w.oid(curve);
  w.close();
  // Uncompressed point: 0x04 || X || Y.
  const std::uint8_t uncompressed = 0x04;
  random_bit_string(w, 2 * coord_bytes, r, false, {&uncompressed, 1});
  w.close();
}

void ecdsa_signature(asn1::der_writer& w, std::size_t coord_bytes, rng& r) {
  // ECDSA-Sig-Value ::= SEQUENCE { r INTEGER, s INTEGER }.
  // Random magnitudes reproduce the real size jitter (+0/1 byte for the
  // sign octet) of DER-encoded ECDSA signatures.
  w.open(asn1::tag::bit_string);
  w.u8(0);
  w.open(asn1::tag::sequence);
  random_integer(w, coord_bytes, r, false);
  random_integer(w, coord_bytes, r, false);
  w.close();
  w.close();
}

// ML-DSA public-key and signature byte sizes per FIPS 204 (Table 2 of
// the standard); the quantities that make PQC chains blow through the
// QUIC amplification budgets.
struct mldsa_params {
  const asn1::oid& oid;
  std::size_t public_key_bytes;
  std::size_t signature_bytes;
};

const mldsa_params& mldsa_of(key_algorithm a) {
  static const mldsa_params k44{oids::ml_dsa_44, 1312, 2420};
  static const mldsa_params k65{oids::ml_dsa_65, 1952, 3309};
  static const mldsa_params k87{oids::ml_dsa_87, 2592, 4627};
  switch (a) {
    case key_algorithm::mldsa_44:
      return k44;
    case key_algorithm::mldsa_65:
      return k65;
    case key_algorithm::mldsa_87:
      return k87;
    default:
      throw config_error("mldsa_of: not an ML-DSA key algorithm");
  }
}

const mldsa_params& mldsa_of(signature_algorithm a) {
  switch (a) {
    case signature_algorithm::mldsa_44:
      return mldsa_of(key_algorithm::mldsa_44);
    case signature_algorithm::mldsa_65:
      return mldsa_of(key_algorithm::mldsa_65);
    case signature_algorithm::mldsa_87:
      return mldsa_of(key_algorithm::mldsa_87);
    default:
      throw config_error("mldsa_of: not an ML-DSA signature algorithm");
  }
}

void encode_mldsa_spki(asn1::der_writer& w, key_algorithm a, rng& r) {
  // ML-DSA AlgorithmIdentifiers carry no parameters, and the key is the
  // raw encoded public key inside the BIT STRING.
  const mldsa_params& p = mldsa_of(a);
  w.open(asn1::tag::sequence);
  w.open(asn1::tag::sequence);
  w.oid(p.oid);
  w.close();
  random_bit_string(w, p.public_key_bytes, r, false);
  w.close();
}

/// The AlgorithmIdentifier's OID and parameters, without the SEQUENCE.
void encode_signature_algorithm_body(asn1::der_writer& w,
                                     signature_algorithm a) {
  switch (a) {
    case signature_algorithm::sha256_rsa_2048:
    case signature_algorithm::sha256_rsa_4096:
      // RSA AlgorithmIdentifiers carry an explicit NULL parameter.
      w.oid(oids::sha256_with_rsa);
      return w.null();
    case signature_algorithm::ecdsa_sha256:
      return w.oid(oids::ecdsa_with_sha256);
    case signature_algorithm::ecdsa_sha384:
      return w.oid(oids::ecdsa_with_sha384);
    case signature_algorithm::mldsa_44:
    case signature_algorithm::mldsa_65:
    case signature_algorithm::mldsa_87:
      // ML-DSA AlgorithmIdentifiers have absent parameters.
      return w.oid(mldsa_of(a).oid);
  }
  throw config_error("unknown signature_algorithm");
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
  switch (a) {
    case key_algorithm::rsa_2048:
      return "RSA-2048";
    case key_algorithm::rsa_4096:
      return "RSA-4096";
    case key_algorithm::ecdsa_p256:
      return "ECDSA-P256";
    case key_algorithm::ecdsa_p384:
      return "ECDSA-P384";
    case key_algorithm::mldsa_44:
      return "ML-DSA-44";
    case key_algorithm::mldsa_65:
      return "ML-DSA-65";
    case key_algorithm::mldsa_87:
      return "ML-DSA-87";
  }
  throw config_error("unknown key_algorithm");
}

std::string to_string(signature_algorithm a) {
  switch (a) {
    case signature_algorithm::sha256_rsa_2048:
      return "sha256WithRSA(2048)";
    case signature_algorithm::sha256_rsa_4096:
      return "sha256WithRSA(4096)";
    case signature_algorithm::ecdsa_sha256:
      return "ecdsa-with-SHA256";
    case signature_algorithm::ecdsa_sha384:
      return "ecdsa-with-SHA384";
    case signature_algorithm::mldsa_44:
      return "ML-DSA-44";
    case signature_algorithm::mldsa_65:
      return "ML-DSA-65";
    case signature_algorithm::mldsa_87:
      return "ML-DSA-87";
  }
  throw config_error("unknown signature_algorithm");
}

signature_algorithm signature_by(key_algorithm issuer_key) {
  switch (issuer_key) {
    case key_algorithm::rsa_2048:
      return signature_algorithm::sha256_rsa_2048;
    case key_algorithm::rsa_4096:
      return signature_algorithm::sha256_rsa_4096;
    case key_algorithm::ecdsa_p256:
      return signature_algorithm::ecdsa_sha256;
    case key_algorithm::ecdsa_p384:
      return signature_algorithm::ecdsa_sha384;
    case key_algorithm::mldsa_44:
      return signature_algorithm::mldsa_44;
    case key_algorithm::mldsa_65:
      return signature_algorithm::mldsa_65;
    case key_algorithm::mldsa_87:
      return signature_algorithm::mldsa_87;
  }
  throw config_error("unknown issuer key_algorithm");
}

void encode_signature_algorithm(asn1::der_writer& w, signature_algorithm a) {
  w.open(asn1::tag::sequence);
  encode_signature_algorithm_body(w, a);
  w.close();
}

void encode_spki(asn1::der_writer& w, key_algorithm a, rng& r) {
  switch (a) {
    case key_algorithm::rsa_2048:
      return encode_rsa_spki(w, 256, r);
    case key_algorithm::rsa_4096:
      return encode_rsa_spki(w, 512, r);
    case key_algorithm::ecdsa_p256:
      return encode_ec_spki(w, oids::curve_p256, 32, r);
    case key_algorithm::ecdsa_p384:
      return encode_ec_spki(w, oids::curve_p384, 48, r);
    case key_algorithm::mldsa_44:
    case key_algorithm::mldsa_65:
    case key_algorithm::mldsa_87:
      return encode_mldsa_spki(w, a, r);
  }
  throw config_error("unknown key_algorithm");
}

void encode_signature_value(asn1::der_writer& w, signature_algorithm a,
                            rng& r) {
  switch (a) {
    case signature_algorithm::sha256_rsa_2048:
      return random_bit_string(w, 256, r, true);
    case signature_algorithm::sha256_rsa_4096:
      return random_bit_string(w, 512, r, true);
    case signature_algorithm::ecdsa_sha256:
      return ecdsa_signature(w, 32, r);
    case signature_algorithm::ecdsa_sha384:
      return ecdsa_signature(w, 48, r);
    case signature_algorithm::mldsa_44:
    case signature_algorithm::mldsa_65:
    case signature_algorithm::mldsa_87:
      // The ML-DSA signature is a fixed-size opaque byte string.
      return random_bit_string(w, mldsa_of(a).signature_bytes, r, false);
  }
  throw config_error("unknown signature_algorithm");
}

}  // namespace certquic::x509
