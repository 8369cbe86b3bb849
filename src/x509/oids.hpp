// Well-known object identifiers used by the X.509 encoder, each packed
// into its DER once, at static initialization.
#pragma once

#include "asn1/der.hpp"

namespace certquic::x509::oids {

// --- Distinguished-name attribute types (X.520) ---
inline const asn1::oid common_name{2, 5, 4, 3};
inline const asn1::oid country{2, 5, 4, 6};
inline const asn1::oid locality{2, 5, 4, 7};
inline const asn1::oid state{2, 5, 4, 8};
inline const asn1::oid organization{2, 5, 4, 10};
inline const asn1::oid organizational_unit{2, 5, 4, 11};

// --- Public key algorithms ---
inline const asn1::oid rsa_encryption{1, 2, 840, 113549, 1, 1, 1};
inline const asn1::oid ec_public_key{1, 2, 840, 10045, 2, 1};
inline const asn1::oid curve_p256{1, 2, 840, 10045, 3, 1, 7};
inline const asn1::oid curve_p384{1, 3, 132, 0, 34};

// --- Post-quantum signature algorithms (NIST CSOR, FIPS 204) ---
// ML-DSA uses one OID per parameter set for both the key and the
// signature AlgorithmIdentifier.
inline const asn1::oid ml_dsa_44{2, 16, 840, 1, 101, 3, 4, 3, 17};
inline const asn1::oid ml_dsa_65{2, 16, 840, 1, 101, 3, 4, 3, 18};
inline const asn1::oid ml_dsa_87{2, 16, 840, 1, 101, 3, 4, 3, 19};

// --- Signature algorithms ---
inline const asn1::oid sha256_with_rsa{1, 2, 840, 113549, 1, 1, 11};
inline const asn1::oid ecdsa_with_sha256{1, 2, 840, 10045, 4, 3, 2};
inline const asn1::oid ecdsa_with_sha384{1, 2, 840, 10045, 4, 3, 3};

// --- Certificate extensions (id-ce / id-pe) ---
inline const asn1::oid subject_key_identifier{2, 5, 29, 14};
inline const asn1::oid key_usage{2, 5, 29, 15};
inline const asn1::oid subject_alt_name{2, 5, 29, 17};
inline const asn1::oid basic_constraints{2, 5, 29, 19};
inline const asn1::oid crl_distribution_points{2, 5, 29, 31};
inline const asn1::oid certificate_policies{2, 5, 29, 32};
inline const asn1::oid authority_key_identifier{2, 5, 29, 35};
inline const asn1::oid ext_key_usage{2, 5, 29, 37};
inline const asn1::oid authority_info_access{1, 3, 6, 1, 5, 5, 7, 1, 1};
inline const asn1::oid sct_list{1, 3, 6, 1, 4, 1, 11129, 2, 4, 2};

// --- Extended key usage purposes ---
inline const asn1::oid eku_server_auth{1, 3, 6, 1, 5, 5, 7, 3, 1};
inline const asn1::oid eku_client_auth{1, 3, 6, 1, 5, 5, 7, 3, 2};

// --- Certificate policy identifiers ---
inline const asn1::oid policy_domain_validated{2, 23, 140, 1, 2, 1};
inline const asn1::oid policy_organization_validated{2, 23, 140, 1, 2, 2};
inline const asn1::oid policy_cps{1, 3, 6, 1, 5, 5, 7, 2, 1};

// --- Authority info access methods ---
inline const asn1::oid aia_ocsp{1, 3, 6, 1, 5, 5, 7, 48, 1};
inline const asn1::oid aia_ca_issuers{1, 3, 6, 1, 5, 5, 7, 48, 2};

}  // namespace certquic::x509::oids
