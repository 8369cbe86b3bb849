#include "ca/ecosystem.hpp"

#include <algorithm>
#include <array>

#include "x509/extensions.hpp"

namespace certquic::ca {

using x509::certificate;
using x509::certificate_spec;
using x509::key_algorithm;
using x509::name_ref;
using x509::pieces;
using x509::signature_algorithm;

namespace {

/// Extension richness of a CA certificate; modern intermediates carry
/// the full operational set, legacy roots are sparse.
enum class ca_style { root, legacy_root, intermediate };

/// A CA certificate. Its URLs name the host `url_host` + `url_domain`
/// (a long-tail CA's "<label>" + ".example"), built from the two views.
std::shared_ptr<const certificate> make_ca_cert(
    rng& r, name_ref subject, name_ref issuer, key_algorithm key,
    key_algorithm issuer_key, ca_style style, std::string_view url_host,
    std::string_view url_domain = {}) {
  const certificate_spec spec{
      .issuer = issuer,
      .subject = subject,
      // CA certificates are long-lived.
      .valid = {"200904000000Z", "300904000000Z"},
      .key_alg = key,
      .sig_alg = x509::signature_by(issuer_key)};
  return std::make_shared<const certificate>(
      spec, r, [&](asn1::der_writer& w) {
        x509::write_basic_constraints(w, true, 0);
        x509::write_key_usage(w, 0x86);  // sign+certSign+crl
        x509::write_subject_key_id(w, r);
        if (style != ca_style::legacy_root) {
          std::array<std::uint8_t, 20> issuer_key_id;
          r.fill(issuer_key_id);
          x509::write_authority_key_id(w, issuer_key_id);
        }
        if (style == ca_style::intermediate) {
          x509::write_ext_key_usage(w, true);
          x509::write_certificate_policies(
              w, false, {"http://", url_host, url_domain, "/cps"});
          x509::write_authority_info_access(
              w, {"http://ocsp.", url_host, url_domain},
              {"http://", url_host, url_domain, "/root.crt"});
          x509::write_crl_distribution_points(
              w, {"http://crl.", url_host, url_domain, "/root.crl"});
        }
      });
}

/// ML-DSA twin of a classical parent certificate: the same position in
/// the hierarchy (subject, issuer) and the same extension richness as
/// its classical counterpart — built through make_ca_cert so
/// intermediates keep their full operational set (EKU, policies, AIA,
/// CRL DP) — with ML-DSA-65 keys on intermediates, ML-DSA-87 on roots,
/// and ML-DSA-87 signatures (every named parent is signed by a
/// root-grade key). Per-record pqc_full size deltas therefore isolate
/// the algorithm change; only the operational host is a synthetic
/// placeholder of realistic length.
std::shared_ptr<const certificate> make_pqc_twin(const certificate& parent,
                                                 rng& r) {
  const bool root = parent.self_signed();
  return make_ca_cert(
      r, parent.subject(), parent.issuer(),
      root ? key_algorithm::mldsa_87 : key_algorithm::mldsa_65,
      key_algorithm::mldsa_87, root ? ca_style::root : ca_style::intermediate,
      "pq.pki.example");
}

/// The thread's subjectAltName list, holding only `domain`: every leaf
/// names its domain first. A leaf's SANs are drawn before its
/// certificate is encoded, so they are held somewhere: here, in storage
/// every leaf this thread issues reuses.
std::vector<x509::dns_name>& san_scratch(std::string_view domain) {
  thread_local std::vector<x509::dns_name> sans;
  sans.clear();
  sans.push_back({{}, domain});
  return sans;
}

/// The URLs a leaf names. An empty one is left out: a lean leaf has no
/// CPS or CRL, a cruise liner no AIA.
struct leaf_urls {
  pieces cps;
  pieces ocsp;
  pieces ca_issuers;
  pieces crl;
};

/// A leaf certificate of `spec`, issued after its SANs were drawn: every
/// leaf carries this one extension sequence. `sct_count()` draws the
/// number of embedded SCTs from `r` after the subjectKeyIdentifier.
template <typename SctCount>
std::shared_ptr<const certificate> issue_leaf(
    const certificate_spec& spec, rng& r,
    const std::vector<x509::dns_name>& sans, bool organization_validated,
    const leaf_urls& urls, SctCount&& sct_count) {
  std::array<std::uint8_t, 20> issuer_key_id;
  r.fill(issuer_key_id);
  return std::make_shared<const certificate>(
      spec, r, [&](asn1::der_writer& w) {
        x509::write_basic_constraints(w, false);
        x509::write_key_usage(w, 0x80);
        x509::write_ext_key_usage(w, true);
        x509::write_subject_key_id(w, r);
        x509::write_authority_key_id(w, issuer_key_id);
        x509::write_subject_alt_name(w, sans);
        x509::write_certificate_policies(w, organization_validated,
                                         urls.cps);
        if (!urls.ocsp.empty() || !urls.ca_issuers.empty()) {
          x509::write_authority_info_access(w, urls.ocsp, urls.ca_issuers);
        }
        if (!urls.crl.empty()) {
          x509::write_crl_distribution_points(w, urls.crl);
        }
        x509::write_sct_list(w, sct_count(), r);
      });
}

/// One immutable parent list, for chains to share.
std::shared_ptr<const x509::parent_list> share(x509::parent_list parents) {
  return std::make_shared<const x509::parent_list>(std::move(parents));
}

}  // namespace

std::string_view to_string(profile_id id) noexcept {
  static constexpr std::string_view kIds[] = {
      "cloudflare", "le-r3-x1cross", "le-r3-x1cross-ec", "le-r3",
      "le-e1-x2",   "gts-1c3",       "le-r3-x1self",     "gts-1d4",
      "sectigo",    "cpanel",        "globalsign",       "digicert",
      "amazon",     "comodo",        "godaddy",          "comodo-with-root",
      "other",
  };
  static_assert(std::size(kIds) == kNamedProfiles + 1);
  return kIds[static_cast<std::size_t>(id)];
}

std::size_t chain_profile::parent_wire_size() const {
  std::size_t total = 0;
  for (const auto& parent : *parents) {
    total += parent->size();
  }
  return total;
}

ecosystem ecosystem::make(std::uint64_t seed) {
  rng r{seed};
  ecosystem eco;

  // ---- Distinguished names of the real hierarchies -----------------------
  const auto dn_cf =
      name_ref::org("US", "Cloudflare, Inc.", "Cloudflare Inc ECC CA-3");
  const auto dn_baltimore = name_ref::org(
      "IE", "Baltimore", "Baltimore CyberTrust Root");
  const auto dn_r3 = name_ref::org("US", "Let's Encrypt", "R3");
  const auto dn_e1 = name_ref::org("US", "Let's Encrypt", "E1");
  const auto dn_x1 = name_ref::org(
      "US", "Internet Security Research Group", "ISRG Root X1");
  const auto dn_x2 = name_ref::org(
      "US", "Internet Security Research Group", "ISRG Root X2");
  const auto dn_dst = name_ref::org(
      "US", "Digital Signature Trust Co.", "DST Root CA X3");
  const auto dn_gts_r1 = name_ref::org(
      "US", "Google Trust Services LLC", "GTS Root R1");
  const auto dn_gts_1c3 = name_ref::org(
      "US", "Google Trust Services LLC", "GTS CA 1C3");
  const auto dn_gts_1d4 = name_ref::org(
      "US", "Google Trust Services LLC", "GTS CA 1D4");
  const auto dn_globalsign_root = name_ref::org(
      "BE", "GlobalSign nv-sa", "GlobalSign Root CA - R3");
  const auto dn_usertrust = name_ref::org(
      "US", "The USERTRUST Network", "USERTrust RSA Certification Authority");
  const auto dn_sectigo =
      name_ref::org("GB", "Sectigo Limited",
                    "Sectigo RSA Domain Validation Secure Server CA");
  const auto dn_comodo = name_ref::org(
      "GB", "COMODO CA Limited", "COMODO RSA Certification Authority");
  const auto dn_cpanel = name_ref::org(
      "US", "cPanel, Inc.", "cPanel, Inc. Certification Authority");
  const auto dn_globalsign_atlas = name_ref::org(
      "BE", "GlobalSign nv-sa", "GlobalSign Atlas R3 DV TLS CA H2 2021");
  const auto dn_digicert_root = name_ref::org(
      "US", "DigiCert Inc", "DigiCert Global Root CA");
  const auto dn_digicert_ca1 = name_ref::org(
      "US", "DigiCert Inc", "DigiCert TLS RSA SHA256 2020 CA1");
  const auto dn_amazon_root =
      name_ref::org("US", "Amazon", "Amazon Root CA 1");
  const auto dn_amazon_m01 =
      name_ref::org("US", "Amazon", "Amazon RSA 2048 M01");
  const auto dn_godaddy_root = name_ref::org(
      "US", "GoDaddy.com, Inc.", "GoDaddy Root Certificate Authority - G2");
  const auto dn_godaddy_g2 = name_ref::org(
      "US", "GoDaddy.com, Inc.", "GoDaddy Secure Certificate Authority - G2");

  // ---- Parent certificates ------------------------------------------------
  const auto cf_ecc = make_ca_cert(r, dn_cf, dn_baltimore,
                                   key_algorithm::ecdsa_p256,
                                   key_algorithm::rsa_2048,
                                   ca_style::intermediate, "cloudflare.com");
  const auto le_r3 = make_ca_cert(r, dn_r3, dn_x1, key_algorithm::rsa_2048,
                                  key_algorithm::rsa_4096,
                                  ca_style::intermediate, "x1.i.lencr.org");
  const auto le_e1 = make_ca_cert(r, dn_e1, dn_x2, key_algorithm::ecdsa_p384,
                                  key_algorithm::ecdsa_p384,
                                  ca_style::intermediate, "x2.i.lencr.org");
  const auto isrg_x1_cross =
      make_ca_cert(r, dn_x1, dn_dst, key_algorithm::rsa_4096,
                   key_algorithm::rsa_2048, ca_style::intermediate,
                   "apps.identrust.com");
  const auto isrg_x1_self =
      make_ca_cert(r, dn_x1, dn_x1, key_algorithm::rsa_4096,
                   key_algorithm::rsa_4096, ca_style::root, "x1.i.lencr.org");
  const auto isrg_x2_self =
      make_ca_cert(r, dn_x2, dn_x2, key_algorithm::ecdsa_p384,
                   key_algorithm::ecdsa_p384, ca_style::root,
                   "x2.i.lencr.org");
  const auto gts_r1_cross = make_ca_cert(
      r, dn_gts_r1, dn_globalsign_root, key_algorithm::rsa_4096,
      key_algorithm::rsa_2048, ca_style::intermediate, "pki.goog");
  const auto gts_1c3 =
      make_ca_cert(r, dn_gts_1c3, dn_gts_r1, key_algorithm::rsa_2048,
                   key_algorithm::rsa_4096, ca_style::intermediate,
                   "pki.goog");
  const auto gts_1d4 =
      make_ca_cert(r, dn_gts_1d4, dn_gts_r1, key_algorithm::ecdsa_p256,
                   key_algorithm::rsa_4096, ca_style::intermediate,
                   "pki.goog");
  // As served by Sectigo, the USERTrust root is cross-signed by the
  // older AAA Certificate Services root rather than self-signed.
  const auto dn_aaa = name_ref::org(
      "GB", "Comodo CA Limited", "AAA Certificate Services");
  const auto usertrust_root = make_ca_cert(
      r, dn_usertrust, dn_aaa, key_algorithm::rsa_4096,
      key_algorithm::rsa_2048, ca_style::root, "usertrust.com");
  const auto sectigo_dv =
      make_ca_cert(r, dn_sectigo, dn_usertrust, key_algorithm::rsa_2048,
                   key_algorithm::rsa_4096, ca_style::intermediate,
                   "sectigo.com");
  const auto comodo_root =
      make_ca_cert(r, dn_comodo, dn_comodo, key_algorithm::rsa_4096,
                   key_algorithm::rsa_4096, ca_style::root, "comodoca.com");
  const auto cpanel_ca =
      make_ca_cert(r, dn_cpanel, dn_comodo, key_algorithm::rsa_2048,
                   key_algorithm::rsa_4096, ca_style::intermediate,
                   "comodoca.com");
  const auto globalsign_atlas = make_ca_cert(
      r, dn_globalsign_atlas, dn_globalsign_root, key_algorithm::rsa_2048,
      key_algorithm::rsa_2048, ca_style::intermediate, "globalsign.com");
  const auto digicert_root = make_ca_cert(
      r, dn_digicert_root, dn_digicert_root, key_algorithm::rsa_2048,
      key_algorithm::rsa_2048, ca_style::legacy_root, "digicert.com");
  const auto digicert_ca1 =
      make_ca_cert(r, dn_digicert_ca1, dn_digicert_root,
                   key_algorithm::rsa_2048, key_algorithm::rsa_2048,
                   ca_style::intermediate, "digicert.com");
  const auto amazon_root = make_ca_cert(
      r, dn_amazon_root, dn_amazon_root, key_algorithm::rsa_2048,
      key_algorithm::rsa_2048, ca_style::legacy_root, "amazontrust.com");
  const auto amazon_m01 =
      make_ca_cert(r, dn_amazon_m01, dn_amazon_root, key_algorithm::rsa_2048,
                   key_algorithm::rsa_2048, ca_style::intermediate,
                   "amazontrust.com");
  const auto godaddy_g2 =
      make_ca_cert(r, dn_godaddy_g2, dn_godaddy_root, key_algorithm::rsa_2048,
                   key_algorithm::rsa_2048, ca_style::intermediate,
                   "certs.godaddy.com");

  // ---- Fig. 7a (QUIC services) + Fig. 7b (HTTPS-only) rows ---------------
  // QUIC shares are Fig. 7a's published row percentages (96.49%
  // coverage); the remainder flows through issue_other().
  auto add = [&eco](chain_profile p) { eco.profiles_.push_back(std::move(p)); };

  add({.id = profile_id::cloudflare,
       .display = "Cloudflare Inc ECC CA-3",
       .parents = share({cf_ecc}),
       .quic_share = 0.6154,
       .leaf = {.key_alg = key_algorithm::ecdsa_p256,
                .min_sans = 4,
                .max_sans = 6,
                .sct_count = 3,
                .url_host = "cloudflaressl.com"},
       .parents_pqc = {}});
  // Fig. 7a rows 2 and 3: both serve R3 plus the DST-cross-signed ISRG
  // Root X1 (§4.2 calls this out as superfluous); they differ in the
  // leaf key algorithm.
  add({.id = profile_id::le_r3_x1cross,
       .display = "Let's Encrypt R3 + ISRG Root X1 (DST cross), RSA leaves",
       .parents = share({le_r3, isrg_x1_cross}),
       .quic_share = 0.1680,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 1,
                .max_sans = 2,
                .sct_count = 2,
                .lean_extensions = true,
                .url_host = "r3.o.lencr.org"},
       .parents_pqc = {}});
  add({.id = profile_id::le_r3_x1cross_ec,
       .display = "Let's Encrypt R3 + ISRG Root X1 (DST cross), ECDSA leaves",
       .parents = share({le_r3, isrg_x1_cross}),
       .quic_share = 0.1031,
       .leaf = {.key_alg = key_algorithm::ecdsa_p256,
                .min_sans = 1,
                .max_sans = 3,
                .sct_count = 2,
                .lean_extensions = true,
                .url_host = "r3.o.lencr.org"},
       .parents_pqc = {}});
  add({.id = profile_id::le_r3,
       .display = "Let's Encrypt R3",
       .parents = share({le_r3}),
       .quic_share = 0.0,
       .leaf = {.key_alg = key_algorithm::ecdsa_p256,
                .rsa_mix = 0.35,
                .min_sans = 1,
                .max_sans = 3,
                .sct_count = 2,
                .lean_extensions = true,
                .url_host = "r3.o.lencr.org"},
       .parents_pqc = {}});
  add({.id = profile_id::le_e1_x2,
       .display = "Let's Encrypt E1 + ISRG Root X2",
       .parents = share({le_e1, isrg_x2_self}),
       .quic_share = 0.0189,
       .leaf = {.key_alg = key_algorithm::ecdsa_p256,
                .min_sans = 1,
                .max_sans = 3,
                .sct_count = 2,
                .lean_extensions = true,
                .url_host = "e1.o.lencr.org"},
       .parents_pqc = {}});
  add({.id = profile_id::gts_1c3,
       .display = "GTS CA 1C3 + GTS Root R1",
       .parents = share({gts_1c3, gts_r1_cross}),
       .quic_share = 0.0153,
       .leaf = {.key_alg = key_algorithm::ecdsa_p256,
                .min_sans = 1,
                .max_sans = 6,
                .sct_count = 2,
                .url_host = "pki.goog"},
       .parents_pqc = {}});
  add({.id = profile_id::le_r3_x1self,
       .display = "Let's Encrypt R3 + ISRG Root X1 (self-signed)",
       .parents = share({le_r3, isrg_x1_self}),
       .quic_share = 0.0127,
       .leaf = {.key_alg = key_algorithm::ecdsa_p256,
                .rsa_mix = 0.3,
                .min_sans = 1,
                .max_sans = 4,
                .sct_count = 2,
                .lean_extensions = true,
                .url_host = "r3.o.lencr.org"},
       .parents_pqc = {}});
  add({.id = profile_id::gts_1d4,
       .display = "GTS CA 1D4 + GTS Root R1",
       .parents = share({gts_1d4, gts_r1_cross}),
       .quic_share = 0.0103,
       .leaf = {.key_alg = key_algorithm::ecdsa_p256,
                .min_sans = 1,
                .max_sans = 4,
                .sct_count = 2,
                .url_host = "pki.goog"},
       .parents_pqc = {}});
  add({.id = profile_id::sectigo,
       .display = "Sectigo RSA DV + USERTrust RSA CA",
       .parents = share({sectigo_dv, usertrust_root}),
       .quic_share = 0.0092,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 1,
                .max_sans = 3,
                .sct_count = 2,
                .url_host = "sectigo.com"},
       .parents_pqc = {}});
  add({.id = profile_id::cpanel,
       .display = "cPanel, Inc. CA + COMODO RSA CA",
       .parents = share({cpanel_ca, comodo_root}),
       .quic_share = 0.0083,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 2,
                .max_sans = 8,
                .sct_count = 3,
                .url_host = "comodoca.com"},
       .parents_pqc = {}});
  add({.id = profile_id::globalsign,
       .display = "GlobalSign Atlas R3 DV TLS CA H2 2021",
       .parents = share({globalsign_atlas}),
       .quic_share = 0.0037,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 1,
                .max_sans = 3,
                .sct_count = 2,
                .url_host = "globalsign.com"},
       .parents_pqc = {}});
  // HTTPS-only rows absent from the QUIC top-10.
  add({.id = profile_id::digicert,
       .display = "DigiCert TLS RSA SHA256 2020 CA1 + DigiCert Global Root",
       .parents = share({digicert_ca1, digicert_root}),
       .quic_share = 0.0,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 1,
                .max_sans = 6,
                .sct_count = 3,
                .organization_validated = true,
                .url_host = "digicert.com"},
       .parents_pqc = {}});
  add({.id = profile_id::amazon,
       .display = "Amazon RSA 2048 M01 + Amazon Root CA 1",
       .parents = share({amazon_m01, amazon_root}),
       .quic_share = 0.0,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 1,
                .max_sans = 5,
                .sct_count = 2,
                .url_host = "amazontrust.com"},
       .parents_pqc = {}});
  add({.id = profile_id::comodo,
       .display = "cPanel, Inc. CA + COMODO RSA CA (legacy)",
       .parents = share({cpanel_ca, comodo_root}),
       .quic_share = 0.0,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 1,
                .max_sans = 6,
                .sct_count = 3,
                .url_host = "comodoca.com"},
       .parents_pqc = {}});
  add({.id = profile_id::godaddy,
       .display = "GoDaddy Secure CA - G2",
       .parents = share({godaddy_g2}),
       .quic_share = 0.0,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 1,
                .max_sans = 4,
                .sct_count = 2,
                .url_host = "godaddy.com"},
       .parents_pqc = {}});
  add({.id = profile_id::comodo_with_root,
       .display = "Sectigo RSA DV + USERTrust + COMODO root (superfluous anchor)",
       .parents = share({sectigo_dv, usertrust_root, comodo_root}),
       .quic_share = 0.0,
       .leaf = {.key_alg = key_algorithm::rsa_2048,
                .min_sans = 1,
                .max_sans = 4,
                .sct_count = 3,
                .url_host = "sectigo.com"},
       .parents_pqc = {}});

  // ML-DSA twins of every distinct named parent, for pqc_full chains.
  // Drawn from a dedicated stream so the classical parents above — and
  // every golden output derived from them — keep their exact bytes.
  rng pq_rng{seed ^ 0x90C5'0D5AULL};
  std::vector<std::pair<const certificate*,
                        std::shared_ptr<const certificate>>>
      twins;
  for (auto& p : eco.profiles_) {
    x509::parent_list parents_pqc;
    parents_pqc.reserve(p.parents->size());
    for (const auto& parent : *p.parents) {
      std::shared_ptr<const certificate> twin;
      for (const auto& [classical, existing] : twins) {
        if (classical == parent.get()) {
          twin = existing;
          break;
        }
      }
      if (!twin) {
        twin = make_pqc_twin(*parent, pq_rng);
        twins.emplace_back(parent.get(), twin);
      }
      parents_pqc.push_back(std::move(twin));
    }
    p.parents_pqc = share(std::move(parents_pqc));
  }
  return eco;
}

x509::chain ecosystem::issue(const chain_profile& profile,
                             const std::string& domain, rng& r,
                             x509::pq_profile pq,
                             std::optional<key_algorithm> leaf_key) const {
  const auto& shared = pq == x509::pq_profile::pqc_full ? profile.parents_pqc
                                                        : profile.parents;
  const x509::parent_list& parents = *shared;
  const leaf_profile& lp = profile.leaf;
  certificate_spec spec;
  // The leaf's issuer is its parent's subject, copied as encoded.
  spec.issuer = parents.empty() ? name_ref::common_name("Unknown Issuer")
                                : name_ref{parents.front()->subject()};
  spec.subject = name_ref::common_name(domain);
  // The classical key draw is consumed under every profile so a
  // record's chain keeps its structure (SANs, SCT count) across the
  // PQC sweep; both PQC stages then put ML-DSA-44 on the leaf.
  if (leaf_key) {
    spec.key_alg = *leaf_key;
  } else {
    spec.key_alg = (lp.rsa_mix > 0.0 && r.chance(lp.rsa_mix))
                       ? key_algorithm::rsa_2048
                       : lp.key_alg;
  }
  if (pq != x509::pq_profile::classical) {
    spec.key_alg = key_algorithm::mldsa_44;
  }
  const key_algorithm issuing_key = parents.empty()
                                        ? key_algorithm::rsa_2048
                                        : parents.front()->key_alg();
  spec.sig_alg = x509::signature_by(issuing_key);

  const auto extra = r.uniform(lp.min_sans > 0 ? lp.min_sans - 1 : 0,
                               lp.max_sans > 0 ? lp.max_sans - 1 : 0);
  std::vector<x509::dns_name>& sans = san_scratch(domain);
  for (std::uint64_t i = 0; i < extra; ++i) {
    sans.push_back({i == 0 ? "www" : r.ascii_label(3, 10), domain});
  }

  const std::string_view host = lp.url_host;
  auto leaf = issue_leaf(
      spec, r, sans, lp.organization_validated,
      {.cps = lp.lean_extensions ? pieces{} : pieces{"http://", host, "/cps"},
       .ocsp = {"http://ocsp.", host},
       .ca_issuers = {"http://", host, "/ca.crt"},
       .crl = lp.lean_extensions ? pieces{}
                                 : pieces{"http://crl.", host, "/ca.crl"}},
      [&] {
        return lp.sct_count > 1 && r.chance(0.5) ? lp.sct_count - 1
                                                 : lp.sct_count;
      });
  return x509::chain{std::move(leaf), shared};
}

x509::chain ecosystem::issue_other(const std::string& domain, rng& r,
                                   const other_chain_options& opt) const {
  // Long-tail CA: random identity, depth 1-4, Table 2 algorithm mixes.
  // QUIC-flavoured tails skew ECDSA and small; HTTPS-only tails skew RSA
  // and reach the 38 kB monsters of Fig. 6. Its names and URLs are
  // composed from views of its label, e.g. "<label> Trust Services" and
  // "http://<label>.example/cps": no string is built for them.
  const std::string ca_label = r.ascii_label(4, 12);
  static constexpr std::string_view kDomain = ".example";
  const pieces ca_org{ca_label, " Trust Services"};

  // Table 2 non-leaf mixes: QUIC {RSA2048, RSA4096, EC256, EC384} =
  // {15.1, 22.4, 40.4, 22.1}%; HTTPS-only = {63.3, 32.1, 2.7, 1.6}%.
  static constexpr double kQuicNonLeaf[] = {0.151, 0.224, 0.404, 0.221};
  static constexpr double kHttpsNonLeaf[] = {0.633, 0.321, 0.027, 0.016};
  static constexpr key_algorithm kAlgs[] = {
      key_algorithm::rsa_2048, key_algorithm::rsa_4096,
      key_algorithm::ecdsa_p256, key_algorithm::ecdsa_p384};
  // The classical draw is always consumed so the tail hierarchy (depth,
  // names, SANs) is identical across chain profiles; pqc_full then
  // replaces the algorithms: ML-DSA-87 root, ML-DSA-65 intermediates.
  const bool pqc_full = opt.pq == x509::pq_profile::pqc_full;
  auto pick_nonleaf = [&](bool root) {
    const key_algorithm classical =
        kAlgs[r.weighted_index(opt.quic_flavor ? kQuicNonLeaf
                                               : kHttpsNonLeaf)];
    if (!pqc_full) {
      return classical;
    }
    return root ? key_algorithm::mldsa_87 : key_algorithm::mldsa_65;
  };

  // Depth distribution: mostly a single intermediate; monsters are rare
  // and deep. A "monster" event also inflates per-certificate content.
  const bool monster = r.chance(opt.quic_flavor ? 0.005 : 0.012);
  std::size_t depth;
  if (monster) {
    depth = 3 + r.uniform(0, 3);  // 3-6 parents
  } else {
    const double d = r.uniform01();
    depth = d < 0.55 ? 1 : (d < 0.9 ? 2 : 3);
  }

  // Issued top-down, root first, and served leaf-first: the list is
  // sized once and filled from its back.
  const name_ref root_dn =
      name_ref::org("US", ca_org, {ca_label, " Root CA"});
  const key_algorithm root_key = pick_nonleaf(true);
  const bool include_anchor = r.chance(0.15);  // superfluous root
  auto parents =
      std::make_shared<x509::parent_list>(depth + (include_anchor ? 1 : 0));
  std::size_t next = parents->size();
  if (include_anchor) {
    rng root_rng = r.fork(1);
    (*parents)[--next] =
        make_ca_cert(root_rng, root_dn, root_dn, root_key, root_key,
                     ca_style::root, ca_label, kDomain);
  }
  // Each level is issued by the one above: the root's name, then the
  // encoded subject of the certificate issued last.
  name_ref parent_name = root_dn;
  key_algorithm parent_key = root_key;
  for (std::size_t level = 0; level < depth; ++level) {
    // At most six levels: the level number is one digit.
    const char number = static_cast<char>('1' + level);
    const name_ref dn = name_ref::org(
        "US", ca_org, {ca_label, " CA ", std::string_view{&number, 1}});
    const key_algorithm key = pick_nonleaf(false);
    rng level_rng = r.fork(100 + level);
    std::shared_ptr<const certificate>& cert = (*parents)[--next];
    cert = make_ca_cert(level_rng, dn, parent_name, key, parent_key,
                        ca_style::intermediate, ca_label, kDomain);
    if (monster) {
      // Monster chains in the wild carry bloated intermediates
      // (government/enterprise CAs with enormous policy statements,
      // kilobyte CPS texts and piles of embedded SCTs). Model by
      // re-issuing with oversized policy content; HTTPS-only tails are
      // allowed to grow larger than QUIC tails (Fig. 6: 38 kB vs 18 kB).
      const certificate_spec spec{
          .issuer = parent_name,
          .subject = dn,
          .valid = {},
          .key_alg =
              pqc_full ? key_algorithm::mldsa_65 : key_algorithm::rsa_4096,
          .sig_alg = x509::signature_by(
              pqc_full ? key_algorithm::mldsa_87 : key_algorithm::rsa_4096)};
      const std::size_t cps_len =
          opt.quic_flavor ? 300 + level_rng.uniform(0, 500)
                          : 900 + level_rng.uniform(0, 2600);
      cert = std::make_shared<const certificate>(
          spec, level_rng, [&](asn1::der_writer& w) {
            x509::write_basic_constraints(w, true, 0);
            x509::write_key_usage(w, 0x86);
            x509::write_subject_key_id(w, level_rng);
            const std::string cps_path =
                level_rng.ascii_label(cps_len, cps_len + 200);
            x509::write_certificate_policies(
                w, true, {"http://", ca_label, ".example/cps/", cps_path});
            x509::write_sct_list(w, 3 + level_rng.uniform(0, 5), level_rng);
          });
    }
    parent_name = cert->subject();
    parent_key = key;
  }

  // Leaf algorithm, Table 2 leaf mixes: QUIC {19.2, 1.4, 78.9, 0.5}%;
  // HTTPS-only {81.4, 8.1, 7.8, 1.9}% (residuals folded into EC384).
  static constexpr double kQuicLeaf[] = {0.192, 0.014, 0.789, 0.005};
  static constexpr double kHttpsLeaf[] = {0.814, 0.081, 0.078, 0.019};
  key_algorithm leaf_key =
      kAlgs[r.weighted_index(opt.quic_flavor ? kQuicLeaf : kHttpsLeaf)];
  if (opt.pq != x509::pq_profile::classical) {
    leaf_key = key_algorithm::mldsa_44;
  }

  const certificate_spec spec{.issuer = parent_name,
                              .subject = name_ref::common_name(domain),
                              .valid = {},
                              .key_alg = leaf_key,
                              .sig_alg = x509::signature_by(parent_key)};
  const auto extra = r.uniform(0, monster ? 40 : 4);
  std::vector<x509::dns_name>& sans = san_scratch(domain);
  sans.push_back({"www", domain});
  for (std::uint64_t i = 0; i < extra; ++i) {
    sans.push_back({r.ascii_label(3, 12), domain});
  }
  auto leaf = issue_leaf(
      spec, r, sans, false,
      {.cps = {"http://", ca_label, kDomain, "/cps"},
       .ocsp = {"http://ocsp.", ca_label, kDomain},
       .ca_issuers = {"http://", ca_label, kDomain, "/ca.crt"},
       .crl = {}},
      [&] { return 1 + r.uniform(0, 2); });
  return x509::chain{std::move(leaf), std::move(parents)};
}

x509::chain ecosystem::issue_cruise_liner(const std::string& domain,
                                          std::size_t san_count, rng& r,
                                          x509::pq_profile pq) const {
  const chain_profile& base = profile(profile_id::cpanel);
  const auto& shared =
      pq == x509::pq_profile::pqc_full ? base.parents_pqc : base.parents;
  const x509::parent_list& parents = *shared;
  const certificate_spec spec{
      .issuer = parents.front()->subject(),
      .subject = name_ref::common_name(domain),
      .valid = {},
      .key_alg = pq == x509::pq_profile::classical ? key_algorithm::rsa_2048
                                                   : key_algorithm::mldsa_44,
      .sig_alg = x509::signature_by(parents.front()->key_alg())};
  std::vector<x509::dns_name>& sans = san_scratch(domain);
  for (std::size_t i = 0; i < san_count; ++i) {
    // Shared-hosting SANs: unrelated customer domains on one cert.
    // The TLD is drawn before the label, the order these draws have
    // always had.
    const char* tld = r.chance(0.5) ? "com" : "net";
    sans.push_back({r.ascii_label(4, 14), tld});
  }
  auto leaf = issue_leaf(
      spec, r, sans, false,
      {.cps = "http://comodoca.com/cps", .ocsp = {}, .ca_issuers = {},
       .crl = {}},
      [] { return std::size_t{3}; });
  return x509::chain{std::move(leaf), shared};
}

bytes ecosystem::compression_dictionary() const {
  bytes dict;
  // Common DER fragments first (coldest part of the window)...
  for (const char* fragment :
       {"http://ocsp.", "http://crl.", "/cps", ".com/", ".org/", "www.",
        "Let's Encrypt", "DigiCert Inc", "Sectigo Limited",
        "Google Trust Services LLC", "Cloudflare, Inc.", "Amazon",
        "GlobalSign nv-sa", "Domain Control Validated"}) {
    append(dict, std::string_view{fragment});
  }
  for (std::size_t i = 0; i < 8; ++i) {
    append(dict, x509::well_known_log_id(i));
  }
  // ...then every named parent certificate: the hottest content, since
  // most served chains consist largely of these exact bytes.
  std::vector<const x509::certificate*> seen;
  for (const auto& p : profiles_) {
    for (const auto& parent : *p.parents) {
      if (std::find(seen.begin(), seen.end(), parent.get()) == seen.end()) {
        seen.push_back(parent.get());
        append(dict, parent->der());
      }
    }
  }
  return dict;
}

}  // namespace certquic::ca
