// The Web CA ecosystem model: the named certificate hierarchies of
// Figure 7 plus a heavy-tailed generator for everything else.
//
// Calibration constants in this header are taken from the paper:
//  * chain shares for QUIC services (Fig. 7a, 96.5% top-10 coverage) and
//    HTTPS-only services (Fig. 7b, 72% coverage);
//  * leaf key-algorithm mixes per deployment class (Table 2);
//  * chain-size tails up to 18 kB (QUIC) / 38 kB (HTTPS-only) (Fig. 6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "x509/chain.hpp"

namespace certquic::ca {

/// The named parent chains of Figure 7, one enumerator per profile in
/// ecosystem::make order (Fig. 7a/7b row order), so
/// ecosystem::profiles()[id] is the profile. `other` is the long tail
/// ecosystem::issue_other generates; it has no table entry.
enum class profile_id : std::uint8_t {
  cloudflare,
  le_r3_x1cross,
  le_r3_x1cross_ec,
  le_r3,
  le_e1_x2,
  gts_1c3,
  le_r3_x1self,
  gts_1d4,
  sectigo,
  cpanel,
  globalsign,
  digicert,
  amazon,
  comodo,
  godaddy,
  comodo_with_root,
  other,
};

/// Number of named profiles: every profile_id before `other`.
inline constexpr std::size_t kNamedProfiles =
    static_cast<std::size_t>(profile_id::other);

/// Printable id, e.g. "le-r3-x1cross", or "other".
[[nodiscard]] std::string_view to_string(profile_id id) noexcept;

/// Leaf issuance parameters for one chain profile.
struct leaf_profile {
  x509::key_algorithm key_alg = x509::key_algorithm::ecdsa_p256;
  /// Weight of RSA-2048 leaves (vs `key_alg`) for profiles with mixed
  /// issuance; 0 = always `key_alg`.
  double rsa_mix = 0.0;
  std::size_t min_sans = 1;
  std::size_t max_sans = 4;
  /// Upper bound on embedded SCTs; issuance samples sct_count or
  /// sct_count-1 with equal probability (real logs vary per batch).
  std::size_t sct_count = 2;
  bool organization_validated = false;
  /// Lean issuance (Let's Encrypt style): no CRL distribution point and
  /// no CPS qualifier on the leaf.
  bool lean_extensions = false;
  /// CA operational host used in AIA/CRL/CPS URLs, e.g. "r3.o.lencr.org".
  std::string url_host;
};

/// One deployed parent-chain variant — a row of Figure 7.
struct chain_profile {
  profile_id id = profile_id::other;
  std::string display;  // "Let's Encrypt R3 + ISRG Root X1 (DST cross)"
  /// Parent certificates in served order (leaf's issuer first): one
  /// list that every chain issued under the profile shares.
  std::shared_ptr<const x509::parent_list> parents;
  /// Share of QUIC services using this chain (Fig. 7a), fraction.
  double quic_share = 0.0;
  leaf_profile leaf;
  /// ML-DSA twins of `parents` (same hierarchy and served order), used
  /// when issuing under x509::pq_profile::pqc_full. Built by make()
  /// from a dedicated rng stream, so the classical parents — and every
  /// golden figure derived from them — are byte-identical with or
  /// without the PQC axis.
  std::shared_ptr<const x509::parent_list> parents_pqc;

  /// Sum of parent DER sizes (the white boxes of Fig. 7).
  [[nodiscard]] std::size_t parent_wire_size() const;
};

/// Options for the long-tail ("other chains") generator.
struct other_chain_options {
  /// True for QUIC-flavoured tails (smaller, more ECDSA — Table 2),
  /// false for HTTPS-only flavour (larger, RSA-heavy).
  bool quic_flavor = true;
  /// Chain profile to issue under. The generator consumes the same
  /// random draws for every profile, so a record's tail chain keeps its
  /// depth, SAN mix and hierarchy across profiles — only the key and
  /// signature material changes.
  x509::pq_profile pq = x509::pq_profile::classical;
};

/// The modelled CA universe.
class ecosystem {
 public:
  /// Builds every named CA hierarchy; deterministic for a given seed.
  [[nodiscard]] static ecosystem make(std::uint64_t seed = 0xCA12);

  /// Profiles in Fig. 7a/7b row order (largest share first).
  [[nodiscard]] const std::vector<chain_profile>& profiles() const noexcept {
    return profiles_;
  }

  /// The named profile `id`; `other` names no profile.
  [[nodiscard]] const chain_profile& profile(profile_id id) const noexcept {
    CERTQUIC_ASSERT(id != profile_id::other, "`other` has no profile");
    return profiles_[static_cast<std::size_t>(id)];
  }

  /// Issues a leaf for `domain` under the given profile and returns the
  /// served chain: the leaf plus the profile's shared parent list.
  /// Deterministic in `r`. The chain profile selects the PQC what-if
  /// stage: `pqc_leaf` swaps the leaf key for ML-DSA-44, `pqc_full`
  /// additionally serves the ML-DSA parent twins and post-quantum
  /// signatures. A `leaf_key` override replaces the profile's leaf key
  /// mix and consumes no mix draw.
  [[nodiscard]] x509::chain issue(
      const chain_profile& profile, const std::string& domain, rng& r,
      x509::pq_profile pq = x509::pq_profile::classical,
      std::optional<x509::key_algorithm> leaf_key = std::nullopt) const;

  /// Issues a chain from the long tail of small CAs: random hierarchy
  /// depth 1-4, occasionally a superfluous trust anchor, and rare
  /// monster chains reproducing the 18-38 kB tails of Fig. 6.
  [[nodiscard]] x509::chain issue_other(const std::string& domain, rng& r,
                                        const other_chain_options& opt) const;

  /// Issues a "cruise-liner" leaf (Appendix E): a SAN-heavy certificate
  /// whose SAN count follows a bounded-Pareto distribution.
  [[nodiscard]] x509::chain issue_cruise_liner(
      const std::string& domain, std::size_t san_count, rng& r,
      x509::pq_profile pq = x509::pq_profile::classical) const;

  /// Shared compression dictionary: every named parent certificate,
  /// well-known CT log ids and common OID/URL/name fragments — the role
  /// brotli's built-in dictionary plays for real chains.
  [[nodiscard]] bytes compression_dictionary() const;

 private:
  std::vector<chain_profile> profiles_;
};

}  // namespace certquic::ca
