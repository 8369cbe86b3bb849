// Unit tests for the CA ecosystem model.
#include <gtest/gtest.h>

#include <set>
#include <string_view>

#include "ca/ecosystem.hpp"

namespace certquic::ca {
namespace {

class EcosystemTest : public ::testing::Test {
 protected:
  ecosystem eco_ = ecosystem::make();
};

TEST_F(EcosystemTest, SharesMatchPaperCoverage) {
  double quic_total = 0.0;
  for (const auto& p : eco_.profiles()) {
    quic_total += p.quic_share;
  }
  // Fig. 7a: the top-10 chains cover 96.5% of QUIC services.
  EXPECT_NEAR(quic_total, 0.965, 0.002);
}

TEST_F(EcosystemTest, CloudflareDominatesQuic) {
  const auto& cf = eco_.profile(profile_id::cloudflare);
  EXPECT_NEAR(cf.quic_share, 0.6154, 1e-6);
  for (const auto& p : eco_.profiles()) {
    EXPECT_LE(p.quic_share, cf.quic_share);
  }
}

TEST_F(EcosystemTest, ProfileIdsIndexTheirOwnProfiles) {
  // profiles()[id] is the profile `id` for every enumerator but
  // `other`, and no two ids print alike.
  ASSERT_EQ(eco_.profiles().size(), kNamedProfiles);
  std::set<std::string_view> printed;
  for (std::size_t i = 0; i <= kNamedProfiles; ++i) {
    const auto id = static_cast<profile_id>(i);
    if (id != profile_id::other) {
      EXPECT_EQ(eco_.profiles()[i].id, id) << to_string(id);
      EXPECT_EQ(&eco_.profile(id), &eco_.profiles()[i]) << to_string(id);
    }
    EXPECT_TRUE(printed.insert(to_string(id)).second) << to_string(id);
  }
  EXPECT_EQ(to_string(profile_id::other), "other");
}

TEST_F(EcosystemTest, CloudflareChainIsShortestAmongTopChains) {
  // §4.2: "the shortest chains ... are issued by Cloudflare".
  const auto cf_size = eco_.profile(profile_id::cloudflare).parent_wire_size();
  for (const profile_id id : {profile_id::le_r3_x1cross, profile_id::sectigo,
                              profile_id::cpanel, profile_id::gts_1c3}) {
    EXPECT_LT(cf_size, eco_.profile(id).parent_wire_size()) << to_string(id);
  }
}

TEST_F(EcosystemTest, ParentSizesAreRealistic) {
  // Real-world sizes (±25%): CF ECC CA-3 ~1.1k; R3+X1 ~2.6-3.3k parents;
  // Sectigo+USERTrust ~3.0-3.9k.
  const auto cf = eco_.profile(profile_id::cloudflare).parent_wire_size();
  EXPECT_GT(cf, 800u);
  EXPECT_LT(cf, 1500u);
  const auto le = eco_.profile(profile_id::le_r3_x1cross).parent_wire_size();
  EXPECT_GT(le, 2300u);
  EXPECT_LT(le, 3600u);
  const auto sectigo = eco_.profile(profile_id::sectigo).parent_wire_size();
  EXPECT_GT(sectigo, 2600u);
  EXPECT_LT(sectigo, 4200u);
}

TEST_F(EcosystemTest, EcdsaChainsSmallerThanRsaChains) {
  // §5 guidance rests on ECDSA chains being substantially smaller.
  EXPECT_LT(eco_.profile(profile_id::le_e1_x2).parent_wire_size(),
            eco_.profile(profile_id::le_r3_x1cross).parent_wire_size());
}

TEST_F(EcosystemTest, IssueProducesValidChain) {
  rng r{42};
  const auto chain =
      eco_.issue(eco_.profile(profile_id::cloudflare), "example.org", r);
  EXPECT_EQ(chain.depth(), 2u);
  using x509::distinguished_name;
  EXPECT_EQ(distinguished_name::decode(chain.leaf().subject()).common_name(),
            "example.org");
  EXPECT_EQ(distinguished_name::decode(chain.leaf().issuer()).common_name(),
            "Cloudflare Inc ECC CA-3");
  EXPECT_FALSE(chain.leaf().is_ca());
  const auto sans = chain.leaf().subject_alt_names();
  ASSERT_GE(sans.size(), 1u);
  EXPECT_EQ(sans[0], "example.org");
}

TEST_F(EcosystemTest, IssueIsDeterministicInRng) {
  rng r1{7};
  rng r2{7};
  const auto& le_r3 = eco_.profile(profile_id::le_r3);
  const auto a = eco_.issue(le_r3, "same.example", r1);
  const auto b = eco_.issue(le_r3, "same.example", r2);
  EXPECT_EQ(a.leaf().der(), b.leaf().der());
}

TEST_F(EcosystemTest, SharedParentsAreReusedAcrossIssuance) {
  rng r{1};
  const auto& cf = eco_.profile(profile_id::cloudflare);
  const auto a = eco_.issue(cf, "a.example", r);
  const auto b = eco_.issue(cf, "b.example", r);
  EXPECT_EQ(&a.parents(), &b.parents());  // the profile's one list
  EXPECT_EQ(&a.parents(), cf.parents.get());
  EXPECT_NE(a.leaf().der(), b.leaf().der());
}

TEST_F(EcosystemTest, SuperfluousAnchorRowIncludesTrustAnchor) {
  rng r{2};
  const auto chain =
      eco_.issue(eco_.profile(profile_id::comodo_with_root), "legacy.example",
                 r);
  EXPECT_TRUE(chain.includes_trust_anchor());
  const auto clean =
      eco_.issue(eco_.profile(profile_id::sectigo), "ok.example", r);
  EXPECT_FALSE(clean.includes_trust_anchor());
}

TEST_F(EcosystemTest, CrossSignVariantLargerThanPlainR3) {
  // Rows 2/3 vs row "le-r3": including ISRG Root X1 adds ~1.3-1.6 kB.
  const auto with_cross =
      eco_.profile(profile_id::le_r3_x1cross).parent_wire_size();
  const auto plain = eco_.profile(profile_id::le_r3).parent_wire_size();
  EXPECT_GT(with_cross, plain + 1000);
}

TEST_F(EcosystemTest, OtherChainsCoverDepthRange) {
  rng r{3};
  std::set<std::size_t> depths;
  std::size_t max_size = 0;
  for (int i = 0; i < 300; ++i) {
    const auto chain = eco_.issue_other("tail" + std::to_string(i) + ".example",
                                        r, {.quic_flavor = false});
    depths.insert(chain.depth());
    max_size = std::max(max_size, chain.wire_size());
    EXPECT_GE(chain.depth(), 2u);
  }
  EXPECT_GE(depths.size(), 3u);
  // The HTTPS-only tail must reach well past the amplification limits.
  EXPECT_GT(max_size, 8000u);
}

TEST_F(EcosystemTest, QuicFlavorSkewsSmaller) {
  rng r{4};
  double quic_total = 0.0;
  double https_total = 0.0;
  constexpr int kN = 400;
  for (int i = 0; i < kN; ++i) {
    quic_total += static_cast<double>(
        eco_.issue_other("q.example", r, {.quic_flavor = true}).wire_size());
    https_total += static_cast<double>(
        eco_.issue_other("h.example", r, {.quic_flavor = false}).wire_size());
  }
  EXPECT_LT(quic_total / kN, https_total / kN);
}

TEST_F(EcosystemTest, CruiseLinerSanBytesDominate) {
  rng r{5};
  const auto chain = eco_.issue_cruise_liner("host.example", 120, r);
  const auto& leaf = chain.leaf();
  EXPECT_EQ(leaf.subject_alt_names().size(), 121u);
  const double share = static_cast<double>(leaf.san_bytes()) /
                       static_cast<double>(leaf.size());
  EXPECT_GT(share, 0.4);  // SANs dominate a 120-name certificate
}

TEST_F(EcosystemTest, CompressionDictionaryContainsParents) {
  const bytes dict = eco_.compression_dictionary();
  // Must contain at least the ~18 named parent certificates.
  EXPECT_GT(dict.size(), 10000u);
  EXPECT_LT(dict.size(), 64000u);
}

TEST_F(EcosystemTest, MakeIsDeterministic) {
  auto a = ecosystem::make(123);
  auto b = ecosystem::make(123);
  ASSERT_EQ(a.profiles().size(), b.profiles().size());
  for (std::size_t i = 0; i < a.profiles().size(); ++i) {
    EXPECT_EQ(a.profiles()[i].parent_wire_size(),
              b.profiles()[i].parent_wire_size());
  }
}

}  // namespace
}  // namespace certquic::ca
