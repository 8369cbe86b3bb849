// Chain-materialization suite: pins the exact DER bytes model::chain_of
// produces over a fixed sample that reaches every issuance path, and
// bounds the heap allocations one chain_of call may make.
//
// The pin is a byte-level contract. Any encoder or issuance change that
// moves a single DER byte moves every figure built from certificate
// sizes, so it must fail here first.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "asn1/der.hpp"
#include "engine/probe_plan.hpp"
#include "internet/model.hpp"

namespace {

// Counts every global operator new in this binary; the budget test
// reads the delta around a serial run of chain_of calls.
std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Both sides stay out of line so the compiler never pairs an inlined
// malloc with a delete call at some call site and warns.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc{};
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace certquic::internet {
namespace {

const model& shared_model() {
  static const model m = model::generate({.domains = 8000, .seed = 42});
  return m;
}

/// FNV-1a 64 over every chain's concatenated DER, each prefixed with its
/// length so chain boundaries are part of the digest.
struct der_digest {
  std::uint64_t h = 0xcbf2'9ce4'8422'2325ULL;
  std::size_t chains = 0;
  std::size_t bytes_total = 0;

  void mix_byte(std::uint8_t b) {
    h ^= b;
    h *= 0x0000'0100'0000'01b3ULL;
  }
  void add(const x509::chain& c) {
    const bytes der = c.concatenated_der();
    for (int shift = 0; shift < 64; shift += 8) {
      mix_byte(static_cast<std::uint8_t>(der.size() >> shift));
    }
    for (const std::uint8_t b : der) {
      mix_byte(b);
    }
    ++chains;
    bytes_total += der.size();
  }
};

/// A monster chain carries an intermediate with a bloated policy and SCT
/// pile; ordinary tail intermediates stay far below 800 extension bytes.
bool is_monster(const x509::chain& c) {
  for (const auto& parent : c.parents()) {
    if (parent->sizes().extensions > 800) {
      return true;
    }
  }
  return false;
}

/// One chain_of call of the pinned sample.
struct fetch {
  const service_record* rec;
  fetch_protocol proto;
  x509::pq_profile pq;

  [[nodiscard]] x509::chain issue(const model& m) const {
    return m.chain_of(*rec, proto, pq);
  }
};

/// The pinned sample: a fixed list of chain_of calls that reaches every
/// issuance path, in digest order.
std::vector<fetch> pinned_sample(const model& m) {
  const auto& recs = m.records();
  std::vector<fetch> out;
  const auto add = [&out](const service_record& rec, fetch_protocol proto,
                          x509::pq_profile pq = x509::pq_profile::classical) {
    out.push_back({&rec, proto, pq});
  };

  // 1. The first 200 TLS services over HTTPS, in rank order.
  std::size_t head = 0;
  for (const auto& rec : recs) {
    if (rec.serves_tls() && head++ < 200) {
      add(rec, fetch_protocol::https);
    }
  }

  // 2. The first service of every named profile, plus the first forced
  //    RSA leaf.
  std::set<ca::profile_id> profiles_seen;
  bool forced_rsa = false;
  for (const auto& rec : recs) {
    if (!rec.serves_tls() || rec.cruise_sans > 0 ||
        rec.profile == ca::profile_id::other) {
      continue;
    }
    if (profiles_seen.insert(rec.profile).second) {
      add(rec, fetch_protocol::https);
    }
    if (rec.force_rsa_leaf && !forced_rsa) {
      forced_rsa = true;
      add(rec, fetch_protocol::https);
    }
  }
  EXPECT_GE(profiles_seen.size(), 10u);
  EXPECT_TRUE(forced_rsa);

  // 3. The long tail, up to and including its first monster chain.
  const service_record* monster = nullptr;
  for (const auto& rec : recs) {
    if (!rec.serves_tls() || rec.cruise_sans > 0 ||
        rec.profile != ca::profile_id::other) {
      continue;
    }
    add(rec, fetch_protocol::https);
    if (is_monster(m.chain_of(rec, fetch_protocol::https))) {
      monster = &rec;
      break;
    }
  }

  // 4. Cruise liners and rotated certificates fetched over QUIC.
  const service_record* cruise = nullptr;
  std::size_t rotated = 0;
  for (const auto& rec : recs) {
    if (rec.cruise_sans > 0 && cruise == nullptr) {
      cruise = &rec;
      add(rec, fetch_protocol::https);
    }
    if (rec.rotated_cert && rec.serves_quic() && rotated < 5) {
      ++rotated;
      add(rec, fetch_protocol::quic);
    }
  }
  EXPECT_EQ(rotated, 5u);
  if (monster == nullptr || cruise == nullptr) {
    ADD_FAILURE() << "the sample reaches no monster chain or cruise liner";
    return {};
  }

  // 5. Both PQC stages over a named chain, the monster and the liner.
  std::vector<const service_record*> pqc_recs;
  for (const auto& rec : recs) {
    if (rec.serves_tls() && rec.profile != ca::profile_id::other &&
        rec.cruise_sans == 0) {
      pqc_recs.push_back(&rec);
      break;
    }
  }
  pqc_recs.push_back(monster);
  pqc_recs.push_back(cruise);
  for (const auto pq : {x509::pq_profile::pqc_leaf,
                        x509::pq_profile::pqc_full}) {
    for (const service_record* rec : pqc_recs) {
      add(*rec, fetch_protocol::https, pq);
    }
  }
  return out;
}

TEST(ChainDer, BytesArePinnedOverEveryIssuancePath) {
  const model& m = shared_model();
  der_digest d;
  for (const fetch& f : pinned_sample(m)) {
    d.add(f.issue(m));
  }
  // Taken before the single-buffer DER writer replaced the
  // concatenating encoder; the bytes must never move.
  EXPECT_EQ(d.chains, 258u);
  EXPECT_EQ(d.bytes_total, 1097414u);
  EXPECT_EQ(d.h, 0x68d1'08d1'de65'fbc0ULL);
}

/// A TLV read back from DER with its full encoded size.
struct element {
  asn1::tlv tlv;
  std::size_t size = 0;
};

/// Every TLV in `content`, in order.
std::vector<element> elements(bytes_view content) {
  std::vector<element> out;
  buffer_reader r{content};
  while (!r.empty()) {
    const std::size_t before = r.remaining();
    const asn1::tlv t = asn1::read_tlv(r);
    out.push_back({t, before - r.remaining()});
  }
  return out;
}

/// `v` without its leading zero octets; at least one octet stays.
bytes_view without_leading_zeros(bytes_view v) {
  std::size_t skip = 0;
  while (skip + 1 < v.size() && v[skip] == 0) {
    ++skip;
  }
  return v.subspan(skip);
}

bool same_bytes(bytes_view a, bytes_view b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

TEST(ChainDer, FieldSizesMatchADerWalk) {
  // The facts Figs. 2b, 8 and 14 and Table 2 read, recomputed from each
  // certificate's DER alone with the decoder, independently of the
  // offsets the writer measured while encoding.
  static constexpr std::uint8_t kSanOid[] = {0x55, 0x1d, 0x11};
  static constexpr std::uint8_t kBasicConstraintsOid[] = {0x55, 0x1d, 0x13};
  const model& m = shared_model();
  std::size_t certs = 0;
  std::size_t cas = 0;
  std::size_t anchors = 0;
  for (const fetch& f : pinned_sample(m)) {
    const x509::chain chain = f.issue(m);
    bool leaf = true;
    chain.for_each([&](const x509::certificate& cert) {
      ++certs;
      const bytes_view der = cert.der();
      const std::vector<element> whole = elements(der);
      ASSERT_EQ(whole.size(), 1u);
      ASSERT_TRUE(whole[0].tlv.is(asn1::tag::sequence));
      const std::vector<element> outer = elements(whole[0].tlv.content);
      ASSERT_EQ(outer.size(), 3u);  // TBSCertificate, sigAlg, signature
      const std::vector<element> tbs = elements(outer[0].tlv.content);
      ASSERT_EQ(tbs.size(), 8u);  // version .. [3] extensions
      ASSERT_TRUE(tbs[1].tlv.is(asn1::tag::integer));
      ASSERT_EQ(tbs[7].tlv.tag_byte, asn1::context_tag(3));
      const std::vector<element> ext_block = elements(tbs[7].tlv.content);
      ASSERT_EQ(ext_block.size(), 1u);
      ASSERT_TRUE(ext_block[0].tlv.is(asn1::tag::sequence));

      const x509::field_sizes& s = cert.sizes();
      EXPECT_EQ(s.total, der.size());
      EXPECT_EQ(s.issuer, tbs[3].size);
      EXPECT_EQ(s.subject, tbs[5].size);
      EXPECT_EQ(s.public_key_info, tbs[6].size);
      EXPECT_EQ(s.extensions, ext_block[0].size);
      EXPECT_EQ(s.signature, outer[2].size);
      ASSERT_TRUE(outer[2].tlv.is(asn1::tag::bit_string));

      // The serial: 16 bytes, top bit clear, the magnitude of the
      // minimal positive INTEGER the certificate carries.
      const auto& serial = cert.serial();
      ASSERT_EQ(serial.size(), 16u);
      EXPECT_EQ(serial[0] & 0x80, 0);
      const bytes_view integer = tbs[1].tlv.content;
      ASSERT_FALSE(integer.empty());
      EXPECT_EQ(integer[0] & 0x80, 0);
      EXPECT_TRUE(integer.size() == 1 || integer[0] != 0 ||
                  (integer[1] & 0x80) != 0);
      EXPECT_TRUE(same_bytes(without_leading_zeros(integer),
                             without_leading_zeros(serial)));

      std::size_t san = 0;
      bool is_ca = false;
      for (const element& ext : elements(ext_block[0].tlv.content)) {
        const std::vector<element> parts = elements(ext.tlv.content);
        ASSERT_GE(parts.size(), 2u);
        ASSERT_TRUE(parts[0].tlv.is(asn1::tag::object_identifier));
        ASSERT_TRUE(parts.back().tlv.is(asn1::tag::octet_string));
        if (same_bytes(parts[0].tlv.content, kSanOid)) {
          san += ext.size;
        }
        if (same_bytes(parts[0].tlv.content, kBasicConstraintsOid)) {
          // cA is the optional leading BOOLEAN of BasicConstraints.
          const std::vector<element> value = elements(parts.back().tlv.content);
          ASSERT_EQ(value.size(), 1u);
          const std::vector<element> fields = elements(value[0].tlv.content);
          is_ca = !fields.empty() && fields[0].tlv.is(asn1::tag::boolean) &&
                  fields[0].tlv.content.size() == 1 &&
                  fields[0].tlv.content[0] == 0xff;
        }
      }
      EXPECT_EQ(cert.san_bytes(), san);
      EXPECT_EQ(cert.is_ca(), is_ca);
      EXPECT_EQ(is_ca, !leaf);
      EXPECT_EQ(cert.self_signed(),
                same_bytes(tbs[3].tlv.content, tbs[5].tlv.content));
      cas += is_ca ? 1 : 0;
      anchors += cert.self_signed() ? 1 : 0;
      leaf = false;
    });
  }
  EXPECT_EQ(certs, 723u);
  EXPECT_GT(cas, 0u);
  EXPECT_GT(anchors, 0u);
}

TEST(ChainDer, AllocationsPerChainStayWithinBudget) {
  const model& m = shared_model();
  // The first 2,000 TLS services by rank, counted per issuance path: a
  // named profile's chain shares its parent list, a long-tail chain
  // issues every parent and builds its own list.
  auto sample = engine::sample_indices(m, engine::service_filter::tls, 0);
  ASSERT_GE(sample.size(), 2000u);
  sample.resize(2000);
  struct tally {
    std::size_t chains = 0;
    std::size_t allocations = 0;
    void add(std::size_t spent) {
      ++chains;
      allocations += spent;
    }
    [[nodiscard]] double mean() const {
      return static_cast<double>(allocations) / static_cast<double>(chains);
    }
  };
  tally all;
  tally named;
  tally tail;
  for (const std::uint32_t i : sample) {
    const service_record& rec = m.records()[i];
    const std::size_t before = g_allocations.load();
    {
      const x509::chain c = m.chain_of(rec, fetch_protocol::https);
      ASSERT_GT(c.wire_size(), 0u);
    }
    const std::size_t spent = g_allocations.load() - before;
    all.add(spent);
    if (rec.cruise_sans == 0) {
      (rec.profile == ca::profile_id::other ? tail : named).add(spent);
    }
  }
  ASSERT_GT(named.chains, 0u);
  ASSERT_GT(tail.chains, 0u);
  RecordProperty("mean_allocations_per_chain", std::to_string(all.mean()));
  RecordProperty("mean_allocations_per_named_chain",
                 std::to_string(named.mean()));
  RecordProperty("mean_allocations_per_tail_chain",
                 std::to_string(tail.mean()));
  // Measured, plus at most 5%: 3.17 per chain, 2.00 per named chain
  // (the leaf and its DER) and 7.61 per long-tail chain (every
  // certificate and its DER, plus the parent list).
  EXPECT_LE(all.mean(), 3.32) << all.allocations << " allocations";
  EXPECT_LE(named.mean(), 2.10) << named.allocations << " allocations";
  EXPECT_LE(tail.mean(), 7.99) << tail.allocations << " allocations";
}

}  // namespace
}  // namespace certquic::internet
