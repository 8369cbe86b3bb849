// Chain-materialization suite: pins the exact DER bytes model::chain_of
// produces over a fixed sample that reaches every issuance path, and
// bounds the heap allocations one chain_of call may make.
//
// The pin is a byte-level contract. Any encoder or issuance change that
// moves a single DER byte moves every figure built from certificate
// sizes, so it must fail here first.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <string>

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

TEST(ChainDer, BytesArePinnedOverEveryIssuancePath) {
  const model& m = shared_model();
  const auto& recs = m.records();
  der_digest d;

  // 1. The first 200 TLS services over HTTPS, in rank order.
  std::size_t head = 0;
  for (const auto& rec : recs) {
    if (rec.serves_tls() && head++ < 200) {
      d.add(m.chain_of(rec, fetch_protocol::https));
    }
  }

  // 2. The first service of every named profile, plus the first forced
  //    RSA leaf.
  std::set<std::string> profiles_seen;
  bool forced_rsa = false;
  for (const auto& rec : recs) {
    if (!rec.serves_tls() || rec.cruise_sans > 0 ||
        rec.chain_profile == "other") {
      continue;
    }
    if (profiles_seen.insert(rec.chain_profile).second) {
      d.add(m.chain_of(rec, fetch_protocol::https));
    }
    if (rec.force_rsa_leaf && !forced_rsa) {
      forced_rsa = true;
      d.add(m.chain_of(rec, fetch_protocol::https));
    }
  }
  EXPECT_GE(profiles_seen.size(), 10u);
  EXPECT_TRUE(forced_rsa);

  // 3. The long tail, up to and including its first monster chain.
  const service_record* monster = nullptr;
  for (const auto& rec : recs) {
    if (!rec.serves_tls() || rec.cruise_sans > 0 ||
        rec.chain_profile != "other") {
      continue;
    }
    const x509::chain c = m.chain_of(rec, fetch_protocol::https);
    d.add(c);
    if (is_monster(c)) {
      monster = &rec;
      break;
    }
  }
  ASSERT_NE(monster, nullptr);

  // 4. Cruise liners and rotated certificates fetched over QUIC.
  const service_record* cruise = nullptr;
  std::size_t rotated = 0;
  for (const auto& rec : recs) {
    if (rec.cruise_sans > 0 && cruise == nullptr) {
      cruise = &rec;
      d.add(m.chain_of(rec, fetch_protocol::https));
    }
    if (rec.rotated_cert && rec.serves_quic() && rotated < 5) {
      ++rotated;
      d.add(m.chain_of(rec, fetch_protocol::quic));
    }
  }
  ASSERT_NE(cruise, nullptr);
  EXPECT_EQ(rotated, 5u);

  // 5. Both PQC stages over a named chain, the monster and the liner.
  std::vector<const service_record*> pqc_recs;
  for (const auto& rec : recs) {
    if (rec.serves_tls() && rec.chain_profile != "other" &&
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
      d.add(m.chain_of(*rec, fetch_protocol::https, pq));
    }
  }

  // Taken before the single-buffer DER writer replaced the
  // concatenating encoder; the bytes must never move.
  EXPECT_EQ(d.chains, 258u);
  EXPECT_EQ(d.bytes_total, 1097414u);
  EXPECT_EQ(d.h, 0x68d1'08d1'de65'fbc0ULL);
}

TEST(ChainDer, AllocationsPerChainStayWithinBudget) {
  const model& m = shared_model();
  // The first 2,000 TLS services by rank.
  auto sample = engine::sample_indices(m, engine::service_filter::tls, 0);
  ASSERT_GE(sample.size(), 2000u);
  sample.resize(2000);
  const std::size_t before = g_allocations.load();
  for (const std::uint32_t i : sample) {
    const x509::chain c = m.chain_of(m.records()[i], fetch_protocol::https);
    ASSERT_GT(c.wire_size(), 0u);
  }
  const std::size_t allocations = g_allocations.load() - before;
  const double mean =
      static_cast<double>(allocations) / static_cast<double>(sample.size());
  RecordProperty("mean_allocations_per_chain", std::to_string(mean));
  // 30.3 allocations measured, plus at most 5%.
  EXPECT_LE(mean, 31.8) << allocations << " allocations";
}

}  // namespace
}  // namespace certquic::internet
