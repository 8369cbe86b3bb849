// Probe allocation suite: bounds the heap traffic of one cached
// scan::reach::probe and pins the ownership rules that keep it low —
// a quic::server borrows the compression dictionary, a copied
// x509::chain shares its certificates, and a simulator delivery
// carries its datagram inside the event.
//
// Allocations are counted through a replaced global operator new, so
// this suite is its own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "engine/probe_plan.hpp"
#include "internet/chain_cache.hpp"
#include "internet/model.hpp"
#include "net/simulator.hpp"
#include "quic/server.hpp"
#include "scan/reach.hpp"

namespace {

// Counts every global operator new in this binary, and the bytes each
// one asks for; the tests read deltas around the code under test.
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_allocated_bytes{0};

struct alloc_count {
  std::size_t allocations = 0;
  std::size_t bytes = 0;
};

alloc_count snapshot() {
  return {g_allocations.load(), g_allocated_bytes.load()};
}

alloc_count since(const alloc_count& before) {
  const alloc_count now = snapshot();
  return {now.allocations - before.allocations, now.bytes - before.bytes};
}

}  // namespace

// Both sides stay out of line so the compiler never pairs an inlined
// malloc with a delete call at some call site and warns.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc{};
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace certquic {
namespace {

const internet::model& shared_model() {
  static const internet::model m =
      internet::model::generate({.domains = 20000, .seed = 7});
  return m;
}

TEST(ProbeAlloc, CachedProbeStaysWithinBudget) {
  const internet::model& m = shared_model();
  auto sample = engine::sample_indices(m, engine::service_filter::quic, 0);
  ASSERT_GE(sample.size(), 200u);
  sample.resize(200);
  const internet::chain_cache cache{m};
  const scan::reach prober{m, &cache};
  const scan::probe_options opt{};
  // The first visit materializes every chain into the cache; the
  // second is the repeat visit a sweep makes once per variant.
  for (const std::uint32_t i : sample) {
    (void)prober.probe(m.records()[i], opt);
  }
  ASSERT_EQ(cache.misses(), sample.size());
  const alloc_count before = snapshot();
  std::size_t complete = 0;
  for (const std::uint32_t i : sample) {
    complete += prober.probe(m.records()[i], opt).obs.handshake_complete;
  }
  const alloc_count spent = since(before);
  EXPECT_GT(complete, 0u);
  const double n = static_cast<double>(sample.size());
  const double mean_allocations = static_cast<double>(spent.allocations) / n;
  const double mean_bytes = static_cast<double>(spent.bytes) / n;
  RecordProperty("mean_allocations_per_probe",
                 std::to_string(mean_allocations));
  RecordProperty("mean_bytes_per_probe", std::to_string(mean_bytes));
  EXPECT_LE(mean_allocations, 200.0) << spent.allocations << " allocations";
  EXPECT_LE(mean_bytes, 48.0 * 1024) << spent.bytes << " bytes";
}

TEST(ProbeAlloc, ServerBorrowsTheDictionary) {
  const internet::model& m = shared_model();
  const auto sample =
      engine::sample_indices(m, engine::service_filter::quic, 1);
  ASSERT_EQ(sample.size(), 1u);
  const internet::service_record& rec = m.records()[sample.front()];
  const x509::chain chain =
      m.chain_of(rec, internet::fetch_protocol::quic);
  const bytes dictionary(1u << 20, 0x5a);
  net::simulator sim;
  const net::endpoint_id ep{rec.address, 443};
  const alloc_count before = snapshot();
  {
    const quic::server srv{sim, ep, chain, m.behavior_of(rec), dictionary,
                           1};
    const alloc_count spent = since(before);
    EXPECT_LT(spent.bytes, 64u * 1024) << spent.allocations
                                       << " allocations";
  }
}

TEST(ProbeAlloc, CopiedChainSharesItsLeaf) {
  const internet::model& m = shared_model();
  const auto sample =
      engine::sample_indices(m, engine::service_filter::quic, 1);
  ASSERT_EQ(sample.size(), 1u);
  const x509::chain original = m.chain_of(
      m.records()[sample.front()], internet::fetch_protocol::quic);
  const alloc_count before = snapshot();
  const x509::chain copy = original;
  EXPECT_LE(since(before).allocations, 1u);  // the parents vector only
  EXPECT_EQ(&copy.leaf(), &original.leaf());
  EXPECT_EQ(copy.wire_size(), original.wire_size());
}

TEST(ProbeAlloc, DeliveryAllocatesNothingBeyondThePayload) {
  net::simulator sim;
  const net::endpoint_id a{net::ipv4::of(10, 0, 0, 1), 1000};
  const net::endpoint_id b{net::ipv4::of(10, 0, 0, 2), 2000};
  std::size_t delivered = 0;
  sim.attach(b, [&delivered](const net::datagram& d) {
    delivered += d.payload.size();
  });
  // One warm-up delivery sizes the event heap.
  sim.send({a, b, bytes(1200, 0x11)});
  sim.run();
  ASSERT_EQ(delivered, 1200u);

  bytes payload(1200, 0x22);
  const alloc_count before = snapshot();
  sim.send({a, b, std::move(payload)});
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(since(before).allocations, 0u);
  EXPECT_EQ(delivered, 2400u);
}

}  // namespace
}  // namespace certquic
