// Probe allocation suite: bounds the heap traffic of one
// scan::reach::probe, with and without a chain cache, pins that it
// throws no exception, and pins the
// ownership rules that keep it low — a quic::server and the codec of a
// compressing connection borrow the compression dictionary, the server
// borrows the chain on the executor's table path, a copied x509::chain
// shares its leaf and its parent list, a simulator delivery parks its
// datagram in a reused slot and hands the payload's storage to the
// next send, the largest pooled buffer first, a captured certificate is
// handed to the result, not copied, and no variant of the Initial-size
// and ACK-policy sweeps allocates once the probe world has grown.
//
// Allocations are counted through a replaced global operator new, and
// exceptions through an interposed __cxa_allocate_exception, so this
// suite is its own binary.
#include <dlfcn.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/census.hpp"
#include "engine/probe_plan.hpp"
#include "internet/chain_cache.hpp"
#include "internet/model.hpp"
#include "net/simulator.hpp"
#include "quic/server.hpp"
#include "scan/reach.hpp"
#include "util/errors.hpp"

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

// Counts every exception object thrown from code linked into this
// binary (each throw allocates exactly one).
std::atomic<std::size_t> g_exceptions{0};

}  // namespace

// Interposed ahead of libstdc++'s definition, which it forwards to.
// Sanitizer runtimes intercept __cxa_throw, not this, so the count
// holds under ASan too.
extern "C" void* __cxa_allocate_exception(std::size_t size) noexcept {
  using allocate_fn = void* (*)(std::size_t) noexcept;
  static const auto next = reinterpret_cast<allocate_fn>(
      dlsym(RTLD_NEXT, "__cxa_allocate_exception"));
  g_exceptions.fetch_add(1, std::memory_order_relaxed);
  return next(size);
}

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

// 200 QUIC services, each probed once so its chain is in the cache: a
// second probe is the repeat visit a sweep makes once per variant.
struct warm_cache {
  const internet::model& m = shared_model();
  std::vector<std::uint32_t> sample =
      engine::sample_indices(m, engine::service_filter::quic, 0);
  const internet::chain_cache cache{m};
  const scan::reach prober{m, &cache};
  const scan::probe_options opt{};

  warm_cache() {
    sample.resize(std::min<std::size_t>(sample.size(), 200));
    for (const std::uint32_t i : sample) {
      (void)prober.probe(m.records()[i], opt);
    }
  }

  /// Probes every sample service once more; returns how many completed.
  std::size_t probe_all() const {
    std::size_t complete = 0;
    for (const std::uint32_t i : sample) {
      complete += prober.probe(m.records()[i], opt).obs.handshake_complete;
    }
    return complete;
  }
};

TEST(ProbeAlloc, CachedProbeStaysWithinBudget) {
  const warm_cache warm;
  ASSERT_EQ(warm.sample.size(), 200u);
  ASSERT_EQ(warm.cache.misses(), warm.sample.size());
  const alloc_count before = snapshot();
  const std::size_t complete = warm.probe_all();
  const alloc_count spent = since(before);
  EXPECT_GT(complete, 0u);
  const double n = static_cast<double>(warm.sample.size());
  const double mean_allocations = static_cast<double>(spent.allocations) / n;
  const double mean_bytes = static_cast<double>(spent.bytes) / n;
  RecordProperty("mean_allocations_per_probe",
                 std::to_string(mean_allocations));
  RecordProperty("mean_bytes_per_probe", std::to_string(mean_bytes));
  // A cached chain's copy shares its leaf and its parent list, so a
  // cached probe allocates nothing either.
  EXPECT_EQ(spent.allocations, 0u) << mean_allocations << " per probe";
  EXPECT_EQ(spent.bytes, 0u) << mean_bytes << " bytes per probe";
}

TEST(ProbeAlloc, UncachedProbeStaysWithinBudget) {
  // The epochs unit: no cache, so every probe issues its chain with
  // chain_of and then runs the handshake on it.
  const internet::model& m = shared_model();
  std::vector<std::uint32_t> sample =
      engine::sample_indices(m, engine::service_filter::quic, 0);
  sample.resize(std::min<std::size_t>(sample.size(), 200));
  ASSERT_EQ(sample.size(), 200u);
  const scan::reach prober{m};
  const scan::probe_options opt{};
  // One pass grows this thread's probe world and the issuance scratch
  // to what the sample needs; the measured passes are steady state.
  for (const std::uint32_t i : sample) {
    (void)prober.probe(m.records()[i], opt);
  }

  std::size_t complete = 0;
  const alloc_count before = snapshot();
  for (const std::uint32_t i : sample) {
    complete += prober.probe(m.records()[i], opt).obs.handshake_complete;
  }
  const alloc_count spent = since(before);
  EXPECT_GT(complete, 0u);

  // The same unit in its two halves: issuance, then the handshake on
  // the issued (borrowed) chain.
  alloc_count issued{};
  alloc_count probed{};
  for (const std::uint32_t i : sample) {
    const internet::service_record& rec = m.records()[i];
    const alloc_count at_issue = snapshot();
    const x509::chain chain =
        m.chain_of(rec, internet::fetch_protocol::quic);
    const alloc_count at_probe = snapshot();
    (void)prober.probe(rec, opt, chain);
    const alloc_count after = snapshot();
    issued.allocations += at_probe.allocations - at_issue.allocations;
    probed.allocations += after.allocations - at_probe.allocations;
  }

  const double n = static_cast<double>(sample.size());
  const double mean_allocations = static_cast<double>(spent.allocations) / n;
  const double mean_bytes = static_cast<double>(spent.bytes) / n;
  RecordProperty("mean_allocations_per_probe",
                 std::to_string(mean_allocations));
  RecordProperty("mean_bytes_per_probe", std::to_string(mean_bytes));
  RecordProperty("mean_chain_of_allocations",
                 std::to_string(static_cast<double>(issued.allocations) / n));
  const double mean_borrowed =
      static_cast<double>(probed.allocations) / n;
  RecordProperty("mean_borrowed_probe_allocations",
                 std::to_string(mean_borrowed));
  // 2.08 allocations, all of them issuing, and 1298 bytes measured,
  // plus at most 5%. A probe on a borrowed chain allocates nothing: its
  // thread's probe world already holds every buffer it needs.
  EXPECT_LE(mean_allocations, 2.18) << spent.allocations << " allocations";
  EXPECT_EQ(probed.allocations, 0u) << mean_borrowed << " per probe";
  EXPECT_LE(mean_bytes, 1362.0) << spent.bytes << " bytes";
}

TEST(ProbeAlloc, BorrowedChainProbeSkipsTheChainCopy) {
  const warm_cache warm;
  ASSERT_EQ(warm.sample.size(), 200u);
  // The chains a plan's chain table would hold.
  std::vector<x509::chain> chains;
  for (const std::uint32_t i : warm.sample) {
    chains.push_back(*warm.cache.chain_of(warm.m.records()[i],
                                          internet::fetch_protocol::quic));
  }

  const alloc_count before_cached = snapshot();
  const std::size_t cached_complete = warm.probe_all();
  const alloc_count cached = since(before_cached);

  std::size_t borrowed_complete = 0;
  const alloc_count before_borrowed = snapshot();
  for (std::size_t j = 0; j < warm.sample.size(); ++j) {
    borrowed_complete +=
        warm.prober.probe(warm.m.records()[warm.sample[j]], warm.opt,
                          chains[j])
            .obs.handshake_complete;
  }
  const alloc_count borrowed = since(before_borrowed);
  EXPECT_EQ(borrowed_complete, cached_complete);
  // A chain copy shares its parent list, so borrowing saves nothing
  // more: both probes allocate the same.
  EXPECT_EQ(cached.allocations, borrowed.allocations);
}

/// The first 200 QUIC services and the chains a plan's chain table
/// would hold for them, probed on the borrowed chains.
struct borrowed_chains {
  const internet::model& m = shared_model();
  std::vector<std::uint32_t> sample =
      engine::sample_indices(m, engine::service_filter::quic, 0);
  std::vector<x509::chain> chains;
  const scan::reach prober{m};

  borrowed_chains() {
    sample.resize(std::min<std::size_t>(sample.size(), 200));
    for (const std::uint32_t i : sample) {
      chains.push_back(
          m.chain_of(m.records()[i], internet::fetch_protocol::quic));
    }
  }

  /// Probes every service once under `opt`; returns the allocations
  /// per probe.
  double allocations_per_probe(const scan::probe_options& opt) const {
    const alloc_count before = snapshot();
    for (std::size_t j = 0; j < sample.size(); ++j) {
      (void)prober.probe(m.records()[sample[j]], opt, chains[j]);
    }
    return static_cast<double>(since(before).allocations) /
           static_cast<double>(sample.size());
  }
};

TEST(ProbeAlloc, FullSizeInitialTakesTheLargestPooledBuffer) {
  // A 1500-byte Initial is the largest datagram a probe sends. Once a
  // pass at 1500 bytes has grown one pooled buffer to that size, a
  // pass at the default size in between must not bury it: the pool
  // keeps its largest buffer where take_buffer looks first.
  const borrowed_chains b;
  ASSERT_EQ(b.sample.size(), 200u);
  scan::probe_options full;
  full.initial_size = 1500;
  const scan::probe_options usual{};
  (void)b.allocations_per_probe(full);
  (void)b.allocations_per_probe(usual);
  EXPECT_EQ(b.allocations_per_probe(full), 0.0);
  EXPECT_EQ(b.allocations_per_probe(usual), 0.0);
}

TEST(ProbeAlloc, EverySweepVariantProbesWithoutAllocating) {
  // census_sweep's 28 Initial sizes (Fig. 3) and the three client ACK
  // policies. One pass over every variant grows this thread's probe
  // world to the largest each needs; after it, no variant allocates,
  // whichever variant ran before it.
  const borrowed_chains b;
  ASSERT_EQ(b.sample.size(), 200u);
  engine::probe_plan plan;
  plan.sweep_initial_sizes(core::initial_size_sweep());
  ASSERT_EQ(plan.variants.size(), 28u);
  plan.sweep_ack_policies();
  std::vector<scan::probe_options> variants;
  for (const engine::probe_variant& v : plan.variants) {
    variants.push_back(v.to_probe_options());
  }
  for (const scan::probe_options& opt : variants) {
    (void)b.allocations_per_probe(opt);
  }
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_EQ(b.allocations_per_probe(variants[i]), 0.0)
        << "Initial size " << variants[i].initial_size << ", ACK policy "
        << quic::to_string(plan.variants[i].ack);
  }
}

TEST(ProbeAlloc, CapturedCertificateIsNotCopied) {
  // The client captures the certificate message once, into a buffer
  // the result then takes over instead of copying.
  const borrowed_chains b;
  ASSERT_EQ(b.sample.size(), 200u);
  scan::probe_options opt;
  opt.capture_certificate = true;
  (void)b.allocations_per_probe(opt);
  EXPECT_LE(b.allocations_per_probe(opt), 1.0);
}

TEST(ProbeAlloc, CachedProbeThrowsNothing) {
  // The counter sees a throw that is caught at once...
  const std::size_t before_control = g_exceptions.load();
  try {
    throw codec_error("counted");
  } catch (const codec_error&) {
  }
  ASSERT_EQ(g_exceptions.load() - before_control, 1u);
  // ...and a handshake decides completion without any.
  const warm_cache warm;
  ASSERT_EQ(warm.sample.size(), 200u);
  const std::size_t before = g_exceptions.load();
  EXPECT_GT(warm.probe_all(), 0u);
  EXPECT_EQ(g_exceptions.load() - before, 0u);
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

TEST(ProbeAlloc, CompressedProbeBorrowsTheDictionary) {
  // A probe that offers brotli to a service that supports it: the
  // server's codec borrows the model's dictionary instead of copying
  // it, which a compression-study probe used to pay in full.
  const internet::model& m = shared_model();
  const internet::service_record* rec = nullptr;
  for (const std::uint32_t i :
       engine::sample_indices(m, engine::service_filter::quic, 0)) {
    if (m.records()[i].supports_brotli) {
      rec = &m.records()[i];
      break;
    }
  }
  ASSERT_NE(rec, nullptr);
  const x509::chain chain = m.chain_of(*rec, internet::fetch_protocol::quic);
  const scan::reach prober{m};
  scan::probe_options opt;
  opt.offer_compression = {compress::algorithm::brotli};
  ASSERT_TRUE(prober.probe(*rec, opt, chain).obs.compression_used);
  const alloc_count before = snapshot();
  const scan::probe_result probe = prober.probe(*rec, opt, chain);
  const alloc_count spent = since(before);
  EXPECT_TRUE(probe.obs.compression_used);
  // 425.6 kB in 78 allocations measured, most of it the LZ matcher's
  // tables; copying the 22.8 kB dictionary took it to 448.3 kB in 79.
  EXPECT_LE(spent.allocations, 78u);
  EXPECT_LE(spent.bytes, 430u * 1024) << spent.allocations << " allocations";
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
  EXPECT_EQ(since(before).allocations, 0u);
  EXPECT_EQ(&copy.parents(), &original.parents());
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
  // One warm-up delivery sizes the event heap and the delivery slots,
  // and leaves its payload's storage in the simulator's pool.
  sim.send({a, b, bytes(1200, 0x11)});
  sim.run();
  ASSERT_EQ(delivered, 1200u);

  // In steady state the next payload is the last one's storage.
  const alloc_count before = snapshot();
  bytes payload = sim.take_buffer();
  payload.assign(1200, 0x22);
  sim.send({a, b, std::move(payload)});
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(since(before).allocations, 0u);
  EXPECT_EQ(delivered, 2400u);
}

}  // namespace
}  // namespace certquic
