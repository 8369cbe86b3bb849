// parallel_ordered tests: the chunk-and-join executor must be
// bit-identical to serial at 2/8/16 threads on the census, must hold
// workers to its chunk window while a slow sink drains, must survive
// one-item chunks, must propagate worker and sink exceptions, and must
// die on a sequencer-ticket monotonicity violation in assert-enabled
// builds.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/census.hpp"
#include "engine/engine.hpp"

namespace certquic {
namespace {

const internet::model& shared_model() {
  static const internet::model m =
      internet::model::generate({.domains = 2000, .seed = 42});
  return m;
}

std::string full(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string digest(const stats::sample_set& s) {
  std::ostringstream out;
  out << s.size();
  if (!s.empty()) {
    out << ' ' << full(s.mean()) << ' ' << full(s.min()) << ' '
        << full(s.median()) << ' ' << full(s.max());
  }
  return out.str();
}

std::string digest(const core::census_result& census) {
  std::ostringstream out;
  out << census.initial_size << '|' << census.probed << '|';
  for (const auto count : census.counts) {
    out << count << ',';
  }
  out << '|';
  for (const auto& group : census.group_counts) {
    for (const auto count : group) {
      out << count << ',';
    }
  }
  out << '|' << digest(census.first_burst_amplification);
  out << '|' << census.multi_tls_exceeding_limit << '|'
      << census.max_non_tls_bytes << '|' << census.amplifying << '|'
      << census.amplifying_cloudflare << '|'
      << digest(census.cloudflare_padding) << '|';
  for (const auto& [total, tls] : census.multi_rtt_payload) {
    out << total << ':' << tls << ',';
  }
  return out.str();
}

std::string census_digest(engine::options opt) {
  core::census_options census_opt;
  census_opt.initial_size = 1362;
  census_opt.max_services = 300;
  return digest(core::run_census(shared_model(), census_opt, opt));
}

TEST(ParallelOrdered, CensusMatchesSerialAtEveryThreadCount) {
  // Byte-identical census aggregates at 2/8/16 threads.
  const std::string serial = census_digest(engine::options::serial());
  for (const std::size_t threads : {2UL, 8UL, 16UL}) {
    EXPECT_EQ(serial, census_digest({.threads = threads}))
        << "census diverged from serial at " << threads << " threads";
  }
}

TEST(ParallelOrdered, OneItemChunksStillDeliverInPlanOrder) {
  // Degenerate chunking: every item is its own chunk, maximizing claim
  // and join traffic. Order and values must still hold.
  constexpr std::size_t kN = 257;
  std::size_t expected = 0;
  engine::parallel_ordered(
      kN, {.threads = 8, .chunk = 1}, [](std::size_t i) { return i + 1; },
      [&](std::size_t i, std::size_t result) {
        EXPECT_EQ(i, expected);
        EXPECT_EQ(result, i + 1);
        ++expected;
      });
  EXPECT_EQ(expected, kN);
}

TEST(ParallelOrdered, WorkersStopAtTheWindowWhileConsumeStalls) {
  // The memory bound: with consume(0) parked, workers may run at most
  // `window` chunks ahead of the consumer (plus one claimed, waiting
  // chunk per worker), so work(i) stops well short of n. Releasing the
  // consumer lets the run finish in plan order.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kChunk = 4;
  constexpr std::size_t kN = 1000;
  constexpr std::size_t kWindow = std::max<std::size_t>(4 * kThreads, 8);
  constexpr std::size_t kBound = (kWindow + kThreads) * kChunk;
  static_assert(kBound < kN);
  std::atomic<std::size_t> produced{0};
  std::size_t produced_while_parked = 0;
  std::vector<std::size_t> order;
  order.reserve(kN);
  engine::parallel_ordered(
      kN, {.threads = kThreads, .chunk = kChunk},
      [&](std::size_t i) {
        produced.fetch_add(1);
        return i * 3;
      },
      [&](std::size_t i, std::size_t result) {
        if (i == 0) {
          // Every chunk inside the window is free to run; wait for
          // them, then give workers time to overrun the bound if the
          // window were broken.
          while (produced.load() < kWindow * kChunk) {
            std::this_thread::yield();
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          produced_while_parked = produced.load();
        }
        EXPECT_EQ(result, i * 3);
        order.push_back(i);
      });
  EXPECT_LE(produced_while_parked, kBound);
  EXPECT_LT(produced_while_parked, kN);
  EXPECT_EQ(produced.load(), kN);
  ASSERT_EQ(order.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(order[i], i) << "delivery left plan order";
  }
}

TEST(ParallelOrdered, PropagatesWorkerExceptions) {
  std::atomic<std::size_t> consumed{0};
  EXPECT_THROW(engine::parallel_ordered(
                   1000, {.threads = 4, .chunk = 8},
                   [](std::size_t i) {
                     if (i == 57) {
                       throw std::runtime_error("probe failed");
                     }
                     return i;
                   },
                   [&](std::size_t, std::size_t) { consumed.fetch_add(1); }),
               std::runtime_error);
  EXPECT_LE(consumed.load(), 57u) << "consume must stop at the failure";
}

TEST(ParallelOrdered, PropagatesConsumeExceptions) {
  std::atomic<std::size_t> worked{0};
  EXPECT_THROW(engine::parallel_ordered(
                   1000, {.threads = 4, .chunk = 8},
                   [&](std::size_t i) {
                     worked.fetch_add(1);
                     return i;
                   },
                   [](std::size_t i, std::size_t) {
                     if (i == 10) {
                       throw std::runtime_error("sink failed");
                     }
                   }),
               std::runtime_error);
  // Cancellation is prompt: workers see the failure flag and bail well
  // before the full index space.
  EXPECT_LT(worked.load(), 1000u);
}

#if defined(CERTQUIC_ENABLE_ASSERTS)
TEST(SequencerTicketDeath, DetectsGapSkipAndReplay) {
  {
    engine::sequencer_ticket ticket;
    ticket.advance(0);
    ticket.advance(1);
    EXPECT_DEATH_IF_SUPPORTED(ticket.advance(3), "left plan order");
  }
  {
    engine::sequencer_ticket ticket;
    ticket.advance(0);
    EXPECT_DEATH_IF_SUPPORTED(ticket.advance(0), "left plan order");
  }
  {
    engine::sequencer_ticket ticket;
    EXPECT_DEATH_IF_SUPPORTED(ticket.advance(5), "left plan order");
  }
}
#endif  // CERTQUIC_ENABLE_ASSERTS

}  // namespace
}  // namespace certquic
