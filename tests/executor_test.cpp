// parallel_ordered tests: the chunk-and-join executor must deliver in
// plan order at any chunk size (one-item chunks included), must hold
// workers to its chunk window while a slow sink drains, must propagate
// worker and sink exceptions, and must die on a sequencer-ticket
// monotonicity violation in assert-enabled builds. Whole studies are
// compared across thread counts by engine_test's EnginePins harness.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.hpp"

namespace certquic {
namespace {

TEST(ParallelOrdered, OneItemChunksStillDeliverInPlanOrder) {
  // Degenerate chunking: every item is its own chunk, maximizing claim
  // and join traffic; a chunk of 16 leaves a ragged last chunk. Order
  // and values must still hold.
  constexpr std::size_t kN = 257;
  for (const std::size_t chunk : {1u, 16u}) {
    std::size_t expected = 0;
    engine::parallel_ordered(
        kN, {.threads = 8, .chunk = chunk},
        [](std::size_t i) { return i * 3; },
        [&](std::size_t i, std::size_t result) {
          EXPECT_EQ(i, expected) << "chunk " << chunk;
          EXPECT_EQ(result, i * 3);
          ++expected;
        });
    EXPECT_EQ(expected, kN) << "chunk " << chunk;
  }
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
