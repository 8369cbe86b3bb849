// The experiment engine: shards a probe_plan across a thread pool and
// streams the results to an observation_sink in deterministic plan
// order, so parallel runs are bit-identical to serial ones. Every
// probe runs in its worker's probe world (scan/reach.hpp), reset to a
// fresh world's state first, so no result depends on which probes the
// worker ran before; spoofed sessions, whose replies only a telescope
// hears, run through run_backscatter (engine/backscatter.hpp). A
// multi-variant plan first materializes each sampled service's chain
// once per chain profile into a read-only table, which its probes
// borrow without a lock.
//
// parallel_ordered is the single execution primitive underneath it
// all: workers claim fixed-size chunks of the index space, and the
// calling thread joins them back in plan order, at most a bounded
// window of chunks ahead of the consumer. Serial execution is the same
// loop without threads and is the oracle the parallel path is tested
// against.
//
// Determinism rests on three invariants:
//  1. every probe's randomness is a pure function of the plan and the
//     record (probe_seed / the record's own seed), never of scheduling;
//  2. run_backscatter's session→world partition is fixed by the plan,
//     never by the thread count, so shared-world interactions are
//     reproducible;
//  3. workers only *compute*; all aggregation happens on the caller's
//     thread, in plan order, via parallel_ordered's ordered consumer.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/probe_plan.hpp"
#include "engine/sink.hpp"
#include "internet/model.hpp"
#include "util/assert.hpp"

namespace certquic::engine {

/// Execution knobs shared by every engine entry point.
struct options {
  /// Worker threads. 0 resolves to $CERTQUIC_THREADS when set, else
  /// std::thread::hardware_concurrency() — the engine is parallel by
  /// default. 1 forces the serial path.
  std::size_t threads = 0;
  /// Probes per shard handed to a worker at a time. 0 resolves to the
  /// default via resolved_chunk().
  std::size_t chunk = 64;

  /// The effective chunk size; the single place the `0 means 64`
  /// default lives.
  [[nodiscard]] std::size_t resolved_chunk() const noexcept {
    return chunk == 0 ? 64 : chunk;
  }

  [[nodiscard]] static options serial() { return {.threads = 1}; }
};

/// Resolves options::threads against the environment and hardware;
/// never returns 0.
[[nodiscard]] std::size_t resolved_threads(const options& opt);

/// Debug-only sequencer-ticket monotonicity check: the sequencer must
/// deliver tickets 0, 1, 2, ... with no gap, duplicate or reordering —
/// the invariant that makes parallel aggregation bit-identical to
/// serial. advance(t) asserts t is exactly the next expected ticket in
/// CERTQUIC_ENABLE_ASSERTS builds (death-tested by executor_test) and
/// compiles to nothing in release builds.
class sequencer_ticket {
 public:
  void advance(std::size_t ticket) noexcept {
#if defined(CERTQUIC_ENABLE_ASSERTS)
    CERTQUIC_ASSERT(ticket == next_,
                    "sequencer ticket left plan order — ordered delivery "
                    "must be monotone ascending with no gaps");
    ++next_;
#else
    (void)ticket;
#endif
  }

#if defined(CERTQUIC_ENABLE_ASSERTS)
 private:
  std::size_t next_ = 0;
#endif
};

/// Ordered parallel map: computes work(i) for i in [0, n) on a worker
/// pool, then calls consume(i, result) for every i in ascending order
/// on the calling thread. Work must be safe to invoke concurrently;
/// consume runs strictly serially. Exceptions from either side cancel
/// the run and rethrow on the caller.
///
/// This is the execution primitive behind the probe executor; studies
/// whose unit of work is not a single handshake (chain compression,
/// multi-visit tuning, the Meta /24 scan) use it directly.
template <typename Work, typename Consume>
void parallel_ordered(std::size_t n, const options& opt, Work&& work,
                      Consume&& consume) {
  using result_t = std::decay_t<std::invoke_result_t<Work&, std::size_t>>;
  const std::size_t threads = resolved_threads(opt);
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      consume(i, work(i));
    }
    return;
  }

  const std::size_t chunk = opt.resolved_chunk();
  const std::size_t chunks = (n + chunk - 1) / chunk;
  // Backpressure: workers stall once they are `window` chunks ahead of
  // the ordered consumer, bounding buffered results to O(threads) even
  // when consume is slower than work. window >= 1 cannot deadlock: a
  // worker waits only on chunks strictly above the consume frontier,
  // and the frontier chunk is always claimed before any waiter's.
  const std::size_t window = std::max<std::size_t>(4 * threads, 8);
  std::vector<std::unique_ptr<std::vector<result_t>>> done(chunks);
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::size_t consumed_chunks = 0;  // guarded by mu
  std::exception_ptr error;

  auto worker = [&] {
    for (;;) {
      const std::size_t c = next.fetch_add(1);
      if (c >= chunks || failed.load()) {
        return;
      }
      {
        std::unique_lock<std::mutex> lock{mu};
        cv.wait(lock, [&] {
          return c < consumed_chunks + window || failed.load();
        });
      }
      if (failed.load()) {
        return;
      }
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(n, lo + chunk);
      auto results = std::make_unique<std::vector<result_t>>();
      results->reserve(hi - lo);
      try {
        for (std::size_t i = lo; i < hi; ++i) {
          results->push_back(work(i));
        }
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock{mu};
          if (!failed.exchange(true)) {
            error = std::current_exception();
          }
        }
        cv.notify_all();
        return;
      }
      {
        const std::lock_guard<std::mutex> lock{mu};
        done[c] = std::move(results);
      }
      cv.notify_all();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(std::min(threads, chunks));
  for (std::size_t t = 0; t < std::min(threads, chunks); ++t) {
    pool.emplace_back(worker);
  }

  // Sequencer invariant: the ordered consumer must see every index
  // exactly once, in ascending order — this is what makes parallel
  // aggregation bit-identical to serial. Checked per consume call in
  // debug/sanitizer builds (sequencer_ticket is a no-op otherwise).
  sequencer_ticket ticket;
  try {
    std::unique_lock<std::mutex> lock{mu};
    for (std::size_t c = 0; c < chunks; ++c) {
      cv.wait(lock, [&] { return done[c] != nullptr || failed.load(); });
      if (failed.load()) {
        break;
      }
      const auto results = std::move(done[c]);
      lock.unlock();
      const std::size_t lo = c * chunk;
      for (std::size_t j = 0; j < results->size(); ++j) {
        ticket.advance(lo + j);
        consume(lo + j, std::move((*results)[j]));
      }
      lock.lock();
      ++consumed_chunks;
      cv.notify_all();  // release workers stalled on the window
    }
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock{mu};
      if (!failed.exchange(true)) {
        error = std::current_exception();
      }
    }
    cv.notify_all();
  }

  for (auto& t : pool) {
    t.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

/// Executes probe plans against one population. Stateless between runs;
/// cheap to construct.
class executor {
 public:
  explicit executor(const internet::model& m, options opt = {})
      : model_(m), opt_(opt) {}

  /// Runs the plan, each probe in a freshly reset world, streaming every
  /// probe to the sink in plan order, wrapped in the sink's
  /// on_begin/on_end lifecycle. Throws config_error on a plan without
  /// variants, and reach::probe's config_error for a sampled service
  /// that does not serve QUIC.
  void run(const probe_plan& plan, observation_sink& sink) const;

  /// Same, over an already-resolved sample (callers that need the
  /// sample size up front — e.g. to pre-reserve aggregates — pass it
  /// back in rather than paying a second population walk).
  void run(const probe_plan& plan, const std::vector<std::uint32_t>& sampled,
           observation_sink& sink) const;

  /// The record indices the plan's sample spec resolves to (the shared
  /// deterministic sampling; exposed so aggregators can pre-reserve).
  [[nodiscard]] std::vector<std::uint32_t> sample(
      const probe_plan& plan) const {
    return sample_indices(model_, plan.filter, plan.max_services);
  }

  [[nodiscard]] const internet::model& model() const noexcept {
    return model_;
  }
  [[nodiscard]] const options& opts() const noexcept { return opt_; }

 private:
  const internet::model& model_;
  options opt_;
};

}  // namespace certquic::engine
