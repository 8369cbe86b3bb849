// Shared-world and sink-lifecycle tests: backscatter worlds must
// aggregate bit-identically at any thread count and chunk, spilled record
// streams must replay losslessly, sinks must compose, and the chain
// cache must be a pure thread-safe memoization.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/amplification_study.hpp"
#include "core/census.hpp"
#include "core/policy_study.hpp"
#include "engine/backscatter.hpp"
#include "engine/spill.hpp"
#include "internet/chain_cache.hpp"

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

std::string digest(const core::telescope_result& t) {
  std::ostringstream out;
  for (const auto& [provider, samples] : t.amplification) {
    out << provider << '=' << digest(samples) << '|';
  }
  out << digest(t.meta_session_duration_s) << '|'
      << full(t.meta_max_amplification);
  return out.str();
}

std::string digest(const engine::backscatter_outcome& o) {
  std::ostringstream out;
  out << o.backscatter.provider << ':' << o.backscatter.bytes << ':'
      << o.backscatter.datagrams << ':' << o.backscatter.first_seen << ':'
      << o.backscatter.last_seen << ':' << o.attacker.bytes_sent_total;
  return out.str();
}

std::string record_digest(const engine::probe_record& pr) {
  const quic::observation& o = pr.result.obs;
  std::ostringstream out;
  out << pr.service_index << ':' << pr.variant_index << ':'
      << static_cast<int>(pr.result.cls) << ':' << o.handshake_complete
      << ':' << o.bytes_sent_total << ':' << o.bytes_received_total << ':'
      << o.bytes_received_first_burst << ':' << o.tls_bytes_received << ':'
      << o.certificate_msg_size << ':' << o.complete_time << ':'
      << o.certificate_message.size();
  return out.str();
}

TEST(Backscatter, TelescopeStudyIdenticalAcrossThreadCounts) {
  const core::spoofed_options opt{.sessions_per_provider = 40};
  const std::string serial = digest(core::run_telescope_study(
      shared_model(), opt, engine::options::serial()));
  for (const std::size_t threads : {2UL, 8UL}) {
    const std::string parallel = digest(
        core::run_telescope_study(shared_model(), opt, {.threads = threads}));
    EXPECT_EQ(serial, parallel)
        << "telescope aggregates diverged at " << threads << " threads";
  }
}

TEST(Backscatter, PolicyStudyIdenticalAcrossThreadCounts) {
  const auto serial = core::run_policy_study(shared_model(), "le-r3-x1cross",
                                             engine::options::serial());
  for (const std::size_t threads : {2UL, 8UL}) {
    const auto parallel = core::run_policy_study(
        shared_model(), "le-r3-x1cross", {.threads = threads});
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].bytes_sent, parallel[i].bytes_sent);
      EXPECT_EQ(serial[i].bytes_received, parallel[i].bytes_received);
      EXPECT_EQ(full(serial[i].amplification),
                full(parallel[i].amplification));
    }
  }
}

TEST(Backscatter, ShardPartitionIsThreadAndChunkInvariant) {
  // Raw run_backscatter check, independent of any study: the same plan
  // must yield the same per-session outcomes at every thread count and
  // whatever chunk the caller asks for, because the session→world
  // partition is part of the plan.
  auto plan = core::build_telescope_plan(shared_model(),
                                         {.sessions_per_provider = 20});
  ASSERT_EQ(plan.sessions.size(), 60u);
  // Fold each provider's sessions onto one endpoint. Sessions of one
  // world then share the server (and chain) its first session spawned,
  // so a session moved to another world would change its bytes.
  for (auto& session : plan.sessions) {
    session.server.ip = net::ipv4{session.server.ip.slash24().value | 1};
  }

  const auto collect = [&](engine::options opt) {
    std::vector<std::string> digests;
    for (const auto& o : engine::run_backscatter(plan, opt)) {
      digests.push_back(digest(o));
    }
    return digests;
  };
  const auto serial = collect(engine::options::serial());
  ASSERT_EQ(serial.size(), plan.sessions.size());
  for (const std::size_t threads : {2UL, 8UL, 16UL}) {
    EXPECT_EQ(serial, collect({.threads = threads}))
        << "backscatter diverged from serial at " << threads << " threads";
  }
  for (const std::size_t chunk : {1UL, 1000UL}) {
    EXPECT_EQ(serial, collect({.threads = 8, .chunk = chunk}))
        << "backscatter diverged from serial at chunk " << chunk;
  }
}

TEST(Backscatter, SensorsAttributeBackscatterPerSession) {
  const auto plan = core::build_telescope_plan(
      shared_model(), {.sessions_per_provider = 8});
  std::size_t answered = 0;
  for (const auto& o : engine::run_backscatter(plan, {.threads = 2})) {
    if (o.backscatter.datagrams == 0) {
      continue;
    }
    ++answered;
    EXPECT_FALSE(o.backscatter.provider.empty());
    EXPECT_GT(o.backscatter.bytes, 0u);
    // The spoofing attacker itself hears nothing.
    EXPECT_EQ(o.attacker.bytes_received_total, 0u);
  }
  EXPECT_GT(answered, plan.sessions.size() / 2);
}

TEST(SinkLifecycle, BeginAndEndWrapEveryRun) {
  const auto& m = shared_model();
  engine::probe_plan plan =
      engine::probe_plan::single(engine::probe_variant{}, 10);
  struct lifecycle_sink final : engine::observation_sink {
    std::size_t begins = 0, records = 0, ends = 0, announced = 0;
    std::size_t variants = 0;
    void on_begin(const engine::probe_plan& p, std::size_t sampled) override {
      ++begins;
      announced = sampled;
      variants = p.variants.size();
      EXPECT_EQ(records, 0u);
    }
    void on_record(const engine::probe_record&) override {
      EXPECT_EQ(begins, 1u);
      EXPECT_EQ(ends, 0u);
      ++records;
    }
    void on_end() override { ++ends; }
  };

  lifecycle_sink sink;
  const engine::executor eng{m, {.threads = 4}};
  eng.run(plan, sink);
  EXPECT_EQ(sink.begins, 1u);
  EXPECT_EQ(sink.ends, 1u);
  EXPECT_EQ(sink.records, sink.announced * sink.variants);
  EXPECT_GT(sink.records, 0u);

  // An empty sample still sees exactly one begin/end pair.
  lifecycle_sink empty;
  eng.run(plan, {}, empty);
  EXPECT_EQ(empty.begins, 1u);
  EXPECT_EQ(empty.ends, 1u);
  EXPECT_EQ(empty.records, 0u);
}

TEST(SinkLifecycle, TeeAndFilterCompose) {
  const auto& m = shared_model();
  const auto plan = engine::probe_plan::single(engine::probe_variant{}, 30);

  std::size_t all = 0;
  std::size_t completed = 0;
  engine::callback_sink count_all{
      [&](const engine::probe_record&) { ++all; }};
  engine::callback_sink count_completed{
      [&](const engine::probe_record& pr) {
        EXPECT_TRUE(pr.result.obs.handshake_complete);
        ++completed;
      }};
  engine::filter_sink only_completed{
      count_completed, [](const engine::probe_record& pr) {
        return pr.result.obs.handshake_complete;
      }};
  engine::tee_sink tee{{&count_all, &only_completed}};
  engine::executor{m, {.threads = 2}}.run(plan, tee);

  EXPECT_GT(all, 0u);
  EXPECT_GT(completed, 0u);
  EXPECT_LE(completed, all);
}

TEST(SpillSink, RoundTripMatchesDirectRun) {
  const auto& m = shared_model();
  engine::probe_plan plan;
  plan.max_services = 40;
  plan.sweep_initial_sizes({1200, 1362});
  plan.variants[0].capture_certificate = true;  // exercise certificate bytes

  const std::string path =
      (std::filesystem::temp_directory_path() / "certquic_spill_test.spill")
          .string();

  // Direct run: record stream digests + an aggregate.
  std::vector<std::string> direct;
  stats::sample_set direct_amplification;
  engine::callback_sink direct_sink{[&](const engine::probe_record& pr) {
    direct.push_back(record_digest(pr));
    direct_amplification.add(pr.result.obs.first_burst_amplification());
  }};
  const engine::executor eng{m, {.threads = 4}};
  eng.run(plan, direct_sink);
  ASSERT_GT(direct.size(), 0u);

  // Spill the same plan, then replay the file.
  engine::spill_sink spill{path};
  eng.run(plan, spill);
  EXPECT_EQ(spill.records_written(), direct.size());

  std::vector<std::string> replayed;
  stats::sample_set replayed_amplification;
  engine::callback_sink replay_sink{[&](const engine::probe_record& pr) {
    replayed.push_back(record_digest(pr));
    replayed_amplification.add(pr.result.obs.first_burst_amplification());
  }};
  const engine::spill_reader reader{m, plan};
  const std::size_t replayed_count = reader.replay(path, replay_sink);

  EXPECT_EQ(replayed_count, direct.size());
  EXPECT_EQ(replayed, direct);
  EXPECT_EQ(digest(direct_amplification), digest(replayed_amplification));
  std::filesystem::remove(path);
}

TEST(SpillSink, ReaderRejectsForeignFiles) {
  const auto& m = shared_model();
  const std::string path =
      (std::filesystem::temp_directory_path() / "certquic_not_a_spill.txt")
          .string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("something else entirely\n", f);
    std::fclose(f);
  }
  const auto plan = engine::probe_plan::single(engine::probe_variant{}, 5);
  engine::callback_sink sink{[](const engine::probe_record&) {}};
  const engine::spill_reader reader{m, plan};
  EXPECT_THROW((void)reader.replay(path, sink), codec_error);
  std::filesystem::remove(path);
}

TEST(ChainCache, MemoizesAndIsThreadSafe) {
  const auto& m = shared_model();
  const internet::chain_cache cache{m};

  std::vector<const internet::service_record*> tls_records;
  for (const auto& rec : m.records()) {
    if (rec.serves_tls()) {
      tls_records.push_back(&rec);
    }
    if (tls_records.size() == 64) {
      break;
    }
  }
  ASSERT_FALSE(tls_records.empty());

  // Concurrent repeat visits: every thread fetches every record twice.
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < 8; ++t) {
    pool.emplace_back([&] {
      for (int round = 0; round < 2; ++round) {
        for (const auto* rec : tls_records) {
          const auto cached =
              cache.chain_of(*rec, internet::fetch_protocol::https);
          const auto direct =
              m.chain_of(*rec, internet::fetch_protocol::https);
          if (cached->concatenated_der() != direct.concatenated_der()) {
            mismatch.store(true);
          }
        }
      }
    });
  }
  for (auto& t : pool) {
    t.join();
  }
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(cache.size(), tls_records.size());
  EXPECT_GT(cache.hits(), 0u);

  // Protocols are distinct cache keys (rotated certificates differ).
  const auto quic_side =
      cache.chain_of(*tls_records.front(), internet::fetch_protocol::quic);
  EXPECT_EQ(cache.size(), tls_records.size() + 1);
  (void)quic_side;
}

TEST(AckSweep, InstantAckNeverSlowerAndSilentNeverCompletes) {
  const auto sweep = core::run_ack_sweep(shared_model(), 80);
  ASSERT_EQ(sweep.slices.size(), 3u);
  const auto& delayed = sweep.slices[0];
  const auto& instant = sweep.slices[1];
  const auto& silent = sweep.slices[2];
  EXPECT_EQ(delayed.policy, quic::ack_policy::delayed);
  EXPECT_EQ(instant.policy, quic::ack_policy::instant);
  EXPECT_EQ(silent.policy, quic::ack_policy::none);

  EXPECT_EQ(delayed.probed, instant.probed);
  EXPECT_EQ(delayed.probed, silent.probed);
  EXPECT_GT(delayed.probed, 0u);

  // ACK timing shifts completion times, not outcomes: the matched
  // pairs land in identical handshake classes.
  EXPECT_EQ(delayed.counts, instant.counts);
  // A silent client cannot advance a multi-RTT handshake — those
  // services degrade to unreachable, the class delta the sweep reports.
  EXPECT_EQ(silent.count(scan::handshake_class::multi_rtt), 0u);
  EXPECT_LT(silent.class_delta(delayed, scan::handshake_class::multi_rtt), 0);
  EXPECT_GT(silent.class_delta(delayed, scan::handshake_class::unreachable), 0);
  EXPECT_LT(silent.completed(), delayed.completed());
  EXPECT_GT(delayed.completed(), 0u);
  // Instant ACKs can only speed a handshake up.
  EXPECT_LE(instant.handshake_ms.median(), delayed.handshake_ms.median());
  EXPECT_LT(instant.handshake_ms.mean(), delayed.handshake_ms.mean());
}

TEST(AckSweep, DeterministicAcrossThreadCounts) {
  const auto serial =
      core::run_ack_sweep(shared_model(), 50, engine::options::serial());
  const auto parallel = core::run_ack_sweep(shared_model(), 50, {.threads = 8});
  ASSERT_EQ(serial.slices.size(), parallel.slices.size());
  for (std::size_t i = 0; i < serial.slices.size(); ++i) {
    EXPECT_EQ(serial.slices[i].counts, parallel.slices[i].counts);
    EXPECT_EQ(digest(serial.slices[i].handshake_ms),
              digest(parallel.slices[i].handshake_ms));
  }
}

}  // namespace
}  // namespace certquic
