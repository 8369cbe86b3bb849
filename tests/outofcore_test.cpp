// Out-of-core pipeline tests: the sharded spill → merge path (epoch 0
// of service::run_epochs) must aggregate bit-identically to a direct
// run at 1, 2 and 8 threads and at any shard count, and report each
// shard file's record count; a spilled record stream must replay to
// the direct run's records and a foreign file must not replay, spill
// files must carry a validating record-count footer (truncation at a
// record boundary or at any byte offset, a missing footer or a count
// mismatch all fail replay loudly), replay must reject
// wrong-plan/wrong-model streams, and population synthesis must be
// thread-count-invariant.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/spill.hpp"
#include "service/census_service.hpp"
#include "spill_bytes.hpp"
#include "util/rss_meter.hpp"

namespace certquic {
namespace {

const internet::model& shared_model() {
  static const internet::model m =
      internet::model::generate({.domains = 2000, .seed = 42});
  return m;
}

std::filesystem::path temp_file(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

/// Spills a small two-variant plan into `path`, fills in `plan` and
/// returns the record count. The file ends with the record-count
/// footer.
std::size_t spill_fixture(const std::filesystem::path& path,
                          engine::probe_plan& plan,
                          std::size_t services = 20,
                          bool capture_certificate = false) {
  plan.max_services = services;
  plan.sweep_initial_sizes({1200, 1362});
  for (engine::probe_variant& v : plan.variants) {
    v.capture_certificate = capture_certificate;
  }
  engine::spill_sink sink{path.string()};
  engine::executor{shared_model(), engine::options::serial()}.run(plan,
                                                                  sink);
  return sink.records_written();
}

class counting_sink final : public engine::observation_sink {
 public:
  void on_record(const engine::probe_record&) override { ++records; }
  std::size_t records = 0;
};

class certificate_bytes_sink final : public engine::observation_sink {
 public:
  void on_record(const engine::probe_record& rec) override {
    total += rec.result.obs.certificate_message.size();
  }
  std::size_t total = 0;
};

/// A one-epoch store at `dir`: the out-of-core census of the
/// shared_model() population.
service::service_options epoch_zero(const std::filesystem::path& dir,
                                    std::size_t sample,
                                    std::size_t shards) {
  return {.store_dir = dir.string(),
          .domains = 2000,
          .seed = 42,
          .sample = sample,
          .shards = shards,
          .epochs = 1};
}

/// Epoch 0 run into a fresh store at `dir`.
service::epoch_report one_epoch(const std::filesystem::path& dir,
                                std::size_t sample, std::size_t shards,
                                std::size_t threads) {
  std::filesystem::remove_all(dir);
  service::service_result r = service::run_epochs(
      epoch_zero(dir, sample, shards), {.threads = threads});
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.epochs.size(), 1u);
  return std::move(r.epochs.at(0));
}

TEST(EpochZeroCensus, MergeMatchesDirectRunAcrossThreadCounts) {
  const auto dir = temp_file("certquic_epoch_zero_threads_test");
  const auto plan = engine::probe_plan::single({}, 150);
  core::epoch_aggregate direct;
  {
    core::epoch_aggregate_sink sink{direct};
    engine::executor{shared_model(), engine::options::serial()}.run(plan,
                                                                    sink);
  }
  ASSERT_GT(direct.records, 0u);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto epoch = one_epoch(dir, 150, 4, threads);
    const core::epoch_aggregate& merged = epoch.aggregate;
    EXPECT_EQ(merged.records, direct.records) << threads << " threads";
    EXPECT_EQ(merged.records, epoch.sampled) << threads << " threads";
    EXPECT_EQ(merged.counts, direct.counts) << threads << " threads";
    EXPECT_EQ(merged.bytes_sent_total, direct.bytes_sent_total)
        << threads << " threads";
    EXPECT_EQ(merged.bytes_received_total, direct.bytes_received_total)
        << threads << " threads";
    EXPECT_EQ(merged.certificate_bytes, direct.certificate_bytes)
        << threads << " threads";
    EXPECT_EQ(merged.stream_digest, direct.stream_digest)
        << "merged stream diverged at " << threads << " threads";
    EXPECT_EQ(epoch.shard_records.size(), 4u);
  }
  std::filesystem::remove_all(dir);
}

TEST(EpochZeroCensus, ShardCountDoesNotChangeTheDigest) {
  const auto dir = temp_file("certquic_epoch_zero_shards_test");
  const auto one = one_epoch(dir, 120, 1, 2);
  const auto seven = one_epoch(dir, 120, 7, 2);
  EXPECT_EQ(one.shard_records.size(), 1u);
  EXPECT_EQ(seven.shard_records.size(), 7u);
  EXPECT_EQ(one.aggregate.stream_digest, seven.aggregate.stream_digest);
  std::filesystem::remove_all(dir);
}

TEST(EpochZeroCensus, ShardRecordsAreTheShardFilesCounts) {
  const auto dir = temp_file("certquic_epoch_zero_records_test");
  const auto epoch = one_epoch(dir, 60, 3, 1);
  ASSERT_EQ(epoch.shard_records.size(), 3u);
  EXPECT_EQ(std::accumulate(epoch.shard_records.begin(),
                            epoch.shard_records.end(), std::size_t{0}),
            epoch.aggregate.records);
  for (std::size_t s = 0; s < epoch.shard_records.size(); ++s) {
    const auto probe = engine::spill_probe(
        (dir / "epoch_0000" / engine::shard_layout::file_name(s)).string());
    EXPECT_TRUE(probe.complete()) << "shard " << s;
    EXPECT_EQ(probe.records, epoch.shard_records[s]) << "shard " << s;
  }

  // A rerun reuses every shard and reports the same counts.
  const auto rerun = service::run_epochs(epoch_zero(dir, 60, 3));
  ASSERT_EQ(rerun.epochs.size(), 1u);
  EXPECT_EQ(rerun.epochs[0].shards_reused, 3u);
  EXPECT_EQ(rerun.epochs[0].shard_records, epoch.shard_records);
  std::filesystem::remove_all(dir);
}

TEST(ShardLayout, CutsTheSampleIntoPinnedSlices) {
  // Epoch stores on disk depend on this layout, trailing empty slices
  // included.
  struct row {
    std::size_t sampled;
    std::size_t requested;
    std::vector<std::size_t> widths;
  };
  const std::vector<row> table = {
      {0, 4, {0}},
      {120, 0, {120}},
      {120, 7, {18, 18, 18, 18, 18, 18, 12}},
      {10, 7, {2, 2, 2, 2, 2, 0, 0}},
      {5, 9, {1, 1, 1, 1, 1}},
  };
  for (const row& r : table) {
    std::vector<std::uint32_t> sample(r.sampled);
    std::iota(sample.begin(), sample.end(), 100u);
    const engine::shard_layout layout{r.sampled, r.requested};
    ASSERT_EQ(layout.shards(), r.widths.size())
        << r.sampled << " services, " << r.requested << " shards";
    std::vector<std::uint32_t> rejoined;
    for (std::size_t s = 0; s < layout.shards(); ++s) {
      const auto slice = layout.slice(sample, s);
      EXPECT_EQ(slice.size(), r.widths[s])
          << r.sampled << " services, " << r.requested << " shards, shard "
          << s;
      rejoined.insert(rejoined.end(), slice.begin(), slice.end());
    }
    EXPECT_EQ(rejoined, sample);
  }
  EXPECT_EQ(engine::shard_layout::file_name(0), "shard_0000.spill");
  EXPECT_EQ(engine::shard_layout::file_name(31), "shard_0031.spill");
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
  std::vector<double> direct_amplification;
  engine::callback_sink direct_sink{[&](const engine::probe_record& pr) {
    direct.push_back(record_digest(pr));
    direct_amplification.push_back(
        pr.result.obs.first_burst_amplification());
  }};
  const engine::executor eng{m, {.threads = 4}};
  eng.run(plan, direct_sink);
  ASSERT_GT(direct.size(), 0u);

  // Spill the same plan, then replay the file.
  engine::spill_sink spill{path};
  eng.run(plan, spill);
  EXPECT_EQ(spill.records_written(), direct.size());

  std::vector<std::string> replayed;
  std::vector<double> replayed_amplification;
  engine::callback_sink replay_sink{[&](const engine::probe_record& pr) {
    replayed.push_back(record_digest(pr));
    replayed_amplification.push_back(
        pr.result.obs.first_burst_amplification());
  }};
  const engine::spill_reader reader{m, plan};
  const std::size_t replayed_count = reader.replay(path, replay_sink);

  EXPECT_EQ(replayed_count, direct.size());
  EXPECT_EQ(replayed, direct);
  EXPECT_EQ(direct_amplification, replayed_amplification);
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

TEST(SpillFooter, TruncationAtRecordBoundaryThrows) {
  const auto path = temp_file("certquic_spill_truncated.spill");
  engine::probe_plan plan;
  const std::size_t records = spill_fixture(path, plan);
  ASSERT_GT(records, 2u);

  // Drop the footer AND the last record: every remaining record
  // decodes cleanly, which is exactly the silent-data-loss case the
  // footer exists to catch.
  auto spill = test::read_spill_bytes(path);
  ASSERT_EQ(spill.records.size(), records);
  spill.records.pop_back();
  spill.footer.clear();
  test::write_spill_bytes(path, spill);

  counting_sink sink;
  const engine::spill_reader reader{shared_model(), plan};
  EXPECT_THROW((void)reader.replay(path.string(), sink), codec_error);
  std::filesystem::remove(path);
}

TEST(SpillFooter, MissingFooterThrows) {
  const auto path = temp_file("certquic_spill_nofooter.spill");
  engine::probe_plan plan;
  spill_fixture(path, plan);
  auto spill = test::read_spill_bytes(path);
  spill.footer.clear();  // just the footer; all records intact
  test::write_spill_bytes(path, spill);

  counting_sink sink;
  const engine::spill_reader reader{shared_model(), plan};
  EXPECT_THROW((void)reader.replay(path.string(), sink), codec_error);
  std::filesystem::remove(path);
}

TEST(SpillFooter, CountMismatchThrows) {
  const auto path = temp_file("certquic_spill_badcount.spill");
  engine::probe_plan plan;
  const std::size_t records = spill_fixture(path, plan);
  auto spill = test::read_spill_bytes(path);
  ASSERT_EQ(spill.footer, test::spill_footer(records));
  spill.footer = test::spill_footer(records + 3);
  test::write_spill_bytes(path, spill);

  counting_sink sink;
  const engine::spill_reader reader{shared_model(), plan};
  EXPECT_THROW((void)reader.replay(path.string(), sink), codec_error);
  std::filesystem::remove(path);
}

TEST(SpillFooter, DataAfterFooterThrows) {
  const auto path = temp_file("certquic_spill_trailing.spill");
  engine::probe_plan plan;
  spill_fixture(path, plan);
  auto spill = test::read_spill_bytes(path);
  spill.footer.push_back(0);  // one byte past "end\n"
  test::write_spill_bytes(path, spill);

  EXPECT_EQ(engine::spill_probe(path.string()).state,
            engine::spill_state::truncated);
  counting_sink sink;
  const engine::spill_reader reader{shared_model(), plan};
  EXPECT_THROW((void)reader.replay(path.string(), sink), codec_error);
  std::filesystem::remove(path);
}

TEST(SpillFooter, EmptySampleRoundTrips) {
  const auto path = temp_file("certquic_spill_empty.spill");
  const auto plan = engine::probe_plan::single(engine::probe_variant{}, 5);
  {
    engine::spill_sink sink{path.string()};
    const std::vector<std::uint32_t> nothing;
    engine::executor{shared_model(), engine::options::serial()}.run(
        plan, nothing, sink);
    EXPECT_EQ(sink.records_written(), 0u);
  }
  counting_sink sink;
  const engine::spill_reader reader{shared_model(), plan};
  EXPECT_EQ(reader.replay(path.string(), sink), 0u);
  EXPECT_EQ(sink.records, 0u);
  std::filesystem::remove(path);
}

TEST(SpillProbe, ClassifiesCompleteTruncatedMissing) {
  const auto path = temp_file("certquic_spill_probe.spill");
  engine::probe_plan plan;
  const std::size_t records = spill_fixture(path, plan);

  auto probe = engine::spill_probe(path.string());
  EXPECT_EQ(probe.state, engine::spill_state::complete);
  EXPECT_TRUE(probe.complete());
  EXPECT_EQ(probe.records, records);
  EXPECT_EQ(probe.variants, plan.variants.size());
  EXPECT_EQ(probe.sampled * probe.variants, records);

  // Footer dropped: every record is still salvageable, but the file
  // must not classify as complete.
  auto spill = test::read_spill_bytes(path);
  spill.footer.clear();
  test::write_spill_bytes(path, spill);
  probe = engine::spill_probe(path.string());
  EXPECT_EQ(probe.state, engine::spill_state::truncated);
  EXPECT_FALSE(probe.complete());
  EXPECT_EQ(probe.records, records);

  // Cut mid-record: only the records before the tear count.
  bytes torn = spill.records[2];
  torn.resize(torn.size() / 2);
  spill.records.resize(2);
  spill.records.push_back(torn);
  test::write_spill_bytes(path, spill);
  probe = engine::spill_probe(path.string());
  EXPECT_EQ(probe.state, engine::spill_state::truncated);
  EXPECT_EQ(probe.records, 2u);
  std::filesystem::remove(path);

  probe = engine::spill_probe(path.string());
  EXPECT_EQ(probe.state, engine::spill_state::missing);
  EXPECT_EQ(probe.records, 0u);

  EXPECT_EQ(engine::to_string(engine::spill_state::complete), "complete");
  EXPECT_EQ(engine::to_string(engine::spill_state::truncated), "truncated");
  EXPECT_EQ(engine::to_string(engine::spill_state::missing), "missing");
}

TEST(SpillProbe, EveryByteCutIsTruncated) {
  const auto path = temp_file("certquic_spill_every_cut.spill");
  engine::probe_plan plan;
  const std::size_t records =
      spill_fixture(path, plan, 4, /*capture_certificate=*/true);
  ASSERT_EQ(plan.variants.size(), 2u);
  certificate_bytes_sink certs;
  const engine::spill_reader reader{shared_model(), plan};
  ASSERT_EQ(reader.replay(path.string(), certs), records);
  ASSERT_GT(certs.total, 0u) << "no certificate captured to cut into";

  // Cut at every offset from size - 1 down to 0. Truncating the one
  // file further each step visits the offsets in descending order, so
  // the salvage count may only stay or fall.
  const std::uintmax_t size = std::filesystem::file_size(path);
  std::size_t salvaged = records;
  for (std::uintmax_t cut = size; cut-- > 0;) {
    std::filesystem::resize_file(path, cut);
    const auto probe = engine::spill_probe(path.string());
    ASSERT_EQ(probe.state, engine::spill_state::truncated) << "cut " << cut;
    ASSERT_LE(probe.records, salvaged) << "cut " << cut;
    salvaged = probe.records;
    counting_sink sink;
    ASSERT_THROW((void)reader.replay(path.string(), sink), codec_error)
        << "cut " << cut;
  }
  EXPECT_EQ(salvaged, 0u);
  std::filesystem::remove(path);
}

TEST(SpillProbe, MergeErrorNamesShardStates) {
  const auto good = temp_file("certquic_spill_probe_good.spill");
  const auto bad = temp_file("certquic_spill_probe_bad.spill");
  engine::probe_plan plan;
  spill_fixture(good, plan);
  {
    engine::probe_plan plan_again;
    spill_fixture(bad, plan_again);
  }
  auto spill = test::read_spill_bytes(bad);
  spill.footer.clear();  // footer gone: truncated
  test::write_spill_bytes(bad, spill);

  counting_sink sink;
  const engine::spill_merge merge{shared_model(), plan};
  try {
    (void)merge.replay({good.string(), bad.string()}, sink);
    FAIL() << "replay of a truncated shard must throw";
  } catch (const codec_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(good.string() + "=complete"), std::string::npos)
        << what;
    EXPECT_NE(what.find(bad.string() + "=truncated"), std::string::npos)
        << what;
  }
  std::filesystem::remove(good);
  std::filesystem::remove(bad);
}

TEST(SpillRecord, MalformedBodyThrows) {
  const auto path = temp_file("certquic_spill_malformed.spill");
  engine::probe_plan plan;
  spill_fixture(path, plan);
  const auto golden = test::read_spill_bytes(path);
  const bytes& first = golden.records.front();
  const std::size_t cls_at = test::class_byte_offset(first);

  // Each damage keeps the framing (prefixes, footer count) intact, so
  // only the body checks can catch it.
  std::vector<std::pair<const char*, bytes>> damaged;
  bytes rec = first;
  rec[cls_at] = 0xff;
  damaged.emplace_back("class out of range", rec);
  rec = first;
  rec[cls_at + 1] |= 0x40;
  damaged.emplace_back("unknown flag bit", rec);
  bytes body = test::record_body(first);
  body.push_back(0);
  damaged.emplace_back("body longer than its fields",
                       test::frame_record(body));
  body.resize(body.size() - 2);
  damaged.emplace_back("body shorter than its fields",
                       test::frame_record(body));

  const engine::spill_reader reader{shared_model(), plan};
  for (const auto& [what, record] : damaged) {
    auto spill = golden;
    spill.records.front() = record;
    test::write_spill_bytes(path, spill);
    EXPECT_EQ(engine::spill_probe(path.string()).state,
              engine::spill_state::truncated)
        << what;
    counting_sink sink;
    EXPECT_THROW((void)reader.replay(path.string(), sink), codec_error)
        << what;
  }
  std::filesystem::remove(path);
}

TEST(SpillLifecycle, RecordWithoutBeginThrows) {
  const auto path = temp_file("certquic_spill_nolifecycle.spill");
  engine::spill_sink sink{path.string()};
  const auto plan = engine::probe_plan::single(engine::probe_variant{}, 1);
  const internet::service_record& rec = shared_model().records().front();
  const scan::probe_result result{};
  EXPECT_THROW(sink.on_record(engine::probe_record{
                   .service_index = 0,
                   .variant_index = 0,
                   .record = rec,
                   .variant = plan.variants[0],
                   .result = result,
               }),
               config_error);
  std::filesystem::remove(path);
}

TEST(SpillReplay, WrongPlanRejected) {
  const auto path = temp_file("certquic_spill_wrongplan.spill");
  engine::probe_plan two_variant_plan;
  spill_fixture(path, two_variant_plan);  // spilled under two variants

  const auto one_variant_plan =
      engine::probe_plan::single(engine::probe_variant{}, 20);
  counting_sink sink;
  const engine::spill_reader reader{shared_model(), one_variant_plan};
  EXPECT_THROW((void)reader.replay(path.string(), sink), config_error);
  std::filesystem::remove(path);
}

TEST(SpillReplay, WrongModelRejected) {
  const auto path = temp_file("certquic_spill_wrongmodel.spill");
  engine::probe_plan plan;
  spill_fixture(path, plan);  // service indices from the 2000-domain model

  const auto tiny = internet::model::generate({.domains = 20, .seed = 42});
  counting_sink sink;
  const engine::spill_reader reader{tiny, plan};
  EXPECT_THROW((void)reader.replay(path.string(), sink), config_error);
  std::filesystem::remove(path);
}

TEST(SpillReplay, ShardHeadersOverclaimingTogetherRejected) {
  // Each of two shard headers claims three quarters of the model: each
  // is within the model on its own, but the disjoint slices of one
  // sample cannot add up to more than the model holds, and on_begin
  // (which sinks reserve for) must never see that sum.
  class begin_sink final : public engine::observation_sink {
   public:
    void on_begin(const engine::probe_plan&, std::size_t sampled) override {
      announced = sampled;
    }
    void on_record(const engine::probe_record&) override {}
    std::size_t announced = 0;
  };

  const auto first = temp_file("certquic_spill_overclaim_0.spill");
  const auto second = temp_file("certquic_spill_overclaim_1.spill");
  engine::probe_plan plan;
  spill_fixture(first, plan);
  auto spill = test::read_spill_bytes(first);
  const std::size_t claim = shared_model().records().size() * 3 / 4;
  buffer_writer header{16};
  header.raw(bytes_view{spill.header}.first(8));  // magic
  quic::write_varint(header, plan.variants.size());
  quic::write_varint(header, claim);
  spill.header = std::move(header).take();
  test::write_spill_bytes(first, spill);
  test::write_spill_bytes(second, spill);

  begin_sink sink;
  const engine::spill_merge merge{shared_model(), plan};
  EXPECT_THROW((void)merge.replay({first.string(), second.string()}, sink),
               config_error);
  EXPECT_EQ(sink.announced, 0u);
  // One such shard alone is a plausible header and replays.
  EXPECT_NO_THROW((void)merge.replay({first.string()}, sink));
  EXPECT_EQ(sink.announced, claim);
  std::filesystem::remove(first);
  std::filesystem::remove(second);
}

TEST(SpillMerge, OutOfPlanOrderRejected) {
  const auto path = temp_file("certquic_spill_outoforder.spill");
  engine::probe_plan plan;
  const std::size_t records = spill_fixture(path, plan);
  ASSERT_GT(records, 2u);

  // Move the last record (variant 1) to the front of the record block:
  // the stream now goes 1, 0, ..., which no plan-ordered run produces.
  // The footer still counts every record.
  auto spill = test::read_spill_bytes(path);
  ASSERT_EQ(spill.records.size(), records);
  std::rotate(spill.records.begin(), spill.records.end() - 1,
              spill.records.end());
  test::write_spill_bytes(path, spill);

  counting_sink sink;
  const engine::spill_merge merge{shared_model(), plan};
  EXPECT_THROW((void)merge.replay({path.string()}, sink), codec_error);
  // Single-file replay is the one-shard merge: it fails closed too.
  const engine::spill_reader reader{shared_model(), plan};
  EXPECT_THROW((void)reader.replay(path.string(), sink), codec_error);
  std::filesystem::remove(path);
}

TEST(ModelSynthesis, ParallelIdenticalToSerial) {
  const internet::config base{.domains = 5000, .seed = 99};
  internet::config serial = base;
  serial.synth_threads = 1;
  internet::config parallel = base;
  parallel.synth_threads = 8;
  const auto a = internet::model::generate(serial);
  const auto b = internet::model::generate(parallel);
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    ASSERT_TRUE(a.records()[i] == b.records()[i]) << "record " << i;
  }
}

TEST(EngineOptions, ResolvedChunkIsSingleSourced) {
  engine::options opt;
  opt.chunk = 0;
  EXPECT_EQ(opt.resolved_chunk(), 64u);
  opt.chunk = 17;
  EXPECT_EQ(opt.resolved_chunk(), 17u);
}

TEST(RssMeter, PhasesReportIndependentPeaks) {
  if (rss_meter::current_kb() == 0) {
    GTEST_SKIP() << "RSS not measurable on this platform";
  }
  std::size_t small_peak = 0;
  std::size_t big_peak = 0;
  {
    rss_meter::phase phase;
    small_peak = phase.peak_kb();
  }
  {
    rss_meter::phase phase;
    std::vector<char> ballast(64 << 20, 1);
    big_peak = phase.peak_kb();
    EXPECT_GT(ballast.size(), 0u);
  }
  EXPECT_GT(big_peak, 0u);
  EXPECT_GT(big_peak, small_peak);
  EXPECT_GE(big_peak, small_peak + (48u << 10));  // the 64 MB ballast
}

}  // namespace
}  // namespace certquic
