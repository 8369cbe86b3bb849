// Out-of-core pipeline tests: the sharded spill → merge path must
// aggregate bit-identically to the in-memory path at 1, 2 and 8
// threads, spill files must carry a validating record-count footer
// (truncation at a line boundary, a missing footer or a count mismatch
// all fail replay loudly), replay must reject wrong-plan/wrong-model
// streams, the out-of-core study's shards must be epoch 0's shards,
// and population synthesis must be thread-count-invariant.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/outofcore_study.hpp"
#include "engine/spill.hpp"
#include "service/census_service.hpp"
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

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::ifstream in{path};
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_lines(const std::filesystem::path& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out{path, std::ios::trunc};
  for (const std::string& line : lines) {
    out << line << '\n';
  }
}

/// Spills a small two-variant plan and returns (path, plan, record
/// count). The file ends with the v2 footer.
std::size_t spill_fixture(const std::filesystem::path& path,
                          engine::probe_plan& plan) {
  plan.max_services = 20;
  plan.sweep_initial_sizes({1200, 1362});
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

TEST(OutofcoreStudy, SpillMergeMatchesInMemoryAcrossThreadCounts) {
  const auto dir = temp_file("certquic_outofcore_study_test");
  std::uint64_t first_digest = 0;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    core::outofcore_options opt;
    opt.max_services = 150;
    opt.shards = 4;
    opt.spill_dir = dir.string();
    const auto result = core::run_outofcore_study(
        shared_model(), opt, {.threads = threads});
    ASSERT_GT(result.spill.records, 0u);
    EXPECT_EQ(result.spill.records, result.sampled);
    EXPECT_TRUE(result.compared);
    EXPECT_TRUE(result.identical)
        << "spill-merge aggregate diverged at " << threads << " threads";
    EXPECT_EQ(result.shard_records.size(), result.shards);
    if (first_digest == 0) {
      first_digest = result.spill.stream_digest;
    } else {
      EXPECT_EQ(result.spill.stream_digest, first_digest)
          << "stream digest changed with " << threads << " threads";
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(OutofcoreStudy, ShardCountDoesNotChangeAggregates) {
  const auto dir = temp_file("certquic_outofcore_shards_test");
  std::uint64_t digest1 = 0, digest7 = 0;
  for (const std::size_t shards : {1u, 7u}) {
    core::outofcore_options opt;
    opt.max_services = 120;
    opt.shards = shards;
    opt.spill_dir = dir.string();
    opt.compare_in_memory = false;
    const auto result =
        core::run_outofcore_study(shared_model(), opt, {.threads = 2});
    (shards == 1 ? digest1 : digest7) = result.spill.stream_digest;
    EXPECT_EQ(result.shards, shards);
  }
  EXPECT_EQ(digest1, digest7);
  std::filesystem::remove_all(dir);
}

TEST(OutofcoreStudy, KeepSpillsLeavesValidatableShards) {
  const auto dir = temp_file("certquic_outofcore_keep_test");
  core::outofcore_options opt;
  opt.max_services = 60;
  opt.shards = 3;
  opt.spill_dir = dir.string();
  opt.keep_spills = true;
  opt.compare_in_memory = false;
  const auto result = core::run_outofcore_study(shared_model(), opt);
  ASSERT_EQ(result.spill_paths.size(), result.shards);

  engine::probe_variant variant;
  const auto plan =
      engine::probe_plan::single(std::move(variant), opt.max_services);
  counting_sink counter;
  const std::size_t merged = engine::spill_merge{shared_model(), plan}
                                 .replay(result.spill_paths, counter);
  EXPECT_EQ(merged, result.spill.records);
  EXPECT_EQ(counter.records, result.spill.records);
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

TEST(ShardLayout, StudyShardsAreEpochZeroShards) {
  // The out-of-core study and epoch 0 of the longitudinal service cut
  // the same sample into the same slices: same file names, same bytes,
  // same folded stream.
  const auto study_dir = temp_file("certquic_layout_study");
  const auto store_dir = temp_file("certquic_layout_store");
  std::filesystem::remove_all(study_dir);
  std::filesystem::remove_all(store_dir);

  core::outofcore_options opt;
  opt.max_services = 120;
  opt.shards = 7;
  opt.spill_dir = study_dir.string();
  opt.compare_in_memory = false;
  opt.keep_spills = true;
  const auto study = core::run_outofcore_study(shared_model(), opt);

  service::service_options sopt;
  sopt.store_dir = store_dir.string();
  sopt.domains = 2000;
  sopt.seed = 42;
  sopt.sample = 120;
  sopt.shards = 7;
  sopt.epochs = 1;
  const auto epochs = service::run_epochs(sopt);
  ASSERT_TRUE(epochs.complete);
  ASSERT_EQ(epochs.epochs.size(), 1u);
  EXPECT_EQ(epochs.epochs[0].aggregate.stream_digest,
            study.spill.stream_digest);

  std::vector<std::filesystem::path> epoch_shards;
  for (const auto& entry :
       std::filesystem::directory_iterator(store_dir / "epoch_0000")) {
    epoch_shards.push_back(entry.path());
  }
  std::sort(epoch_shards.begin(), epoch_shards.end());
  ASSERT_EQ(study.spill_paths.size(), 7u);
  ASSERT_EQ(epoch_shards.size(), study.spill_paths.size());
  for (std::size_t s = 0; s < epoch_shards.size(); ++s) {
    const std::filesystem::path study_shard{study.spill_paths[s]};
    EXPECT_EQ(study_shard.filename(), epoch_shards[s].filename());
    EXPECT_EQ(read_bytes(study_shard), read_bytes(epoch_shards[s]))
        << "shard " << s << " differs between the study and epoch 0";
  }
  std::filesystem::remove_all(study_dir);
  std::filesystem::remove_all(store_dir);
}

TEST(SpillFooter, TruncationAtLineBoundaryThrows) {
  const auto path = temp_file("certquic_spill_truncated.txt");
  engine::probe_plan plan;
  const std::size_t records = spill_fixture(path, plan);
  ASSERT_GT(records, 2u);

  // Drop the footer AND the last record: every remaining line parses
  // cleanly, which is exactly the silent-data-loss case the footer
  // exists to catch.
  auto lines = read_lines(path);
  lines.resize(lines.size() - 2);
  write_lines(path, lines);

  counting_sink sink;
  const engine::spill_reader reader{shared_model(), plan};
  EXPECT_THROW((void)reader.replay(path.string(), sink), codec_error);
  std::filesystem::remove(path);
}

TEST(SpillFooter, MissingFooterThrows) {
  const auto path = temp_file("certquic_spill_nofooter.txt");
  engine::probe_plan plan;
  spill_fixture(path, plan);
  auto lines = read_lines(path);
  lines.pop_back();  // just the footer; all records intact
  write_lines(path, lines);

  counting_sink sink;
  const engine::spill_reader reader{shared_model(), plan};
  EXPECT_THROW((void)reader.replay(path.string(), sink), codec_error);
  std::filesystem::remove(path);
}

TEST(SpillFooter, CountMismatchThrows) {
  const auto path = temp_file("certquic_spill_badcount.txt");
  engine::probe_plan plan;
  const std::size_t records = spill_fixture(path, plan);
  auto lines = read_lines(path);
  lines.back() = "certquic-spill end " + std::to_string(records + 3);
  write_lines(path, lines);

  counting_sink sink;
  const engine::spill_reader reader{shared_model(), plan};
  EXPECT_THROW((void)reader.replay(path.string(), sink), codec_error);
  std::filesystem::remove(path);
}

TEST(SpillFooter, EmptySampleRoundTrips) {
  const auto path = temp_file("certquic_spill_empty.txt");
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
  const auto path = temp_file("certquic_spill_probe.txt");
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
  auto lines = read_lines(path);
  lines.pop_back();
  write_lines(path, lines);
  probe = engine::spill_probe(path.string());
  EXPECT_EQ(probe.state, engine::spill_state::truncated);
  EXPECT_FALSE(probe.complete());
  EXPECT_EQ(probe.records, records);

  // Cut mid-record: only the records before the tear count.
  lines.resize(3);  // header + two records
  write_lines(path, lines);
  std::ofstream{path, std::ios::app} << "torn-record 17";
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

TEST(SpillProbe, MergeErrorNamesShardStates) {
  const auto good = temp_file("certquic_spill_probe_good.txt");
  const auto bad = temp_file("certquic_spill_probe_bad.txt");
  engine::probe_plan plan;
  spill_fixture(good, plan);
  {
    engine::probe_plan plan_again;
    spill_fixture(bad, plan_again);
  }
  auto lines = read_lines(bad);
  lines.pop_back();  // footer gone: truncated
  write_lines(bad, lines);

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

TEST(SpillLifecycle, RecordWithoutBeginThrows) {
  const auto path = temp_file("certquic_spill_nolifecycle.txt");
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
  const auto path = temp_file("certquic_spill_wrongplan.txt");
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
  const auto path = temp_file("certquic_spill_wrongmodel.txt");
  engine::probe_plan plan;
  spill_fixture(path, plan);  // service indices from the 2000-domain model

  const auto tiny = internet::model::generate({.domains = 20, .seed = 42});
  counting_sink sink;
  const engine::spill_reader reader{tiny, plan};
  EXPECT_THROW((void)reader.replay(path.string(), sink), config_error);
  std::filesystem::remove(path);
}

TEST(SpillMerge, OutOfPlanOrderRejected) {
  const auto path = temp_file("certquic_spill_outoforder.txt");
  engine::probe_plan plan;
  const std::size_t records = spill_fixture(path, plan);
  ASSERT_GT(records, 2u);

  // Move the last record (variant 1) to the front of the record block:
  // the stream now goes 1, 0, ..., which no plan-ordered run produces.
  auto lines = read_lines(path);
  const std::string last_record = lines[lines.size() - 2];
  lines.erase(lines.end() - 2);
  lines.insert(lines.begin() + 1, last_record);
  write_lines(path, lines);

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
    const auto& ra = a.records()[i];
    const auto& rb = b.records()[i];
    ASSERT_EQ(ra.seed, rb.seed) << "record " << i;
    ASSERT_EQ(ra.domain, rb.domain) << "record " << i;
    ASSERT_EQ(ra.svc, rb.svc) << "record " << i;
    ASSERT_EQ(ra.chain_profile, rb.chain_profile) << "record " << i;
    ASSERT_EQ(ra.behavior, rb.behavior) << "record " << i;
    ASSERT_EQ(ra.redirect_to, rb.redirect_to) << "record " << i;
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
