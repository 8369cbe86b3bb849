// Longitudinal-service tests: the epoch service must be crash-resumable
// — a killed run (complete shards on disk, one truncated, the rest
// missing) resumed in a fresh process must produce bit-identical
// aggregates, digests and rendered tables to an uninterrupted run at 1,
// 2 and 8 threads, and every uninterrupted run must equal the serial
// one; complete shards must be reused rather than re-probed; a store
// must reject a mismatched configuration; a corrupted (reordered) shard
// stream must be caught by the sealed epoch digest; and a shard left in
// the older text format must be re-probed, not replayed.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/spill.hpp"
#include "service/census_service.hpp"
#include "service/epoch_store.hpp"
#include "spill_bytes.hpp"
#include "util/errors.hpp"

namespace certquic {
namespace {

namespace fs = std::filesystem;

service::service_options small_opts(const std::string& store_dir) {
  service::service_options opt;
  opt.store_dir = store_dir;
  opt.domains = 2000;
  opt.seed = 42;
  opt.sample = 120;
  opt.shards = 3;
  opt.epochs = 3;
  return opt;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir;
}

std::vector<fs::path> shard_files(const fs::path& root) {
  std::vector<fs::path> shards;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().rfind("shard_", 0) == 0) {
      shards.push_back(entry.path());
    }
  }
  std::sort(shards.begin(), shards.end());
  return shards;
}

/// Cuts a file after `keep_bytes` bytes, as a kill mid-write would.
void truncate_file(const fs::path& path, std::size_t keep_bytes) {
  ASSERT_GT(fs::file_size(path), keep_bytes);
  fs::resize_file(path, keep_bytes);
}

void expect_identical(const service::service_result& a,
                      const service::service_result& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    const core::epoch_aggregate& ag = a.epochs[i].aggregate;
    const core::epoch_aggregate& bg = b.epochs[i].aggregate;
    EXPECT_EQ(ag.records, bg.records) << "epoch " << i;
    EXPECT_EQ(ag.stream_digest, bg.stream_digest) << "epoch " << i;
    EXPECT_EQ(ag.counts, bg.counts) << "epoch " << i;
    EXPECT_EQ(ag.bytes_sent_total, bg.bytes_sent_total) << "epoch " << i;
    EXPECT_EQ(ag.bytes_received_total, bg.bytes_received_total)
        << "epoch " << i;
    ASSERT_EQ(ag.first_burst_amplification.size(),
              bg.first_burst_amplification.size())
        << "epoch " << i;
    if (!ag.first_burst_amplification.empty()) {
      EXPECT_EQ(ag.first_burst_amplification.median(),
                bg.first_burst_amplification.median())
          << "epoch " << i;
      EXPECT_EQ(ag.first_burst_amplification.quantile(0.95),
                bg.first_burst_amplification.quantile(0.95))
          << "epoch " << i;
    }
  }
  EXPECT_EQ(service::render_epoch_tables(a),
            service::render_epoch_tables(b));
}

TEST(CensusService, KillAndResumeBitIdenticalAcrossThreads) {
  service::service_result serial;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const engine::options exec{.threads = threads};
    const std::string tag = std::to_string(threads);

    const auto full_dir = fresh_dir("certquic_service_full_" + tag);
    const auto full =
        service::run_epochs(small_opts(full_dir.string()), exec);
    ASSERT_TRUE(full.complete);
    ASSERT_EQ(full.epochs.size(), 3u);
    EXPECT_EQ(full.probed_shards, 9u);
    if (threads == 1) {
      serial = full;
    } else {
      expect_identical(serial, full);
    }

    // Kill after 4 shard slices: epoch 0 sealed, epoch 1 in progress.
    const auto kill_dir = fresh_dir("certquic_service_kill_" + tag);
    auto aborted_opts = small_opts(kill_dir.string());
    aborted_opts.abort_after_shards = 4;
    const auto aborted = service::run_epochs(aborted_opts, exec);
    EXPECT_FALSE(aborted.complete);
    EXPECT_EQ(aborted.probed_shards, 4u);
    ASSERT_EQ(aborted.epochs.size(), 1u);

    // Worse than a clean kill: the last shard written is also cut
    // mid-record, as a crash mid-write would leave it.
    const auto shards = shard_files(kill_dir);
    ASSERT_FALSE(shards.empty());
    truncate_file(shards.back(), 64);
    ASSERT_EQ(engine::spill_probe(shards.back().string()).state,
              engine::spill_state::truncated);

    const auto resumed =
        service::run_epochs(small_opts(kill_dir.string()), exec);
    ASSERT_TRUE(resumed.complete);
    // Epoch 0's three shards are reused; the truncated one and the
    // five never-written ones are (re-)probed.
    EXPECT_EQ(resumed.probed_shards, 6u);
    expect_identical(full, resumed);
    fs::remove_all(full_dir);
    fs::remove_all(kill_dir);
  }
}

TEST(CensusService, ResumeReusesCompleteShards) {
  const auto dir = fresh_dir("certquic_service_reuse");
  const auto first = service::run_epochs(small_opts(dir.string()));
  ASSERT_TRUE(first.complete);
  EXPECT_EQ(first.probed_shards, 9u);

  const auto second = service::run_epochs(small_opts(dir.string()));
  ASSERT_TRUE(second.complete);
  EXPECT_EQ(second.probed_shards, 0u);
  for (const auto& rep : second.epochs) {
    EXPECT_EQ(rep.shards_probed, 0u);
    EXPECT_EQ(rep.shards_reused, 3u);
  }
  expect_identical(first, second);
  fs::remove_all(dir);
}

TEST(CensusService, ManifestConfigMismatchThrows) {
  const auto dir = fresh_dir("certquic_service_mismatch");
  auto opt = small_opts(dir.string());
  opt.epochs = 1;
  ASSERT_TRUE(service::run_epochs(opt).complete);
  opt.seed = 43;
  EXPECT_THROW((void)service::run_epochs(opt), config_error);
  fs::remove_all(dir);
}

TEST(CensusService, CorruptedStoreDetected) {
  const auto dir = fresh_dir("certquic_service_corrupt");
  auto opt = small_opts(dir.string());
  opt.epochs = 1;
  ASSERT_TRUE(service::run_epochs(opt).complete);

  // Swap two records of one shard: the file still carries a valid
  // footer and the right record count, so only the sealed epoch's
  // order-sensitive stream digest can catch it.
  const auto shards = shard_files(dir);
  ASSERT_FALSE(shards.empty());
  auto spill = test::read_spill_bytes(shards.front());
  ASSERT_GE(spill.records.size(), 2u);
  ASSERT_NE(spill.records[0], spill.records[1]);
  std::swap(spill.records[0], spill.records[1]);
  test::write_spill_bytes(shards.front(), spill);
  ASSERT_TRUE(engine::spill_probe(shards.front().string()).complete());
  EXPECT_THROW((void)service::run_epochs(opt), codec_error);
  fs::remove_all(dir);
}

TEST(CensusService, TextFormatShardIsReprobed) {
  const auto dir = fresh_dir("certquic_service_migrate");
  const auto first = service::run_epochs(small_opts(dir.string()));
  ASSERT_TRUE(first.complete);

  // A store written by the text-format (v3) spill: one complete shard
  // of it, header line plus footer, fails the v4 magic check. Resume
  // must re-probe exactly that slice and seal the same epochs.
  const auto shards = shard_files(dir);
  ASSERT_EQ(shards.size(), 9u);
  const auto before = engine::spill_probe(shards[4].string());
  ASSERT_TRUE(before.complete());
  {
    std::ofstream out{shards[4], std::ios::trunc};
    out << "certquic-spill v3 " << before.variants << ' ' << before.sampled
        << "\ncertquic-spill end 0\n";
  }
  EXPECT_EQ(engine::spill_probe(shards[4].string()).state,
            engine::spill_state::truncated);

  const auto resumed = service::run_epochs(small_opts(dir.string()));
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.probed_shards, 1u);
  ASSERT_EQ(resumed.epochs.size(), 3u);
  EXPECT_EQ(resumed.epochs[1].shards_probed, 1u);
  EXPECT_EQ(resumed.epochs[1].shards_reused, 2u);
  expect_identical(first, resumed);
  EXPECT_TRUE(engine::spill_probe(shards[4].string()).complete());
  fs::remove_all(dir);
}

TEST(CensusService, BoundedServeLoopSealsOneEpochPerCall) {
  const auto full_dir = fresh_dir("certquic_service_serve_full");
  const auto full = service::run_epochs(small_opts(full_dir.string()));

  // The `serve` loop: raise the target by one epoch per pass.
  const auto dir = fresh_dir("certquic_service_serve");
  auto opt = small_opts(dir.string());
  service::service_result last;
  for (opt.epochs = 1; opt.epochs <= 3; ++opt.epochs) {
    last = service::run_epochs(opt);
    EXPECT_EQ(last.epochs.size(), opt.epochs);
    EXPECT_TRUE(last.complete);
    EXPECT_EQ(last.probed_shards, 3u) << "pass " << opt.epochs;
  }
  expect_identical(full, last);
  fs::remove_all(full_dir);
  fs::remove_all(dir);
}

TEST(CensusService, RejectsEmptyOptions) {
  EXPECT_THROW((void)service::run_epochs({}), config_error);
  auto opt = small_opts("/tmp/certquic_service_unused");
  opt.epochs = 0;
  EXPECT_THROW((void)service::run_epochs(opt), config_error);
}

}  // namespace
}  // namespace certquic
