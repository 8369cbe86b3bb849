// Longitudinal-service tests: the epoch service must be crash-resumable
// — a killed run (complete shards on disk, one truncated, the rest
// missing) resumed in a fresh process must produce bit-identical
// aggregates, digests and rendered tables to an uninterrupted run at 1,
// 2 and 8 threads; complete shards must be reused rather than
// re-probed; a store must reject a mismatched configuration; and a
// corrupted (reordered) shard stream must be caught by the sealed
// epoch digest.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/spill.hpp"
#include "service/census_service.hpp"
#include "service/epoch_store.hpp"
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

/// Cuts a file mid-line, as a kill mid-write would.
void truncate_file(const fs::path& path, std::size_t keep_bytes) {
  std::ifstream in{path, std::ios::binary};
  std::string bytes{std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
  ASSERT_GT(bytes.size(), keep_bytes);
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(keep_bytes));
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
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const engine::options exec{.threads = threads};
    const std::string tag = std::to_string(threads);

    const auto full_dir = fresh_dir("certquic_service_full_" + tag);
    const auto full =
        service::run_epochs(small_opts(full_dir.string()), exec);
    ASSERT_TRUE(full.complete);
    ASSERT_EQ(full.epochs.size(), 3u);
    EXPECT_EQ(full.probed_shards, 9u);

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

TEST(CensusService, ThreadCountsAgreeWithSerial) {
  const auto serial_dir = fresh_dir("certquic_service_serial");
  const auto serial = service::run_epochs(
      small_opts(serial_dir.string()), {.threads = 1});
  for (const std::size_t threads : {2u, 8u}) {
    const auto dir =
        fresh_dir("certquic_service_mt_" + std::to_string(threads));
    const auto mt = service::run_epochs(small_opts(dir.string()),
                                        {.threads = threads});
    expect_identical(serial, mt);
    fs::remove_all(dir);
  }
  fs::remove_all(serial_dir);
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

  // Swap two record lines of one shard: the file still carries a valid
  // footer and the right record count, so only the sealed epoch's
  // order-sensitive stream digest can catch it.
  const auto shards = shard_files(dir);
  ASSERT_FALSE(shards.empty());
  std::vector<std::string> lines;
  {
    std::ifstream in{shards.front()};
    std::string line;
    while (std::getline(in, line)) {
      lines.push_back(line);
    }
  }
  ASSERT_GE(lines.size(), 4u);  // header, >=2 records, footer
  std::swap(lines[1], lines[2]);
  {
    std::ofstream out{shards.front(), std::ios::trunc};
    for (const std::string& line : lines) {
      out << line << '\n';
    }
  }
  EXPECT_THROW((void)service::run_epochs(opt), codec_error);
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
