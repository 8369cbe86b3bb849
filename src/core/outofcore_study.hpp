// Out-of-core sweep study: the driver that finally decouples population
// size from resident memory. A large probe plan is partitioned into
// shard-sized sub-plans, each shard runs through the engine into its
// own spill file (engine/spill.hpp), and the shards are merged back in
// plan order through a streaming aggregator — so the peak working set
// is one record per shard instead of the whole record stream. The study
// optionally runs the materializing in-memory baseline over the same
// plan and reports both aggregates (bit-identical by construction —
// enforced at 1/2/8 threads by tests/outofcore_test.cpp) plus the peak
// RSS of each path (util/rss_meter.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/longitudinal.hpp"
#include "engine/engine.hpp"
#include "internet/model.hpp"

namespace certquic::core {

/// Parameters of one out-of-core sweep.
struct outofcore_options {
  /// 0 = probe every QUIC service; otherwise the deterministic sample.
  std::size_t max_services = 0;
  /// Spill shards. engine::shard_layout cuts the sample into
  /// contiguous slices, each spilled to its own file — the same files
  /// epoch 0 of the longitudinal service writes for these settings.
  std::size_t shards = 8;
  /// Directory for the shard spill files; created when missing.
  std::string spill_dir;
  std::size_t initial_size = 1362;
  /// Also run the materializing in-memory baseline and compare.
  bool compare_in_memory = true;
  /// Leave the shard files on disk, at spill_dir /
  /// engine::shard_layout::file_name(s), for later re-aggregation.
  bool keep_spills = false;
};

/// Study output. RSS figures are kilobytes and 0 when the platform
/// cannot measure (see util/rss_meter.hpp) — never compare them into
/// pass/fail logic on such platforms.
struct outofcore_result {
  std::size_t sampled = 0;
  std::size_t shards = 0;
  /// Records written per shard file (sums to spill.records).
  std::vector<std::size_t> shard_records;

  /// Both paths fold through epoch_aggregate_sink, so any divergence
  /// between them is a pipeline bug, never an aggregator one.
  epoch_aggregate spill;      // shard → spill → merge path
  epoch_aggregate in_memory;  // materializing baseline (if compared)
  bool compared = false;
  /// Records, class counts, byte totals and stream digest all equal,
  /// when compared.
  bool identical = false;

  std::size_t spill_peak_rss_kb = 0;
  std::size_t in_memory_peak_rss_kb = 0;
};

/// Runs the sharded spill → merge pipeline (and, by default, the
/// in-memory baseline) over the QUIC population. Probes execute on the
/// engine's thread pool; both paths' aggregates are bit-identical at
/// any thread count. Throws config_error when spill_dir is empty or
/// cannot be created.
[[nodiscard]] outofcore_result run_outofcore_study(
    const internet::model& m, const outofcore_options& opt,
    const engine::options& exec = {});

}  // namespace certquic::core
