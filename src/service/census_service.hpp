// The longitudinal census service: repeated census epochs over an
// evolving internet::model (internet/churn.cpp), executed through the
// plan → executor → sink engine, persisted through the spill pipeline
// into an epoch_store, and reported as epoch-over-epoch deltas. It is
// the one driver of the shard → spill → merge pipeline: a one-epoch run
// is the out-of-core census sweep (`certquic_scan outofcore`,
// `certquic_scan fig fig_outofcore_rss`).
//
// Resume invariants (what the kill-and-resume tests pin down):
//  1. Epoch worlds are pure functions of (config, churn, epoch) — a
//     resumed process regenerates exactly the world the killed one
//     probed (model::at_epoch).
//  2. Shard slices are pure functions of the epoch's sample and the
//     shard count (engine::shard_layout), and each slice's spill is
//     bit-identical however many threads probed it.
//  3. On entry to an epoch every shard file is classified with
//     engine::spill_probe: complete shards (matching the manifest's
//     record count and the slice's shape) are reused without
//     re-probing, truncated ones are discarded and re-run, missing
//     ones are run. The manifest is advisory; the spill footer is the
//     source of truth.
//  4. An epoch's aggregate is always produced by merging its shard
//     files in shard order — never partially from memory — so a
//     resumed epoch folds the byte-identical record stream an
//     uninterrupted run folds. The sealed digest cross-checks it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/longitudinal.hpp"
#include "engine/engine.hpp"
#include "internet/model.hpp"

namespace certquic::service {

/// One run (or resume) of the service.
struct service_options {
  /// Epoch store directory; required. Reopening an existing store
  /// resumes it (the store validates the configuration matches).
  std::string store_dir;
  std::size_t domains = 20'000;
  std::uint64_t seed = 42;
  /// 0 = census every QUIC service of each epoch's population.
  std::size_t sample = 0;
  std::size_t shards = 4;
  std::size_t initial_size = 1362;
  /// Target epoch count of this call (epochs 0..epochs-1). The store
  /// does not pin it: a later call may raise it, and the `serve` loop
  /// raises it by one per pass to stream per-epoch progress.
  std::size_t epochs = 4;
  internet::churn_config churn{};
  /// Crash injection for the resume tests: stop (cleanly, store
  /// resumable) before probing the (N+1)-th shard slice of this call.
  /// Reused complete shards do not count. 0 = no limit.
  std::size_t abort_after_shards = 0;
};

/// One sealed epoch's report.
struct epoch_report {
  std::uint64_t epoch = 0;
  internet::churn_summary churn{};
  std::size_t sampled = 0;        // QUIC services the epoch probed
  std::size_t shards_probed = 0;  // slices executed in this call
  std::size_t shards_reused = 0;  // complete on disk, not re-probed
  /// Records in each shard file, reused or probed, in shard order
  /// (sums to aggregate.records).
  std::vector<std::size_t> shard_records;
  core::epoch_aggregate aggregate;
};

/// What one run_epochs call accomplished. A complete run reports every
/// epoch of the store (earlier-sealed epochs are re-merged from their
/// shards), so a resumed run's output is bit-identical to an
/// uninterrupted one.
struct service_result {
  std::vector<epoch_report> epochs;
  bool complete = false;          // the store holds all target epochs
  std::size_t probed_shards = 0;  // slices executed in this call
};

/// Runs (or resumes) the service until the store holds `opt.epochs`
/// sealed epochs or abort_after_shards stops it. Throws config_error
/// on an empty store_dir or zero epochs, and codec_error when a sealed
/// epoch's re-merged stream contradicts its manifest digest (on-disk
/// corruption).
[[nodiscard]] service_result run_epochs(const service_options& opt,
                                        const engine::options& exec = {});

/// Renders the deterministic per-epoch census table plus the
/// epoch-over-epoch delta table — shared by `certquic_scan epochs`,
/// `serve` and `certquic_scan fig fig_epoch_deltas` so their outputs
/// stay diffable.
[[nodiscard]] std::string render_epoch_tables(const service_result& r);

}  // namespace certquic::service
