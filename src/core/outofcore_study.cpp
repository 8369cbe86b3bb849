#include "core/outofcore_study.hpp"

#include <filesystem>

#include "engine/spill.hpp"
#include "util/errors.hpp"
#include "util/rss_meter.hpp"

namespace certquic::core {
namespace {

/// The identity check: two paths that folded the same records in the
/// same order agree on every one of these fields.
bool same_stream(const epoch_aggregate& a, const epoch_aggregate& b) {
  return a.records == b.records && a.counts == b.counts &&
         a.bytes_sent_total == b.bytes_sent_total &&
         a.bytes_received_total == b.bytes_received_total &&
         a.certificate_bytes == b.certificate_bytes &&
         a.stream_digest == b.stream_digest;
}

/// What the materializing baseline keeps per probe: the full result,
/// exactly what a store-then-analyze pipeline pins in memory for the
/// whole run.
struct stored_record {
  std::uint32_t service_index = 0;
  std::uint32_t variant_index = 0;
  scan::probe_result result;
};

/// Deletes the shard files on scope exit unless released — spills must
/// not leak on the error paths (disk-full, failed replay) this
/// pipeline exists to surface.
class spill_cleanup {
 public:
  explicit spill_cleanup(const std::vector<std::string>& paths)
      : paths_(paths) {}
  ~spill_cleanup() {
    if (released_) {
      return;
    }
    std::error_code ec;
    for (const std::string& path : paths_) {
      std::filesystem::remove(path, ec);
    }
  }
  void release() noexcept { released_ = true; }

 private:
  const std::vector<std::string>& paths_;
  bool released_ = false;
};

}  // namespace

outofcore_result run_outofcore_study(const internet::model& m,
                                     const outofcore_options& opt,
                                     const engine::options& exec) {
  if (opt.spill_dir.empty()) {
    throw config_error("run_outofcore_study: spill_dir must be set");
  }
  const std::filesystem::path dir{opt.spill_dir};
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw config_error("run_outofcore_study: cannot create spill_dir " +
                       opt.spill_dir + ": " + ec.message());
  }

  const engine::probe_plan plan = engine::probe_plan::single(
      {.initial_size = opt.initial_size}, opt.max_services);

  const engine::executor eng{m, exec};
  const std::vector<std::uint32_t> sampled = eng.sample(plan);
  const engine::shard_layout layout{sampled.size(), opt.shards};

  outofcore_result out;
  out.sampled = sampled.size();
  out.shards = layout.shards();

  std::vector<std::string> paths;
  paths.reserve(out.shards);
  for (std::size_t s = 0; s < out.shards; ++s) {
    paths.push_back((dir / engine::shard_layout::file_name(s)).string());
  }
  spill_cleanup cleanup{paths};

  // Spill path first: with per-phase peak resets this order does not
  // matter, but on platforms where the meter falls back to sampling a
  // monotonic RSS it keeps the baseline's heap from being billed to
  // the spill phase.
  {
    rss_meter::phase phase;
    for (std::size_t s = 0; s < out.shards; ++s) {
      engine::spill_sink sink{paths[s]};
      eng.run(plan, layout.slice(sampled, s), sink);
      out.shard_records.push_back(sink.records_written());
    }
    epoch_aggregate_sink agg{out.spill};
    const engine::spill_merge merge{m, plan};
    merge.replay(paths, agg);
    out.spill_peak_rss_kb = phase.peak_kb();
  }

  if (opt.compare_in_memory) {
    rss_meter::phase phase;
    std::vector<stored_record> all;
    all.reserve(sampled.size() * plan.variants.size());
    engine::callback_sink collect{[&](const engine::probe_record& rec) {
      all.push_back(stored_record{
          .service_index = rec.service_index,
          .variant_index = rec.variant_index,
          .result = rec.result,
      });
    }};
    eng.run(plan, sampled, collect);
    epoch_aggregate_sink agg{out.in_memory};
    agg.on_begin(plan, sampled.size());
    for (const stored_record& rec : all) {
      agg.on_record({.service_index = rec.service_index,
                     .variant_index = rec.variant_index,
                     .record = m.records()[rec.service_index],
                     .variant = plan.variants[rec.variant_index],
                     .result = rec.result});
    }
    agg.on_end();
    out.in_memory_peak_rss_kb = phase.peak_kb();
    out.compared = true;
    out.identical = same_stream(out.spill, out.in_memory);
  }

  if (opt.keep_spills) {
    cleanup.release();
  }
  return out;
}

}  // namespace certquic::core
