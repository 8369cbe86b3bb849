#include "service/census_service.hpp"

#include <cstdio>
#include <filesystem>

#include "engine/spill.hpp"
#include "service/epoch_store.hpp"
#include "util/errors.hpp"
#include "util/text_table.hpp"

namespace certquic::service {
namespace {

/// A complete shard is reusable iff its header matches the slice shape
/// and its record count is exactly what the deterministic slice
/// produces (and the manifest checkpoint, when present, agrees).
bool reusable_shard(const engine::spill_probe_result& probe,
                    std::size_t slice_services, std::size_t variants,
                    const std::optional<std::size_t>& checkpoint) {
  const std::size_t expected_records = slice_services * variants;
  return probe.complete() && probe.sampled == slice_services &&
         probe.variants == variants && probe.records == expected_records &&
         (!checkpoint.has_value() || *checkpoint == expected_records);
}

std::string signed_str(long long v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%+lld", v);
  return buf;
}

std::string signed_fixed(double v, int digits) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.*f", digits, v);
  return buf;
}

std::string quantile_cell(const stats::sample_set& s, double q,
                          int digits) {
  return s.empty() ? std::string("-") : fixed(s.quantile(q), digits);
}

}  // namespace

service_result run_epochs(const service_options& opt,
                          const engine::options& exec) {
  if (opt.store_dir.empty()) {
    throw config_error("run_epochs: store_dir must be set");
  }
  if (opt.epochs == 0) {
    throw config_error("run_epochs: epochs must be at least 1");
  }
  epoch_store store{{
      .root = opt.store_dir,
      .seed = opt.seed,
      .domains = opt.domains,
      .sample = opt.sample,
      .shards = opt.shards,
      .initial_size = opt.initial_size,
  }};
  // The one-variant QUIC census plan every epoch runs.
  const engine::probe_plan plan = engine::probe_plan::single(
      {.initial_size = opt.initial_size}, opt.sample);

  // One evolving world: generated once, then one churn step per epoch
  // (epoch e's population is at_epoch(e) record for record).
  internet::model m =
      internet::model::generate({.domains = opt.domains, .seed = opt.seed});
  service_result out;
  for (std::uint64_t e = 0; e < opt.epochs; ++e) {
    epoch_report rep;
    rep.epoch = e;
    if (e > 0) {
      rep.churn = m.step_epoch(opt.churn);
    }
    const engine::executor eng{m, exec};
    const std::vector<std::uint32_t> sampled = eng.sample(plan);
    rep.sampled = sampled.size();
    const engine::shard_layout layout{sampled.size(), opt.shards};
    store.ensure_epoch_dir(e);

    // Shard pass: reuse complete slices, discard truncated ones,
    // (re-)run whatever is left. The spill footer — not the manifest —
    // decides completeness (resume invariant 3).
    std::vector<std::string> paths;
    paths.reserve(layout.shards());
    rep.shard_records.reserve(layout.shards());
    for (std::size_t s = 0; s < layout.shards(); ++s) {
      const std::string path = store.shard_path(e, s);
      paths.push_back(path);
      const std::vector<std::uint32_t> slice = layout.slice(sampled, s);
      const auto probe = engine::spill_probe(path);
      const auto checkpoint = store.shard_records(e, s);
      if (reusable_shard(probe, slice.size(), plan.variants.size(),
                         checkpoint)) {
        ++rep.shards_reused;
        rep.shard_records.push_back(probe.records);
        if (!checkpoint.has_value()) {
          // Complete file, lost checkpoint line (kill between the
          // spill's close and the manifest append): re-seal it.
          store.note_shard(e, s, probe.records);
        }
        continue;
      }
      if (opt.abort_after_shards != 0 &&
          out.probed_shards >= opt.abort_after_shards) {
        // Injected crash point: leave the store as a kill here would.
        return out;
      }
      if (probe.state != engine::spill_state::missing) {
        std::error_code ec;
        std::filesystem::remove(path, ec);
      }
      engine::spill_sink sink{path};
      eng.run(plan, slice, sink);
      store.note_shard(e, s, sink.records_written());
      rep.shard_records.push_back(sink.records_written());
      ++rep.shards_probed;
      ++out.probed_shards;
    }

    // The epoch aggregate always comes from the shard merge (resume
    // invariant 4): a resumed epoch folds the byte-identical stream an
    // uninterrupted run folds.
    core::epoch_aggregate_sink agg{rep.aggregate};
    const engine::spill_merge merge{m, plan};
    merge.replay(paths, agg);

    if (const auto sealed = store.epoch_done(e)) {
      if (sealed->records != rep.aggregate.records ||
          sealed->digest != rep.aggregate.stream_digest) {
        throw codec_error(
            "run_epochs: epoch " + std::to_string(e) +
            " re-merged stream contradicts its manifest checkpoint in " +
            store.manifest_path() +
            " — the store is corrupted; use a fresh directory");
      }
    } else {
      store.note_epoch_done(e, rep.aggregate.records,
                            rep.aggregate.stream_digest);
    }
    out.epochs.push_back(std::move(rep));
  }
  out.complete = true;
  return out;
}

std::string render_epoch_tables(const service_result& r) {
  std::string out;
  text_table census({"epoch", "sampled", "Ampl", "Multi", "RETRY", "1-RTT",
                     "unreach", "ampl-med", "cert-med[B]", "churn"});
  for (const epoch_report& rep : r.epochs) {
    const core::epoch_aggregate& a = rep.aggregate;
    census.add_row(
        {std::to_string(rep.epoch), std::to_string(rep.sampled),
         std::to_string(a.count(scan::handshake_class::amplification)),
         std::to_string(a.count(scan::handshake_class::multi_rtt)),
         std::to_string(a.count(scan::handshake_class::retry)),
         std::to_string(a.count(scan::handshake_class::one_rtt)),
         std::to_string(a.count(scan::handshake_class::unreachable)),
         quantile_cell(a.first_burst_amplification, 0.5, 2),
         quantile_cell(a.certificate_msg_sizes, 0.5, 0),
         std::to_string(rep.churn.total())});
  }
  out += census.render();

  if (r.epochs.size() > 1) {
    out += "\nepoch-over-epoch deltas\n";
    text_table deltas({"epoch", "dAmpl", "dMulti", "dRETRY", "d1-RTT",
                       "dunreach", "d-ampl-med", "d-cert-med", "key-rot",
                       "chain-mig", "+h3", "-h3", "arrive", "depart"});
    for (std::size_t i = 1; i < r.epochs.size(); ++i) {
      const epoch_report& prev = r.epochs[i - 1];
      const epoch_report& cur = r.epochs[i];
      const core::epoch_delta d =
          core::delta_between(prev.aggregate, cur.aggregate);
      deltas.add_row(
          {std::to_string(cur.epoch),
           signed_str(d.class_shift(scan::handshake_class::amplification)),
           signed_str(d.class_shift(scan::handshake_class::multi_rtt)),
           signed_str(d.class_shift(scan::handshake_class::retry)),
           signed_str(d.class_shift(scan::handshake_class::one_rtt)),
           signed_str(d.class_shift(scan::handshake_class::unreachable)),
           signed_fixed(d.amplification_median_delta, 3),
           signed_fixed(d.certificate_median_delta, 0),
           std::to_string(cur.churn.key_rotations),
           std::to_string(cur.churn.chain_migrations),
           std::to_string(cur.churn.alpn_gains),
           std::to_string(cur.churn.alpn_losses),
           std::to_string(cur.churn.arrivals),
           std::to_string(cur.churn.departures)});
    }
    out += deltas.render();
  }
  return out;
}

}  // namespace certquic::service
