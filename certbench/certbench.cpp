// certbench: the certquic benchmark driver. One process runs one
// workload as a closed batch job on a fixed engine thread count:
//
//   census_sweep  the Fig. 3 Initial-size sweep (one 28-variant plan)
//                 over the QUIC population, aggregated in memory
//   corpus        core::analyze_corpus over every TLS service
//   epochs        service::run_epochs over a fresh store, then a second
//                 run_epochs that resumes the finished store
//
// Usage: certbench --workload <name> --seed <n> --seconds <s>
//                  --trace <0|1> --threads <n> --scratch <dir>
//
// The population is built from --seed (setup, timed apart), then whole
// passes of the workload repeat until --seconds have elapsed; rates are
// the median over passes. Every pass's output digest must equal the
// first, and a reduced run must be identical at one thread and at
// --threads. With --trace 1 the per-layer ledger (trace.cpp) follows.
// The last stdout line is one JSON object; certbench/run.py wraps it.
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "certbench.hpp"
#include "core/census.hpp"
#include "core/certificates.hpp"
#include "core/longitudinal.hpp"
#include "engine/engine.hpp"
#include "engine/spill.hpp"
#include "internet/chain_cache.hpp"
#include "service/census_service.hpp"
#include "util/rss_meter.hpp"

namespace certbench {

using namespace certquic;

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

namespace {

double seconds_since(bench_clock::time_point t0) {
  return std::chrono::duration<double>(bench_clock::now() - t0).count();
}

/// 64-bit FNV-1a over a byte string (reference digests).
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf2'9ce4'8422'2325ULL;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x0000'0100'0000'01b3ULL;
  }
  return h;
}

/// A fresh, empty per-run directory under `parent`, removed with
/// everything in it when the guard goes out of scope — also when the
/// run throws. run_epochs silently reuses complete shards, so a store
/// left over from an earlier pass would turn a fresh pass into a resume.
class scratch_dir {
 public:
  scratch_dir(const std::filesystem::path& parent, const std::string& tag) {
    std::filesystem::create_directories(parent);
    for (int attempt = 0;; ++attempt) {
      path_ = parent / (tag + "_" + std::to_string(::getpid()) + "_" +
                        std::to_string(attempt));
      if (std::filesystem::create_directory(path_)) {
        return;  // newly created, hence empty
      }
    }
  }
  ~scratch_dir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  scratch_dir(const scratch_dir&) = delete;
  scratch_dir& operator=(const scratch_dir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  /// Bytes of every regular file below the directory.
  [[nodiscard]] std::uintmax_t bytes() const {
    std::uintmax_t total = 0;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(path_)) {
      if (entry.is_regular_file()) {
        total += entry.file_size();
      }
    }
    return total;
  }

 private:
  std::filesystem::path path_;
};

/// True when `p` lives on a tmpfs mount (memory), false for a disk.
bool on_tmpfs(const std::filesystem::path& p) {
  struct statfs fs {};
  constexpr long kTmpfsMagic = 0x01021994;
  return ::statfs(p.c_str(), &fs) == 0 &&
         static_cast<long>(fs.f_type) == kTmpfsMagic;
}

/// Every `stride`-th element so that about `want` of `all` remain.
std::vector<std::uint32_t> spread_subset(const std::vector<std::uint32_t>& all,
                                         std::size_t want) {
  if (want == 0 || all.size() <= want) {
    return all;
  }
  std::vector<std::uint32_t> out;
  out.reserve(want);
  for (std::size_t i = 0; i < want; ++i) {
    out.push_back(all[i * all.size() / want]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// workload sizes (see NOTES.md for how they were chosen)

constexpr std::size_t kSetupRepeats = 15;
constexpr std::size_t kDomains = 200'000;
constexpr std::size_t kCensusServices = 2'000;
constexpr std::size_t kCorpusServices = 30'000;
constexpr std::size_t kEpochServices = 0;  // every QUIC service
constexpr std::size_t kEpochCount = 3;
constexpr std::size_t kEpochShards = 4;
/// Replica subset of the traced run: census_sweep replays this many
/// services under all of its variants; the others replay this many
/// units of their single-variant plan.
constexpr std::size_t kLedgerSweepServices = 72;
constexpr std::size_t kLedgerServices = 2000;

struct args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::size_t threads = 3;
  std::filesystem::path scratch;
};

/// Everything one workload run reports.
struct outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string digest;
  std::vector<check> checks;
  metric_map e2e;    // untraced end-to-end metrics
  metric_map layer;  // traced per-layer metrics
  metric_map info;   // printed, not reported to the driver
};

double median_of(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Population synthesis, repeated; returns the last model and records
/// the median wall time as setup_s.
internet::model timed_setup(const internet::config& cfg, outcome& out) {
  std::vector<double> walls;
  std::optional<internet::model> m;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    m.reset();
    const auto t0 = bench_clock::now();
    m.emplace(internet::model::generate(cfg));
    walls.push_back(seconds_since(t0));
  }
  out.e2e["setup_s"] = {median_of(walls), "s"};
  out.layer["internet.generate_ms"] = {median_of(walls) * 1000.0, "ms"};
  return std::move(*m);
}

/// Runs one warm-up pass, then measured passes until `seconds` have
/// elapsed (at least one). A pass returns its output digest and its
/// wall time; one that throws or whose digest differs from the first
/// pass counts all of its units as failed. Returns the median wall
/// time of the measured passes that held.
double timed_passes(double seconds, std::size_t units_per_pass, outcome& out,
                    const std::function<std::string(double&)>& pass) {
  std::vector<double> walls;
  std::string first;
  auto start = bench_clock::now();
  for (bool warmup = true;; warmup = false) {
    if (!warmup && seconds_since(start) >= seconds &&
        (!walls.empty() || out.failed != 0)) {
      break;
    }
    out.attempted += units_per_pass;
    try {
      double wall = 0;
      const std::string digest = pass(wall);
      if (first.empty()) {
        first = digest;
      }
      if (digest != first) {
        out.failed += units_per_pass;
        out.checks.push_back({"pass_determinism", false,
                              "pass digest " + digest + " != " + first});
        continue;
      }
      if (warmup) {
        start = bench_clock::now();
      } else {
        walls.push_back(wall);
      }
    } catch (const std::exception& e) {
      out.failed += units_per_pass;
      out.checks.push_back({"pass_threw", false, e.what()});
      if (warmup) {
        break;
      }
    }
  }
  out.digest = first;
  out.info["passes"] = {static_cast<double>(walls.size()), "count"};
  return median_of(walls);
}

void record_rss(outcome& out) {
  out.e2e["peak_rss_mb"] = {static_cast<double>(rss_meter::peak_kb()) / 1024.0,
                            "MiB"};
}

/// at_epoch for the first kEpochCount epochs of the workload's population.
void time_at_epoch(const internet::config& cfg, outcome& out) {
  double total_s = 0;
  for (std::uint64_t e = 0; e < kEpochCount; ++e) {
    const auto t0 = bench_clock::now();
    (void)internet::model::at_epoch(cfg, {}, e);
    total_s += seconds_since(t0);
  }
  out.layer["internet.at_epoch_ms"] = {
      total_s * 1000.0 / static_cast<double>(kEpochCount), "ms"};
}

void thread_invariance(outcome& out, const std::string& serial,
                       const std::string& parallel) {
  out.checks.push_back({"thread_invariance", serial == parallel,
                        "1 thread " + serial + " vs parallel " + parallel});
}

/// Share of the timed pass's wall time that spilling its record stream
/// costs on the sequencer thread: spill_sink encode plus spill_merge
/// replay per record, from the ledger, times the pass's records.
void record_spill_share(outcome& out, std::size_t units, double wall) {
  const double per_record = out.layer["engine.spill_encode_us"].value +
                            out.layer["engine.spill_merge_us"].value;
  out.layer["engine.spill_wall_share"] = {
      wall > 0 ? per_record * 1e-6 * static_cast<double>(units) / wall : 0.0,
      "ratio"};
}

/// Tracing overhead: the traced rate against the untraced median.
void record_overhead(outcome& out, double untraced_rate, double traced_rate) {
  out.layer["trace.overhead_share"] = {
      untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0, "ratio"};
}

// ---------------------------------------------------------------------------
// census_sweep

/// Per-variant class counts: the census_sweep reference output.
class class_count_sink final : public engine::observation_sink {
 public:
  void on_begin(const engine::probe_plan& plan, std::size_t) override {
    counts_.assign(plan.variants.size(), {});
  }
  void on_record(const engine::probe_record& rec) override {
    ++counts_[rec.variant_index][static_cast<std::size_t>(rec.result.cls)];
  }

  [[nodiscard]] std::string text(const engine::probe_plan& plan) const {
    std::string s;
    for (std::size_t v = 0; v < counts_.size(); ++v) {
      s += std::to_string(plan.variants[v].initial_size) + ":";
      for (const std::size_t c : counts_[v]) {
        s += ' ';
        s += std::to_string(c);
      }
      s += "\n";
    }
    return s;
  }

 private:
  std::vector<std::array<std::size_t, core::kClassCount>> counts_;
};

/// One census_sweep aggregation: class counts per variant plus the core
/// fold (byte totals, sample sets, order-sensitive stream digest). A
/// traced fold times the core sink; an untraced one carries no span.
struct sweep_fold {
  explicit sweep_fold(bool traced)
      : tee{{&counts, traced ? static_cast<engine::observation_sink*>(
                                   &timed_core)
                             : &core_sink}} {}

  class_count_sink counts;
  core::epoch_aggregate agg;
  core::epoch_aggregate_sink core_sink{agg};
  timing_sink timed_core{core_sink};
  engine::tee_sink tee;

  [[nodiscard]] std::string digest(const engine::probe_plan& plan) const {
    return hex16(fnv1a(counts.text(plan) + std::to_string(agg.records) + " " +
                       hex16(agg.stream_digest)));
  }
};

outcome run_census_sweep(const args& a) {
  outcome out;
  const internet::config cfg{.domains = kDomains, .seed = a.seed};
  const internet::model m = timed_setup(cfg, out);
  engine::probe_plan plan;
  plan.max_services = kCensusServices;
  plan.sweep_initial_sizes(core::initial_size_sweep());
  const engine::options exec{.threads = a.threads};
  const engine::executor eng{m, exec};
  const std::vector<std::uint32_t> sampled = eng.sample(plan);
  const std::size_t units = sampled.size() * plan.variants.size();

  const double wall = timed_passes(a.seconds, units, out, [&](double& w) {
    sweep_fold fold{false};
    const auto t0 = bench_clock::now();
    eng.run(plan, sampled, fold.tee);
    w = seconds_since(t0);
    return fold.digest(plan);
  });
  const double rate = wall > 0 ? static_cast<double>(units) / wall : 0.0;
  out.e2e["probes_per_s"] = {rate, "units/s"};
  record_rss(out);

  engine::probe_plan small = plan;
  small.max_services = 40;
  std::string digests[2];
  for (int i = 0; i < 2; ++i) {
    sweep_fold fold{false};
    engine::executor{m, {.threads = i == 0 ? 1 : a.threads}}.run(small,
                                                                 fold.tee);
    digests[i] = fold.digest(small);
  }
  thread_invariance(out, digests[0], digests[1]);
  out.info["quic_services"] = {static_cast<double>(sampled.size()), "count"};
  out.info["variants"] = {static_cast<double>(plan.variants.size()), "count"};
  if (!a.trace) {
    return out;
  }

  // Traced pass: the same stream through a timing sink around the whole
  // consumer (engine) and around the core fold.
  sweep_fold fold{true};
  timing_sink consumer{fold.tee};
  const auto t0 = bench_clock::now();
  eng.run(plan, sampled, consumer);
  const double traced_wall = seconds_since(t0);
  if (fold.digest(plan) != out.digest) {
    out.checks.push_back({"traced_pass", false, "traced digest differs"});
  }
  const double probe_us = probe_layer_ledger(
      {.model = m,
       .plan = plan,
       .services = spread_subset(sampled, kLedgerSweepServices),
       .chain_protocol = internet::fetch_protocol::quic,
       .scratch = a.scratch},
      out.layer, out.checks);
  time_at_epoch(cfg, out);
  record_spill_share(out, units, wall);
  record_overhead(out, rate, static_cast<double>(units) / traced_wall);
  out.layer["engine.consumer_busy_share"] = {
      consumer.busy_seconds() / traced_wall, "ratio"};
  out.layer["core.fold_ns"] = {
      fold.timed_core.busy_seconds() * 1e9 /
          static_cast<double>(std::max<std::size_t>(1, units)),
      "ns"};
  out.layer["engine.parallel_efficiency"] = {
      rate * probe_us * 1e-6 / static_cast<double>(a.threads), "ratio"};
  return out;
}

// ---------------------------------------------------------------------------
// corpus

std::string corpus_digest(const core::corpus_result& r) {
  std::string s;
  for (const stats::sample_set* set :
       {&r.quic_chain_sizes, &r.https_chain_sizes}) {
    s += std::to_string(set->size()) + ":";
    if (!set->empty()) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %.17g", set->mean());
      s += buf;
      for (int q = 0; q <= 100; ++q) {
        std::snprintf(buf, sizeof buf, " %.0f", set->quantile(q / 100.0));
        s += buf;
      }
    }
    s += "\n";
  }
  for (const auto& side : r.alg_counts) {
    for (const auto& role : side) {
      for (const std::size_t c : role) {
        s += std::to_string(c) + " ";
      }
    }
  }
  return hex16(fnv1a(s));
}

outcome run_corpus(const args& a) {
  outcome out;
  const internet::config cfg{.domains = kDomains, .seed = a.seed};
  const internet::model m = timed_setup(cfg, out);
  const engine::options exec{.threads = a.threads};
  const std::vector<std::uint32_t> tls_sample =
      engine::sample_indices(m, engine::service_filter::tls, kCorpusServices);
  const std::size_t units = tls_sample.size();
  const core::corpus_options corpus{.max_services = kCorpusServices};

  const double wall = timed_passes(a.seconds, units, out, [&](double& w) {
    const auto t0 = bench_clock::now();
    const core::corpus_result r = core::analyze_corpus(m, corpus, exec);
    w = seconds_since(t0);
    if (r.quic_chain_sizes.size() + r.https_chain_sizes.size() != units) {
      throw std::runtime_error("corpus sized fewer chains than services");
    }
    return corpus_digest(r);
  });
  const double rate = wall > 0 ? static_cast<double>(units) / wall : 0.0;
  out.e2e["probes_per_s"] = {rate, "units/s"};
  record_rss(out);

  constexpr std::size_t kSmall = 800;
  thread_invariance(
      out,
      corpus_digest(core::analyze_corpus(m, {.max_services = kSmall},
                                         engine::options::serial())),
      corpus_digest(core::analyze_corpus(m, {.max_services = kSmall}, exec)));
  out.info["tls_services"] = {static_cast<double>(units), "count"};
  if (!a.trace) {
    return out;
  }

  // analyze_corpus takes no sink, so nothing is traced inside its pass:
  // one more untraced pass gives the run-to-run floor the overhead of
  // the other workloads compares against.
  const auto t0 = bench_clock::now();
  (void)core::analyze_corpus(m, corpus, exec);
  record_overhead(out, rate, static_cast<double>(units) / seconds_since(t0));

  // The corpus fold per chain: analyze_corpus, serially, over a warm
  // chain cache, so chain materialization drops out of the pass.
  const std::vector<std::uint32_t> fold_sample =
      engine::sample_indices(m, engine::service_filter::tls, kLedgerServices);
  internet::chain_cache warm{m};
  for (const std::uint32_t i : fold_sample) {
    (void)warm.chain_of(m.records()[i], internet::fetch_protocol::https);
  }
  const auto tf = bench_clock::now();
  (void)core::analyze_corpus(
      m, {.max_services = kLedgerServices, .chains = &warm},
      engine::options::serial());
  const double fold_s = seconds_since(tf) /
                        static_cast<double>(std::max<std::size_t>(
                            1, fold_sample.size()));

  // The probe layers on the corpus's QUIC services: the layers this
  // workload bypasses, measured on its population.
  const engine::probe_plan plan = engine::probe_plan::single({});
  const std::vector<std::uint32_t> quic_sample =
      engine::sample_indices(m, engine::service_filter::quic, 0);
  (void)probe_layer_ledger(
      {.model = m,
       .plan = plan,
       .services = spread_subset(quic_sample, kLedgerServices),
       .chain_protocol = internet::fetch_protocol::https,
       .scratch = a.scratch},
      out.layer, out.checks);
  time_at_epoch(cfg, out);
  record_spill_share(out, units, wall);
  const double chain_us = out.layer["internet.chain_of_us"].value;
  out.layer["core.fold_ns"] = {fold_s * 1e9, "ns"};
  out.layer["engine.consumer_busy_share"] = {
      fold_s * static_cast<double>(units) / wall, "ratio"};
  out.layer["engine.parallel_efficiency"] = {
      rate * chain_us * 1e-6 / static_cast<double>(a.threads), "ratio"};
  return out;
}

// ---------------------------------------------------------------------------
// epochs

service::service_options epoch_options(std::uint64_t seed,
                                       std::size_t domains, std::size_t sample,
                                       std::size_t epochs,
                                       const std::filesystem::path& store) {
  service::service_options opt;
  opt.store_dir = store.string();
  opt.domains = domains;
  opt.seed = seed;
  opt.sample = sample;
  opt.shards = kEpochShards;
  opt.epochs = epochs;
  return opt;
}

/// Each epoch's record count and stream digest.
std::string epochs_text(const service::service_result& r) {
  std::string s;
  for (const auto& rep : r.epochs) {
    s += std::to_string(rep.epoch) + " " +
         std::to_string(rep.aggregate.records) + " " +
         hex16(rep.aggregate.stream_digest) + "\n";
  }
  return s;
}

outcome run_epochs(const args& a) {
  outcome out;
  const internet::config cfg{.domains = kDomains, .seed = a.seed};
  const internet::model base = timed_setup(cfg, out);
  const engine::options exec{.threads = a.threads};
  const engine::probe_plan plan =
      engine::probe_plan::single({}, kEpochServices);
  const engine::executor eng{base, exec};
  const std::vector<std::uint32_t> sampled0 = eng.sample(plan);

  // Units of one fresh pass: every epoch probes its sampled services.
  std::size_t units = 0;
  for (std::uint64_t e = 0; e < kEpochCount; ++e) {
    units += engine::sample_indices(internet::model::at_epoch(cfg, {}, e),
                                    engine::service_filter::quic,
                                    kEpochServices)
                 .size();
  }

  std::vector<double> resume_walls;
  std::vector<double> store_mb;
  bool tmpfs = false;
  const double wall = timed_passes(a.seconds, units, out, [&](double& w) {
    const scratch_dir store{a.scratch, "store"};
    tmpfs = on_tmpfs(store.path());
    const auto opt =
        epoch_options(a.seed, kDomains, kEpochServices, kEpochCount,
                      store.path());
    const auto t0 = bench_clock::now();
    const service::service_result fresh = service::run_epochs(opt, exec);
    w = seconds_since(t0);
    store_mb.push_back(static_cast<double>(store.bytes()) / (1024.0 * 1024.0));
    const auto t1 = bench_clock::now();
    const service::service_result resumed = service::run_epochs(opt, exec);
    resume_walls.push_back(seconds_since(t1));

    std::size_t probed = 0;
    for (const auto& rep : fresh.epochs) {
      probed += rep.sampled;
    }
    if (probed != units || !fresh.complete || !resumed.complete ||
        resumed.probed_shards != 0 ||
        fresh.probed_shards != kEpochCount * kEpochShards) {
      throw std::runtime_error("epoch store was not fresh, or resume probed");
    }
    if (epochs_text(fresh) != epochs_text(resumed)) {
      throw std::runtime_error("resumed epochs differ from the fresh pass");
    }
    return hex16(fnv1a(epochs_text(fresh)));
  });
  const double rate = wall > 0 ? static_cast<double>(units) / wall : 0.0;
  out.e2e["probes_per_s"] = {rate, "units/s"};
  record_rss(out);
  out.info["resume_s"] = {median_of(resume_walls), "s"};
  out.info["store_mb"] = {median_of(store_mb), "MiB"};
  out.info["store_on_tmpfs"] = {tmpfs ? 1.0 : 0.0, "bool"};

  std::string digests[2];
  for (int i = 0; i < 2; ++i) {
    const scratch_dir store{a.scratch, "check"};
    digests[i] = epochs_text(service::run_epochs(
        epoch_options(a.seed, 3000, 0, 2, store.path()),
        {.threads = i == 0 ? 1 : a.threads}));
  }
  thread_invariance(out, hex16(fnv1a(digests[0])), hex16(fnv1a(digests[1])));
  if (!a.trace) {
    return out;
  }

  // Traced pass: epoch 0's shard slices through spill_sink, untraced and
  // then inside a timing sink — the engine stream of the fresh pass.
  const std::size_t per_shard =
      (std::max<std::size_t>(1, sampled0.size()) + kEpochShards - 1) /
      kEpochShards;
  double walls[2] = {0, 0};
  double busy = 0;
  for (int traced = 0; traced < 2; ++traced) {
    const scratch_dir dir{a.scratch, "traced"};
    for (std::size_t s = 0; s < kEpochShards; ++s) {
      const std::size_t lo = std::min(sampled0.size(), s * per_shard);
      const std::size_t hi = std::min(sampled0.size(), lo + per_shard);
      const std::vector<std::uint32_t> slice(sampled0.begin() + lo,
                                             sampled0.begin() + hi);
      engine::spill_sink spill{
          (dir.path() / ("shard_" + std::to_string(s) + ".spill")).string()};
      timing_sink timed{spill};
      const auto t0 = bench_clock::now();
      eng.run(plan, slice,
              traced ? static_cast<engine::observation_sink&>(timed) : spill);
      walls[traced] += seconds_since(t0);
      busy += timed.busy_seconds();
    }
  }
  const auto n0 = static_cast<double>(sampled0.size());
  record_overhead(out, n0 / walls[0], n0 / walls[1]);
  out.layer["engine.consumer_busy_share"] = {busy / walls[1], "ratio"};

  const double probe_us = probe_layer_ledger(
      {.model = base,
       .plan = plan,
       .services = spread_subset(sampled0, kLedgerServices),
       .chain_protocol = internet::fetch_protocol::quic,
       .scratch = a.scratch},
      out.layer, out.checks);
  time_at_epoch(cfg, out);
  record_spill_share(out, units, wall);
  out.layer["engine.parallel_efficiency"] = {
      rate * probe_us * 1e-6 / static_cast<double>(a.threads), "ratio"};
  return out;
}

// ---------------------------------------------------------------------------
// driver

/// A build with debug invariants or a sanitizer is a different program;
/// its numbers must not be reported as this benchmark's.
const char* build_refusal() {
#if defined(CERTQUIC_ENABLE_ASSERTS)
  return "CERTQUIC_ENABLE_ASSERTS is on";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "built with a sanitizer";
#else
  return nullptr;
#endif
#else
  return nullptr;
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string metrics_json(const metric_map& m) {
  std::string s = "{";
  for (const auto& [name, mt] : m) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", mt.value);
    s += (s.size() > 1 ? ", " : "") + std::string("\"") + name +
         "\": {\"value\": " + buf + ", \"unit\": \"" + mt.unit + "\"}";
  }
  return s + "}";
}

void print_metrics(const char* title, const metric_map& m) {
  for (const auto& [name, mt] : m) {
    std::printf("%-8s %-36s %16.6g %s\n", title, name.c_str(), mt.value,
                mt.unit.c_str());
  }
}

args parse_args(int argc, char** argv) {
  args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--threads") {
      a.threads = std::stoul(value);
    } else if (key == "--scratch") {
      a.scratch = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || a.scratch.empty() || a.threads == 0) {
    throw std::invalid_argument("--workload, --scratch and --threads >= 1 "
                                "are required");
  }
  return a;
}

}  // namespace
}  // namespace certbench

int main(int argc, char** argv) {
  using namespace certbench;
  if (const char* why = build_refusal()) {
    std::fprintf(stderr, "certbench: refusing to measure: %s\n", why);
    return 3;
  }
  args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "certbench: %s\n", e.what());
    return 2;
  }
  outcome out;
  try {
    if (a.workload == "census_sweep") {
      out = run_census_sweep(a);
    } else if (a.workload == "corpus") {
      out = run_corpus(a);
    } else if (a.workload == "epochs") {
      out = run_epochs(a);
    } else {
      std::fprintf(stderr, "certbench: unknown workload %s\n",
                   a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "certbench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("build    compiler=%s type=%s threads=%zu nproc=%ld\n",
              CERTBENCH_COMPILER, CERTBENCH_BUILD_TYPE, a.threads,
              ::sysconf(_SC_NPROCESSORS_ONLN));
  print_metrics("e2e", out.e2e);
  print_metrics("info", out.info);
  print_metrics("layer", out.layer);
  std::string checks = "[";
  for (const auto& c : out.checks) {
    std::printf("check    %-20s %s  %s\n", c.name.c_str(),
                c.ok ? "ok  " : "FAIL", c.detail.c_str());
    checks += (checks.size() > 1 ? ", " : "") + std::string("{\"name\": \"") +
              c.name + "\", \"ok\": " + (c.ok ? "true" : "false") +
              ", \"detail\": \"" + json_escape(c.detail) + "\"}";
  }
  checks += "]";
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"digest\": \"%s\", "
      "\"attempted\": %zu, \"failed\": %zu, \"threads\": %zu, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"checks\": %s, "
      "\"e2e\": %s, \"layer\": %s, \"info\": %s}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      out.digest.c_str(), out.attempted, out.failed, a.threads,
      CERTBENCH_COMPILER, CERTBENCH_BUILD_TYPE, checks.c_str(),
      metrics_json(out.e2e).c_str(), metrics_json(out.layer).c_str(),
      metrics_json(out.info).c_str());
  return 0;
}
