// certquic_scan — command-line front-end to the measurement toolkit.
// `certquic_scan --help` lists every subcommand and flag.
//
// Every engine-backed subcommand accepts --threads N (0 = default:
// $CERTQUIC_THREADS, else all hardware threads); results are
// bit-identical at any thread count.
//
// `census` classifies handshakes at one Initial size; `outofcore` runs
// the same census through the sharded spill → merge pipeline (its
// stdout is byte-identical to `census` on the same population — the
// verify.sh gate diffs the two — while shard/RSS details go to stderr);
// `epochs` runs the longitudinal census service over an evolving
// population (checkpointed in an epoch store; rerunning the same store
// resumes an interrupted run); `serve` is its bounded service loop,
// sealing one epoch per pass; `domain` probes one service in detail;
// `fig <id>` prints one figure or table of the paper (tools/figures.hpp
// lists the ids and the CERTQUIC_* knobs they read; it takes no flags).
// A malformed count, in a flag or a knob, exits 2.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "core/census.hpp"
#include "core/outofcore_study.hpp"
#include "engine/engine.hpp"
#include "figures.hpp"
#include "scan/qscanner.hpp"
#include "scan/reach.hpp"
#include "service/census_service.hpp"
#include "util/text_table.hpp"

namespace {

using namespace certquic;
using figures::temp_dir_cleanup;

void usage(std::FILE* out) {
  std::fputs(
      "usage: certquic_scan <command> [flags]\n"
      "\n"
      "commands:\n"
      "  census     classify handshakes at one Initial size\n"
      "  outofcore  census via the sharded spill->merge pipeline\n"
      "  epochs     longitudinal census over an evolving population;\n"
      "             rerunning the same --store resumes an interrupted run\n"
      "  serve      bounded service loop: seal one epoch per pass\n"
      "  domain     probe one service in detail: domain <name>\n"
      "  fig        print one figure or table: fig <id> (no flags; scale\n"
      "             with CERTQUIC_DOMAINS, _SEED, _SAMPLE, _PQ_PROFILE)\n"
      "\n"
      "flags:\n"
      "  --domains N     population size (default 20000)\n"
      "  --seed S        population seed (default 42)\n"
      "  --initial B     client Initial size in bytes (default 1362)\n"
      "  --sample N      probe at most N services (default 1500)\n"
      "  --shards N      outofcore/epochs/serve: spill shards (default 8)\n"
      "  --spill-dir DIR outofcore: keep the spill shards in DIR\n"
      "  --no-compare    outofcore: skip the in-memory baseline\n"
      "  --epochs N      epochs/serve: target epoch count (default 4)\n"
      "  --store DIR     epochs/serve: epoch store directory (default: a\n"
      "                  temp dir removed afterwards; resume needs --store)\n"
      "  --abort-after-shards N  epochs: stop (store resumable) after\n"
      "                  probing N shard slices — crash injection\n"
      "  --threads N     engine threads (0 = default)\n"
      "\n"
      "fig ids:\n",
      out);
  for (const auto& e : figures::registry()) {
    std::fprintf(out, "  %.*s\n", static_cast<int>(e.id.size()),
                 e.id.data());
  }
}

bool known_command(const std::string& cmd) {
  for (const char* known :
       {"census", "outofcore", "epochs", "serve", "domain", "fig"}) {
    if (cmd == known) {
      return true;
    }
  }
  return false;
}

struct cli_options {
  std::string command;
  std::string domain;
  std::string figure;
  std::size_t domains = 20000;
  std::uint64_t seed = 42;
  std::size_t initial = 1362;
  std::size_t sample = 1500;
  std::size_t shards = 8;
  std::string spill_dir;     // empty = temp dir, removed afterwards
  bool no_compare = false;   // skip the materializing baseline
  std::size_t epochs = 4;
  std::string store_dir;     // empty = temp dir, removed afterwards
  std::size_t abort_after_shards = 0;
  std::size_t threads = 0;   // 0 = engine default

  [[nodiscard]] engine::options exec() const { return {.threads = threads}; }
};

bool parse_args(int argc, char** argv, cli_options& opt) {
  if (argc < 2) {
    return false;
  }
  opt.command = argv[1];
  int i = 2;
  if (opt.command == "fig") {
    // The figures read only the CERTQUIC_* knobs, so a flag here would
    // be silently ignored.
    if (argc != 3) {
      return false;
    }
    opt.figure = argv[2];
    return true;
  }
  if (opt.command == "domain") {
    if (argc < 3) {
      return false;
    }
    opt.domain = argv[2];
    i = 3;
  }
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--no-compare") {
      opt.no_compare = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return false;
    }
    if (flag == "--spill-dir") {
      opt.spill_dir = argv[++i];
      continue;
    }
    if (flag == "--store") {
      opt.store_dir = argv[++i];
      continue;
    }
    // Parsed only for a known flag, so an unknown one is reported as such.
    const std::string_view text = argv[++i];
    const auto value = [&] { return figures::parse_count(text, flag); };
    if (flag == "--domains") {
      opt.domains = value();
    } else if (flag == "--seed") {
      opt.seed = value();
    } else if (flag == "--initial") {
      opt.initial = value();
    } else if (flag == "--sample") {
      opt.sample = value();
    } else if (flag == "--shards") {
      opt.shards = value();
    } else if (flag == "--epochs") {
      opt.epochs = value();
    } else if (flag == "--abort-after-shards") {
      opt.abort_after_shards = value();
    } else if (flag == "--threads") {
      opt.threads = value();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

/// Renders the census-format class table from per-class counts, shared
/// by `census` and `outofcore` so the verify gate can diff their
/// stdout byte for byte.
template <typename CountFn>
void print_class_table(std::size_t probed, std::size_t initial,
                       CountFn&& count_of) {
  text_table table({"class", "count", "share"});
  for (const auto cls :
       {scan::handshake_class::amplification,
        scan::handshake_class::multi_rtt, scan::handshake_class::retry,
        scan::handshake_class::one_rtt,
        scan::handshake_class::unreachable}) {
    const std::size_t count = count_of(cls);
    const double share =
        probed == 0 ? 0.0
                    : static_cast<double>(count) /
                          static_cast<double>(probed);
    table.add_row({scan::to_string(cls), std::to_string(count),
                   pct(share)});
  }
  std::printf("%zu services probed @ Initial=%zu\n%s", probed, initial,
              table.render().c_str());
}

int run_census(const internet::model& m, const cli_options& opt) {
  core::census_options copt;
  copt.initial_size = opt.initial;
  copt.max_services = opt.sample;
  const auto census = core::run_census(m, copt, opt.exec());
  print_class_table(census.probed, opt.initial,
                    [&](scan::handshake_class c) { return census.count(c); });
  return 0;
}

int run_outofcore(const internet::model& m, const cli_options& opt) {
  core::outofcore_options oopt;
  oopt.max_services = opt.sample;
  oopt.shards = opt.shards;
  oopt.initial_size = opt.initial;
  // --no-compare skips the materializing baseline entirely: the true
  // out-of-core mode for populations whose record stream outgrows RAM.
  oopt.compare_in_memory = !opt.no_compare;
  const bool temp_dir = opt.spill_dir.empty();
  oopt.spill_dir =
      temp_dir ? (std::filesystem::temp_directory_path() /
                  ("certquic_outofcore_" + std::to_string(::getpid())))
                     .string()
               : opt.spill_dir;
  // An explicit --spill-dir keeps the shard files for later
  // re-aggregation; only the fallback temp directory is disposable.
  oopt.keep_spills = !temp_dir;
  // The fallback directory goes on scope exit, also on the error paths
  // (disk-full, failed replay) the pipeline exists to hit.
  const temp_dir_cleanup cleanup{temp_dir ? oopt.spill_dir : ""};
  const auto result = core::run_outofcore_study(m, oopt, opt.exec());

  // stdout carries only the deterministic aggregate (byte-identical to
  // `census` on the same population); shard and RSS details go to
  // stderr so the verify gate can diff the two subcommands.
  print_class_table(result.spill.records, opt.initial,
                    [&](scan::handshake_class c) {
                      return result.spill.count(c);
                    });
  std::fprintf(stderr,
               "out-of-core: %zu services, %zu shards, %zu spilled "
               "records\n",
               result.sampled, result.shards, result.spill.records);
  if (!temp_dir) {
    std::fprintf(stderr, "spill shards kept in %s\n",
                 oopt.spill_dir.c_str());
  }
  if (result.compared) {
    std::fprintf(stderr,
                 "peak RSS: spill+merge %zu kB | in-memory %zu kB%s\n",
                 result.spill_peak_rss_kb, result.in_memory_peak_rss_kb,
                 result.spill_peak_rss_kb == 0 ? " (not measurable)" : "");
  } else {
    std::fprintf(stderr, "peak RSS: spill+merge %zu kB%s\n",
                 result.spill_peak_rss_kb,
                 result.spill_peak_rss_kb == 0 ? " (not measurable)" : "");
  }
  if (result.compared) {
    std::fprintf(stderr, "aggregates identical: %s\n",
                 result.identical ? "yes" : "NO");
    if (!result.identical) {
      return 1;
    }
  }
  return 0;
}

service::service_options service_opts(const cli_options& opt,
                                      const std::string& store_dir) {
  service::service_options sopt;
  sopt.store_dir = store_dir;
  sopt.domains = opt.domains;
  sopt.seed = opt.seed;
  sopt.sample = opt.sample;
  sopt.shards = opt.shards;
  sopt.initial_size = opt.initial;
  sopt.epochs = opt.epochs;
  sopt.abort_after_shards = opt.abort_after_shards;
  return sopt;
}

/// `epochs`/`serve` build one model per epoch themselves, so unlike the
/// other subcommands they never touch the up-front base model.
int run_epochs_cmd(const cli_options& opt) {
  const bool temp_store = opt.store_dir.empty();
  const std::string store_dir =
      temp_store ? (std::filesystem::temp_directory_path() /
                    ("certquic_epochs_" + std::to_string(::getpid())))
                       .string()
                 : opt.store_dir;
  const temp_dir_cleanup cleanup{temp_store ? store_dir : ""};
  const auto result =
      service::run_epochs(service_opts(opt, store_dir), opt.exec());
  std::printf("%s", service::render_epoch_tables(result).c_str());
  std::fprintf(stderr, "epochs: %zu reported, %zu shard slices probed\n",
               result.epochs.size(), result.probed_shards);
  if (!result.complete) {
    std::fprintf(stderr,
                 "epochs: run incomplete; rerun with the same --store "
                 "to resume\n");
    return 3;
  }
  return 0;
}

int run_serve(const cli_options& opt) {
  const bool temp_store = opt.store_dir.empty();
  const std::string store_dir =
      temp_store ? (std::filesystem::temp_directory_path() /
                    ("certquic_serve_" + std::to_string(::getpid())))
                       .string()
                 : opt.store_dir;
  const temp_dir_cleanup cleanup{temp_store ? store_dir : ""};
  // One epoch per pass: each pass raises the target by one, re-merges
  // the sealed epochs and seals the next, so the store stays resumable
  // between passes. A zero --epochs still reaches run_epochs' check.
  service::service_options sopt = service_opts(opt, store_dir);
  for (sopt.epochs = std::min<std::size_t>(1, opt.epochs);;
       ++sopt.epochs) {
    const auto result = service::run_epochs(sopt, opt.exec());
    if (!result.complete) {
      std::fprintf(stderr, "serve: no progress (crash injection?); "
                           "store left resumable\n");
      return 3;
    }
    const auto& last = result.epochs.back();
    std::fprintf(stderr,
                 "serve: epoch %llu sealed (%zu records, churn %zu, "
                 "%zu/%zu slices probed/reused)\n",
                 static_cast<unsigned long long>(last.epoch),
                 last.aggregate.records, last.churn.total(),
                 last.shards_probed, last.shards_reused);
    if (sopt.epochs == opt.epochs) {
      std::printf("%s", service::render_epoch_tables(result).c_str());
      return 0;
    }
  }
}

int run_fig(const std::string& id) {
  const figures::entry* const e = figures::find(id);
  if (e == nullptr) {
    std::fprintf(stderr, "unknown fig id: %s\n\n", id.c_str());
    usage(stderr);
    return 2;
  }
  figures::check_knobs();
  return e->run();
}

int run_domain(const internet::model& m, const cli_options& opt) {
  for (const auto& rec : m.records()) {
    if (rec.domain != opt.domain) {
      continue;
    }
    if (!rec.serves_quic()) {
      std::printf("%s: no QUIC service (class: %d)\n", rec.domain.c_str(),
                  static_cast<int>(rec.svc));
      return 0;
    }
    const scan::reach prober{m};
    const auto result =
        prober.probe(rec, {.initial_size = opt.initial,
                           .capture_certificate = true});
    std::printf("%s @ %s\n", rec.domain.c_str(),
                rec.address.to_string().c_str());
    std::printf("  class         : %s\n",
                scan::to_string(result.cls).c_str());
    std::printf("  sent/received : %zu / %zu bytes (first-burst ampl "
                "%.2fx)\n",
                result.obs.bytes_sent_total,
                result.obs.bytes_received_total,
                result.obs.first_burst_amplification());
    std::printf("  cert message  : %zu bytes%s\n",
                result.obs.certificate_msg_size,
                result.obs.compression_used ? " (compressed)" : "");
    const auto chain = m.chain_of(rec, internet::fetch_protocol::quic);
    std::printf("  chain         : %zu certs, %zu bytes\n", chain.depth(),
                chain.wire_size());
    chain.for_each([](const x509::certificate& cert) {
      std::printf("    %s\n", cert.describe().c_str());
    });
    return 0;
  }
  std::fprintf(stderr, "domain not found in population: %s\n",
               opt.domain.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    const std::string first = argv[1];
    if (first == "--help" || first == "-h" || first == "help") {
      usage(stdout);
      return 0;
    }
    if (!known_command(first)) {
      std::fprintf(stderr, "unknown command: %s\n\n", first.c_str());
      usage(stderr);
      return 2;
    }
  }
  cli_options opt;
  try {
    if (!parse_args(argc, argv, opt)) {
      usage(stderr);
      return 2;
    }
    // `fig` builds its population from the CERTQUIC_* knobs and the
    // longitudinal subcommands build one model per epoch; every other
    // subcommand probes the one base population.
    if (opt.command == "fig") {
      return run_fig(opt.figure);
    }
    if (opt.command == "epochs") {
      return run_epochs_cmd(opt);
    }
    if (opt.command == "serve") {
      return run_serve(opt);
    }
    const auto model = internet::model::generate(
        {.domains = opt.domains, .seed = opt.seed});
    if (opt.command == "census") {
      return run_census(model, opt);
    }
    if (opt.command == "outofcore") {
      return run_outofcore(model, opt);
    }
    return run_domain(model, opt);
  } catch (const figures::usage_error& e) {
    std::fprintf(stderr, "certquic_scan %s: %s\n", opt.command.c_str(),
                 e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "certquic_scan %s: %s\n", opt.command.c_str(),
                 e.what());
    return 1;
  }
}
