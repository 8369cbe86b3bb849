// Longitudinal census: handshake-class shares, amplification and
// certificate-size medians tracked across epochs of one evolving
// population (key rotations, chain migrations, ALPN churn, domain
// arrival/departure), with epoch-over-epoch deltas. The paper's census
// is one snapshot; this figure shows what its repeated-scan service
// reports as the population drifts.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "service/census_service.hpp"

int main() {
  using namespace certquic;
  bench::header("Epoch deltas",
                "longitudinal census over an evolving population");

  const auto cfg = bench::population_config();
  service::service_options opt;
  opt.domains = cfg.domains;
  opt.seed = cfg.seed;
  opt.sample = bench::sample_cap(200);
  opt.shards = 3;
  opt.epochs = bench::env_size("CERTQUIC_EPOCHS", 4);
  opt.store_dir = (std::filesystem::temp_directory_path() /
                   ("certquic_epochs_bench_" + std::to_string(::getpid())))
                      .string();

  const auto result = service::run_epochs(opt);
  {
    std::error_code ec;
    std::filesystem::remove_all(opt.store_dir, ec);
  }

  std::printf("\n%s", service::render_epoch_tables(result).c_str());
  std::printf(
      "\nThe population drifts, the census follows: key rotations and "
      "chain migrations move\nservices across the amplification "
      "boundary, ALPN churn shifts the probed set, and the\ndelta rows "
      "attribute each epoch's class shifts to the churn that caused "
      "them.\n");
  bench::footnote_scale(cfg);
  return 0;
}
