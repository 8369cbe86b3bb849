#include "engine/engine.hpp"

#include <cstdlib>
#include <optional>

#include "util/errors.hpp"

namespace certquic::engine {

std::size_t resolved_threads(const options& opt) {
  if (opt.threads > 0) {
    return opt.threads;
  }
  if (const char* env = std::getenv("CERTQUIC_THREADS");
      env != nullptr && *env != '\0') {
    const auto parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0) {
      // Cap garbage values (e.g. "-1" wrapping to ULLONG_MAX) at a
      // generous ceiling instead of spawning unbounded threads.
      constexpr unsigned long long kMaxThreads = 1024;
      return static_cast<std::size_t>(std::min(parsed, kMaxThreads));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void executor::run(const probe_plan& plan, observation_sink& sink) const {
  run(plan, sample(plan), sink);
}

namespace {

/// The chains a multi-variant plan serves, materialized once before its
/// probe pass and only read during it: slot `p * services + i` holds
/// the chain of sampled service i under the plan's p-th distinct chain
/// profile. model::chain_of is pure, so the bytes equal what the probe
/// would materialize itself. A record that does not serve QUIC keeps an
/// empty slot, so its probe still throws reach::probe's config_error.
class chain_table {
 public:
  chain_table(const internet::model& m, const probe_plan& plan,
              const std::vector<std::uint32_t>& sampled, const options& opt)
      : services_(sampled.size()) {
    std::vector<x509::pq_profile> profiles;
    for (const probe_variant& v : plan.variants) {
      const auto it =
          std::find(profiles.begin(), profiles.end(), v.chain_profile);
      slot_of_variant_.push_back(
          static_cast<std::size_t>(it - profiles.begin()));
      if (it == profiles.end()) {
        profiles.push_back(v.chain_profile);
      }
    }
    chains_.resize(services_ * profiles.size());
    parallel_ordered(
        chains_.size(), opt,
        [&](std::size_t k) {
          const auto& rec = m.records()[sampled[k % services_]];
          return rec.serves_quic()
                     ? m.chain_of(rec, internet::fetch_protocol::quic,
                                  profiles[k / services_])
                     : x509::chain{};
        },
        [this](std::size_t k, x509::chain&& chain) {
          chains_[k] = std::move(chain);
        });
  }

  /// The chain unit k of the plan probes; null for a non-QUIC record.
  [[nodiscard]] const x509::chain* find(std::size_t k) const {
    const std::size_t variant = k / services_;
    const x509::chain& chain =
        chains_[slot_of_variant_[variant] * services_ + k % services_];
    return chain.empty() ? nullptr : &chain;
  }

 private:
  std::size_t services_;
  std::vector<std::size_t> slot_of_variant_;
  std::vector<x509::chain> chains_;
};

}  // namespace

void executor::run(const probe_plan& plan,
                   const std::vector<std::uint32_t>& sampled,
                   observation_sink& sink) const {
  if (plan.variants.empty()) {
    throw config_error("probe_plan without variants");
  }
  const std::size_t services = sampled.size();
  sink.on_begin(plan, services);
  // Plans with more than one variant visit each service once per
  // variant, so their chains are materialized once, up front, into a
  // read-only table the probes borrow from; a one-variant plan
  // materializes each chain in the probe that serves it.
  std::optional<chain_table> table;
  if (plan.variants.size() > 1) {
    table.emplace(model_, plan, sampled, opt_);
  }
  // One set of scan options per variant; a unit copies it to set its
  // seed.
  std::vector<scan::probe_options> variant_options;
  variant_options.reserve(plan.variants.size());
  for (const probe_variant& v : plan.variants) {
    variant_options.push_back(v.to_probe_options());
  }
  const scan::reach prober{model_};
  // Variant-major: unit k probes service k % services under variant
  // k / services.
  parallel_ordered(
      services * plan.variants.size(), opt_,
      [&](std::size_t k) {
        const auto& variant = plan.variants[k / services];
        const auto& rec = model_.records()[sampled[k % services]];
        scan::probe_options popt = variant_options[k / services];
        popt.seed_override =
            probe_seed(plan.base_seed, rec.domain, variant.salt);
        const x509::chain* chain = table ? table->find(k) : nullptr;
        return chain != nullptr ? prober.probe(rec, popt, *chain)
                                : prober.probe(rec, popt);
      },
      [&](std::size_t k, scan::probe_result&& result) {
        const auto variant_index = static_cast<std::uint32_t>(k / services);
        const std::uint32_t service_index = sampled[k % services];
        sink.on_record(probe_record{
            .service_index = service_index,
            .variant_index = variant_index,
            .record = model_.records()[service_index],
            .variant = plan.variants[variant_index],
            .result = result,
        });
      });
  sink.on_end();
}

}  // namespace certquic::engine
