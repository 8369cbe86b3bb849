// The handshake class mix every census-style study folds — how many
// probes completed in 1-RTT, needed multiple RTTs, hit RETRY or
// amplified (Figs. 3, 4, 13) — and per_variant_sink, the one
// observation_sink that folds it. A study supplies its slice type (a
// class_mix plus its own fields) and the per-record step specific to
// it; the sink owns the lifecycle, the reserve, the class-mix step and
// the finalize.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "engine/sink.hpp"
#include "scan/classify.hpp"
#include "stats/cdf.hpp"
#include "util/assert.hpp"

namespace certquic::core {

/// Number of handshake classes (indexable by handshake_class).
inline constexpr std::size_t kClassCount = 5;

/// Probes and per-class counts of one record stream.
struct class_mix {
  std::size_t probed = 0;
  std::array<std::size_t, kClassCount> counts{};

  void add(scan::handshake_class c) noexcept {
    ++probed;
    ++counts[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::size_t count(scan::handshake_class c) const {
    return counts[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] double share(scan::handshake_class c) const {
    return probed == 0 ? 0.0
                       : static_cast<double>(count(c)) /
                             static_cast<double>(probed);
  }
  /// Class-count delta relative to `baseline` (e.g. a sweep's first
  /// slice, against which matched-randomness variants are compared).
  [[nodiscard]] long long class_delta(const class_mix& baseline,
                                      scan::handshake_class c) const {
    return static_cast<long long>(count(c)) -
           static_cast<long long>(baseline.count(c));
  }
};

/// Folds a plan-ordered record stream into class_mix slices: one slice
/// per plan variant, or a single slice that pools every variant. Each
/// record steps its slice's class mix, then `fold(slice, record)` adds
/// what is specific to the study. The listed sample sets are reserved
/// for the records each slice will see and finalized at on_end, so
/// their means sum ascending (sample_set::finalize); after that a Fold
/// with a `finish(Slice&)` member is called once per slice. Runs on the
/// executor's caller thread in plan order, so no locking and no
/// per-record indirection beyond the virtual on_record.
template <typename Slice, typename Fold>
class per_variant_sink : public engine::observation_sink {
 public:
  using sample_sets = std::initializer_list<stats::sample_set Slice::*>;

  per_variant_sink(std::vector<Slice>& slices, Fold fold,
                   sample_sets samples = {})
      : slices_(slices), fold_(std::move(fold)), samples_(samples) {}
  per_variant_sink(Slice& pooled, Fold fold, sample_sets samples = {})
      : slices_(&pooled, 1), fold_(std::move(fold)), samples_(samples) {}

  void on_begin(const engine::probe_plan& plan,
                std::size_t sampled) override {
    lifecycle_.begin();
    CERTQUIC_ASSERT(
        slices_.size() == 1 || slices_.size() == plan.variants.size(),
        "per_variant_sink: one slice per plan variant, or one pooled");
    const std::size_t records =
        slices_.size() == 1 ? sampled * plan.variants.size() : sampled;
    for (Slice& slice : slices_) {
      for (const auto set : samples_) {
        (slice.*set).reserve(records);
      }
    }
  }

  void on_record(const engine::probe_record& pr) override {
    lifecycle_.record();
    Slice& slice = slices_[slices_.size() == 1 ? 0 : pr.variant_index];
    slice.add(pr.result.cls);
    fold_(slice, pr);
  }

  void on_end() override {
    lifecycle_.end();
    for (Slice& slice : slices_) {
      for (const auto set : samples_) {
        (slice.*set).finalize();
      }
      if constexpr (requires { fold_.finish(slice); }) {
        fold_.finish(slice);
      }
    }
  }

 private:
  std::span<Slice> slices_;
  Fold fold_;
  std::vector<stats::sample_set Slice::*> samples_;
  engine::sink_lifecycle lifecycle_;
};

}  // namespace certquic::core
