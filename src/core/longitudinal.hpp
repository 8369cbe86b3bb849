// Per-epoch aggregation for the longitudinal census service
// (src/service/): one epoch_aggregate is a pure fold over an epoch's
// record stream in plan order — counts, byte totals, the amplification
// and certificate-size distributions, and the order-sensitive stream
// digest the epoch store checkpoints. epoch_delta is the epoch-over-
// epoch movement report (handshake-class shifts, CDF movement) the
// service and `certquic_scan fig fig_epoch_deltas` print.
#pragma once

#include <array>
#include <cstdint>

#include "core/class_mix.hpp"
#include "core/stream_digest.hpp"
#include "engine/sink.hpp"
#include "stats/cdf.hpp"

namespace certquic::core {

/// Everything one census epoch (or one out-of-core path) aggregates.
/// Every field is a pure fold over the stream in plan order, so a
/// re-merged (resumed) epoch is bit-identical to an uninterrupted one.
struct epoch_aggregate : class_mix {
  /// Records folded: the stream length the epoch store checkpoints
  /// (always equal to probed).
  std::size_t records = 0;
  unsigned long long bytes_sent_total = 0;
  unsigned long long bytes_received_total = 0;
  unsigned long long certificate_bytes = 0;
  /// First-burst amplification of completed handshakes (the Fig. 4
  /// axis; its CDF movement across epochs tracks the churn).
  stats::sample_set first_burst_amplification;
  /// Certificate message sizes (bytes) of records that delivered one —
  /// the chain-size axis of Fig. 6.
  stats::sample_set certificate_msg_sizes;
  /// Order-sensitive digest (core/stream_digest.hpp): equal digests
  /// mean two streams were identical *including order*. Persisted per
  /// epoch by the epoch store and cross-checked on resume.
  std::uint64_t stream_digest = kStreamDigestSeed;
};

/// The epoch fields beyond the class mix, for one record.
struct epoch_fold {
  void operator()(epoch_aggregate& agg, const engine::probe_record& rec) const;
};

/// Streaming sink that folds a plan-ordered record stream — every plan
/// variant pooled — into an epoch_aggregate; on_end finalizes the
/// sample sets so the aggregate can be shared read-only.
class epoch_aggregate_sink final
    : public per_variant_sink<epoch_aggregate, epoch_fold> {
 public:
  explicit epoch_aggregate_sink(epoch_aggregate& agg)
      : per_variant_sink(agg, {},
                         {&epoch_aggregate::first_burst_amplification,
                          &epoch_aggregate::certificate_msg_sizes}) {}
};

/// Epoch-over-epoch movement between two aggregates.
struct epoch_delta {
  std::array<long long, kClassCount> class_delta{};
  double amplification_median_delta = 0.0;
  double certificate_median_delta = 0.0;

  [[nodiscard]] long long class_shift(scan::handshake_class c) const {
    return class_delta[static_cast<std::size_t>(c)];
  }
};

/// The movement from `prev` to `cur`. Quantile deltas treat an empty
/// sample set as 0 (an epoch with no completed handshakes reports the
/// full drop through the class counts instead).
[[nodiscard]] epoch_delta delta_between(const epoch_aggregate& prev,
                                        const epoch_aggregate& cur);

}  // namespace certquic::core
