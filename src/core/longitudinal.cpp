#include "core/longitudinal.hpp"

namespace certquic::core {

void epoch_fold::operator()(epoch_aggregate& agg,
                            const engine::probe_record& rec) const {
  const quic::observation& o = rec.result.obs;
  ++agg.records;
  agg.bytes_sent_total += o.bytes_sent_total;
  agg.bytes_received_total += o.bytes_received_total;
  agg.certificate_bytes += o.certificate_msg_size;
  if (o.handshake_complete) {
    agg.first_burst_amplification.add(o.first_burst_amplification());
  }
  if (o.certificate_msg_size > 0) {
    agg.certificate_msg_sizes.add(static_cast<double>(o.certificate_msg_size));
  }
  digest_record(agg.stream_digest, rec.service_index, rec.variant_index,
                rec.result);
}

epoch_delta delta_between(const epoch_aggregate& prev,
                          const epoch_aggregate& cur) {
  epoch_delta d;
  for (std::size_t c = 0; c < kClassCount; ++c) {
    d.class_delta[c] =
        cur.class_delta(prev, static_cast<scan::handshake_class>(c));
  }
  const auto median = [](const stats::sample_set& s) {
    return s.empty() ? 0.0 : s.quantile(0.5);
  };
  d.amplification_median_delta = median(cur.first_burst_amplification) -
                                 median(prev.first_burst_amplification);
  d.certificate_median_delta =
      median(cur.certificate_msg_sizes) - median(prev.certificate_msg_sizes);
  return d;
}

}  // namespace certquic::core
