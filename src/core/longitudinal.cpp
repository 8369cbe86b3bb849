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
  d.record_delta = static_cast<long long>(cur.records) -
                   static_cast<long long>(prev.records);
  const auto q = [](const stats::sample_set& s, double quantile) {
    return s.empty() ? 0.0 : s.quantile(quantile);
  };
  d.amplification_median_delta = q(cur.first_burst_amplification, 0.5) -
                                 q(prev.first_burst_amplification, 0.5);
  d.amplification_p95_delta = q(cur.first_burst_amplification, 0.95) -
                              q(prev.first_burst_amplification, 0.95);
  d.certificate_median_delta = q(cur.certificate_msg_sizes, 0.5) -
                               q(prev.certificate_msg_sizes, 0.5);
  d.certificate_p95_delta = q(cur.certificate_msg_sizes, 0.95) -
                            q(prev.certificate_msg_sizes, 0.95);
  return d;
}

}  // namespace certquic::core
