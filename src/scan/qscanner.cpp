#include "scan/qscanner.hpp"

#include "asn1/der.hpp"
#include "util/hex.hpp"

namespace certquic::scan {
namespace {

/// Extracts the serialNumber from a DER certificate (second element of
/// the TBSCertificate, after the [0] version tag).
std::string serial_of(bytes_view der) {
  buffer_reader r{der};
  const asn1::tlv cert = asn1::read_tlv(r);
  const auto outer = asn1::children(cert);
  if (outer.empty()) {
    throw codec_error("empty certificate");
  }
  const auto tbs = asn1::children(outer[0]);
  if (tbs.size() < 2) {
    throw codec_error("malformed TBSCertificate");
  }
  // tbs[0] is the [0] EXPLICIT version, tbs[1] the serial INTEGER.
  return to_hex(tbs[1].content);
}

}  // namespace

qscan_result qscanner::fetch(const internet::service_record& rec) const {
  probe_options opt;
  opt.initial_size = 1362;
  opt.capture_certificate = true;
  return parse(reach_.probe(rec, opt).obs);
}

qscan_result qscanner::parse(const quic::observation& obs) {
  qscan_result out;
  if (!obs.handshake_complete || obs.certificate_message.empty()) {
    return out;
  }
  // Parse the Certificate message: context(1) + list length(3) +
  // entries of 3-byte length + DER + 2-byte extensions.
  buffer_reader r{obs.certificate_message};
  r.skip(4);  // handshake frame header
  r.skip(1);  // certificate_request_context
  const std::uint32_t list_len = r.u24();
  buffer_reader list{r.raw(list_len)};
  while (!list.empty()) {
    const std::uint32_t cert_len = list.u24();
    const bytes_view der = list.raw(cert_len);
    const std::uint16_t ext_len = list.u16();
    list.skip(ext_len);
    out.certificates.push_back({serial_of(der)});
    out.chain_wire_size += der.size();
  }
  out.ok = !out.certificates.empty();
  return out;
}

bool qscanner::leaf_matches_https(const internet::model& m,
                                  const internet::service_record& rec,
                                  const qscan_result& fetched) const {
  if (!fetched.ok) {
    return false;
  }
  const auto https_chain = m.chain_of(rec, internet::fetch_protocol::https);
  return to_hex(https_chain.leaf().serial()) ==
         fetched.certificates.front().serial_hex;
}

}  // namespace certquic::scan
