#include "x509/certificate.hpp"

#include "asn1/der.hpp"
#include "x509/oids.hpp"

namespace certquic::x509 {

certificate::certificate(certificate_spec spec, rng& r)
    : spec_(std::move(spec)) {
  // Random positive 16-byte serial, as issued by modern public CAs.
  serial_.resize(16);
  r.fill(serial_);
  serial_[0] &= 0x7f;

  // Every certificate this thread builds is encoded into one reused
  // scratch writer; der_ then takes a single exact-size copy.
  thread_local asn1::der_writer w;
  w.clear();
  // Size of whatever `write` appends, measured from writer offsets.
  auto measure = [](auto&& write) {
    const std::size_t at = w.size();
    write();
    return w.size() - at;
  };

  w.open(asn1::tag::sequence);  // Certificate
  w.open(asn1::tag::sequence);  // TBSCertificate
  w.open(asn1::context_tag(0));
  w.integer(2);  // v3
  w.close();
  w.big_integer(serial_);
  encode_signature_algorithm(w, spec_.sig_alg);
  sizes_.issuer = measure([&] { spec_.issuer.encode(w); });
  w.open(asn1::tag::sequence);  // Validity
  w.utc_time(spec_.valid.not_before);
  w.utc_time(spec_.valid.not_after);
  w.close();
  sizes_.subject = measure([&] { spec_.subject.encode(w); });
  sizes_.public_key_info =
      measure([&] { encode_spki(w, spec_.key_alg, r); });
  w.open(asn1::context_tag(3));
  sizes_.extensions = measure([&] {
    w.open(asn1::tag::sequence);
    for (const auto& ext : spec_.extensions) {
      const std::size_t ext_size = measure([&] { ext.encode(w); });
      if (*ext.id == oids::subject_alt_name) {
        san_bytes_ += ext_size;
      }
      if (*ext.id == oids::basic_constraints) {
        // A CA certificate encodes cA=TRUE as a non-empty constraint body.
        is_ca_ = !ext.value.empty() && ext.value.size() > 2;
      }
    }
    w.close();
  });
  w.close();  // [3]
  w.close();  // TBSCertificate
  encode_signature_algorithm(w, spec_.sig_alg);
  sizes_.signature =
      measure([&] { encode_signature_value(w, spec_.sig_alg, r); });
  w.close();  // Certificate

  const bytes_view der = w.view();
  der_.assign(der.begin(), der.end());
  sizes_.total = der_.size();
}

std::vector<std::string> certificate::subject_alt_names() const {
  for (const auto& ext : spec_.extensions) {
    if (*ext.id == oids::subject_alt_name) {
      return parse_subject_alt_name(ext);
    }
  }
  return {};
}

std::string certificate::describe() const {
  return spec_.subject.to_string() + " (" + to_string(spec_.key_alg) + ", " +
         std::to_string(der_.size()) + "B)";
}

}  // namespace certquic::x509
