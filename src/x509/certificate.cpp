#include "x509/certificate.hpp"

#include <algorithm>

#include "util/buffer.hpp"
#include "x509/extensions.hpp"
#include "x509/oids.hpp"

namespace certquic::x509 {

asn1::der_writer& certificate::scratch() {
  // Every certificate this thread issues is encoded into one reused
  // scratch writer; der_ then takes a single exact-size copy.
  thread_local asn1::der_writer w;
  w.clear();
  return w;
}

void certificate::encode(const certificate_spec& spec, rng& r,
                         asn1::der_writer& w) {
  // `w` holds the Extension TLVs, written first so that their rng draws
  // come before the serial's.
  const std::size_t extensions_end = w.size();

  // Random positive 16-byte serial, as issued by modern public CAs.
  r.fill(serial_);
  serial_[0] &= 0x7f;

  // The TBSCertificate fields before the extensions, then sigAlg and
  // the signature value, each after the last.
  w.open(asn1::context_tag(0));
  w.integer(2);  // v3
  w.close();
  w.big_integer(serial_);
  encode_signature_algorithm(w, spec.sig_alg);
  const std::size_t issuer_at = w.size();
  spec.issuer.encode(w);
  const std::size_t validity_at = w.size();
  w.open(asn1::tag::sequence);  // Validity
  w.utc_time(spec.valid.not_before);
  w.utc_time(spec.valid.not_after);
  w.close();
  const std::size_t subject_at = w.size();
  spec.subject.encode(w);
  const std::size_t spki_at = w.size();
  encode_spki(w, spec.key_alg, r);
  const std::size_t fields_end = w.size();
  encode_signature_algorithm(w, spec.sig_alg);
  const std::size_t signature_at = w.size();
  encode_signature_value(w, spec.sig_alg, r);
  const std::size_t signed_end = w.size();

  // Every body is now written, so each enclosing length is known: the
  // four headers go last, and no long-form length shifts a body.
  const std::size_t ext_seq_at = w.size();
  w.header(asn1::tag::sequence, extensions_end);
  const std::size_t ext_ctx_at = w.size();
  const std::size_t extensions = ext_ctx_at - ext_seq_at + extensions_end;
  w.header(asn1::context_tag(3), extensions);
  const std::size_t tbs_at = w.size();
  const std::size_t tbs =
      (fields_end - extensions_end) + (tbs_at - ext_ctx_at) + extensions;
  w.header(asn1::tag::sequence, tbs);
  const std::size_t cert_at = w.size();
  w.header(asn1::tag::sequence,
           (cert_at - tbs_at) + tbs + (signed_end - fields_end));
  const std::size_t headers_end = w.size();

  // Every scratch byte belongs to the certificate exactly once: gather
  // the pieces in wire order into one exact-size allocation.
  const bytes_view pieces = w.view();
  const auto put = [&](std::size_t from, std::size_t to) {
    const std::size_t at = der_.size();
    der_.insert(der_.end(), pieces.begin() + static_cast<std::ptrdiff_t>(from),
                pieces.begin() + static_cast<std::ptrdiff_t>(to));
    return at;
  };
  der_.reserve(headers_end);
  put(cert_at, headers_end);  // Certificate
  put(tbs_at, cert_at);       // TBSCertificate
  const std::size_t fields_at = put(extensions_end, fields_end);
  put(ext_ctx_at, tbs_at);  // [3]
  const std::size_t extensions_at = put(ext_seq_at, ext_ctx_at);
  put(0, extensions_end);
  put(fields_end, signed_end);  // sigAlg, signatureValue

  // A certificate is kilobytes: every offset and size fits 32 bits.
  const auto u32 = [](std::size_t v) { return static_cast<std::uint32_t>(v); };
  extensions_at_ = u32(extensions_at);
  issuer_at_ = u32(fields_at + issuer_at - extensions_end);
  subject_at_ = u32(fields_at + subject_at - extensions_end);
  sizes_.issuer = u32(validity_at - issuer_at);
  sizes_.subject = u32(spki_at - subject_at);
  sizes_.public_key_info = u32(fields_end - spki_at);
  sizes_.extensions = u32(extensions);
  sizes_.signature = u32(signed_end - signature_at);
  sizes_.total = u32(der_.size());
}

bool certificate::self_signed() const noexcept {
  return std::ranges::equal(issuer(), subject());
}

bytes_view certificate::find_extension(const asn1::oid& id) const {
  buffer_reader block{
      bytes_view{der_}.subspan(extensions_at_, sizes_.extensions)};
  const bytes_view list = asn1::read_tlv(block).content;
  const bytes_view want = id.der();
  buffer_reader r{list};
  while (!r.empty()) {
    const std::size_t at = list.size() - r.remaining();
    const asn1::tlv ext = asn1::read_tlv(r);
    // An Extension's content opens with its extnID TLV, and no TLV is a
    // prefix of another: comparing those bytes identifies it.
    if (ext.content.size() >= want.size() &&
        std::equal(want.begin(), want.end(), ext.content.begin())) {
      return list.subspan(at, list.size() - r.remaining() - at);
    }
  }
  return {};
}

bool certificate::is_ca() const {
  const bytes_view found = find_extension(oids::basic_constraints);
  if (found.empty()) {
    return false;
  }
  buffer_reader r{found};
  // A CA certificate encodes cA=TRUE as a non-empty constraint body.
  return read_extension(r).value.size() > 2;
}

std::size_t certificate::san_bytes() const {
  return find_extension(oids::subject_alt_name).size();
}

std::vector<std::string> certificate::subject_alt_names() const {
  const bytes_view found = find_extension(oids::subject_alt_name);
  if (found.empty()) {
    return {};
  }
  buffer_reader r{found};
  return parse_subject_alt_name(read_extension(r));
}

std::string certificate::describe() const {
  return distinguished_name::decode(subject()).to_string() + " (" +
         to_string(key_alg_) + ", " + std::to_string(der_.size()) + "B)";
}

}  // namespace certquic::x509
