#include "x509/name.hpp"

#include <algorithm>

#include "util/errors.hpp"
#include "x509/oids.hpp"

namespace certquic::x509 {

distinguished_name distinguished_name::decode(bytes_view der) {
  static const asn1::oid* const kAttributes[] = {
      &oids::common_name,  &oids::country,      &oids::locality,
      &oids::state,        &oids::organization, &oids::organizational_unit};
  buffer_reader r{der};
  const asn1::tlv sequence = asn1::read_tlv(r);
  if (!sequence.is(asn1::tag::sequence) || !r.empty()) {
    throw codec_error("Name is not one RDNSequence");
  }
  std::vector<rdn> parts;
  for (const asn1::tlv& set : asn1::children(sequence)) {
    const std::vector<asn1::tlv> atv = asn1::children(set);
    if (!set.is(asn1::tag::set) || atv.size() != 1 ||
        !atv[0].is(asn1::tag::sequence)) {
      throw codec_error("RDN is not one AttributeTypeAndValue");
    }
    const bytes_view fields = atv[0].content;
    buffer_reader fr{fields};
    const asn1::tlv id = asn1::read_tlv(fr);
    const bytes_view id_der = fields.first(fields.size() - fr.remaining());
    const asn1::tlv value = asn1::read_tlv(fr);
    if (!id.is(asn1::tag::object_identifier) || !fr.empty() ||
        !(value.is(asn1::tag::printable_string) ||
          value.is(asn1::tag::utf8_string))) {
      throw codec_error("malformed AttributeTypeAndValue");
    }
    rdn part;
    for (const asn1::oid* attribute : kAttributes) {
      if (std::ranges::equal(attribute->der(), id_der)) {
        part.attribute = attribute;
      }
    }
    if (part.attribute == nullptr) {
      throw codec_error("unknown attribute type in Name");
    }
    part.value.assign(value.content.begin(), value.content.end());
    part.printable = value.is(asn1::tag::printable_string);
    parts.push_back(std::move(part));
  }
  return distinguished_name{std::move(parts)};
}

std::string distinguished_name::common_name() const {
  for (const auto& part : parts_) {
    if (*part.attribute == oids::common_name) {
      return part.value;
    }
  }
  return {};
}

void pieces::encode(asn1::der_writer& w, std::uint8_t tag_byte) const {
  w.header(tag_byte, size());
  for (const std::string_view piece : parts) {
    w.raw(piece);
  }
}

namespace {

/// One RelativeDistinguishedName: a SET of one AttributeTypeAndValue.
void encode_rdn(asn1::der_writer& w, const asn1::oid& attribute,
                const pieces& value, bool printable) {
  w.open(asn1::tag::set);
  w.open(asn1::tag::sequence);
  w.oid(attribute);
  value.encode(w, static_cast<std::uint8_t>(
                      printable ? asn1::tag::printable_string
                                : asn1::tag::utf8_string));
  w.close();
  w.close();
}

}  // namespace

void name_ref::encode(asn1::der_writer& w) const {
  switch (form_) {
    case form::der:
      w.raw(der_);
      return;
    case form::common_name:
    case form::org:
      w.open(asn1::tag::sequence);
      if (form_ == form::org) {
        encode_rdn(w, oids::country, pieces{country_, {}},
                   /*printable=*/true);
        encode_rdn(w, oids::organization, organization_,
                   /*printable=*/false);
      }
      encode_rdn(w, oids::common_name, common_name_, /*printable=*/false);
      w.close();
      return;
  }
}

std::string distinguished_name::to_string() const {
  std::string out;
  for (const auto& part : parts_) {
    if (!out.empty()) {
      out += ", ";
    }
    if (*part.attribute == oids::common_name) {
      out += "CN=";
    } else if (*part.attribute == oids::country) {
      out += "C=";
    } else if (*part.attribute == oids::organization) {
      out += "O=";
    } else if (*part.attribute == oids::organizational_unit) {
      out += "OU=";
    } else if (*part.attribute == oids::locality) {
      out += "L=";
    } else if (*part.attribute == oids::state) {
      out += "ST=";
    } else {
      out += "?=";
    }
    out += part.value;
  }
  return out;
}

bool distinguished_name::operator==(const distinguished_name& other) const {
  if (parts_.size() != other.parts_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (*parts_[i].attribute != *other.parts_[i].attribute ||
        parts_[i].value != other.parts_[i].value) {
      return false;
    }
  }
  return true;
}

}  // namespace certquic::x509
