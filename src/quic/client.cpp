#include "quic/client.hpp"

#include <algorithm>

#include "util/errors.hpp"

namespace certquic::quic {
namespace {

/// The one-chunk application request of the TTFB timeline; its STREAM
/// frame views these bytes.
constexpr std::string_view kRequest = "GET /index.html";

/// Appends a CRYPTO chunk to an in-order reassembly buffer, ignoring
/// already-received prefixes (retransmissions restart at offset 0).
/// Chunks beyond the current tail are dropped — with the simulator's
/// in-order delivery this only happens when datagrams were lost, in
/// which case the handshake stalls and times out like a real one.
void reassemble(bytes& stream, const crypto_frame& cf) {
  if (cf.offset > stream.size()) {
    return;  // gap: predecessor lost
  }
  const std::size_t already = stream.size() - cf.offset;
  if (already >= cf.data.size()) {
    return;  // fully duplicate
  }
  stream.insert(stream.end(), cf.data.begin() + static_cast<long>(already),
                cf.data.end());
}

}  // namespace

std::string to_string(ack_policy p) {
  switch (p) {
    case ack_policy::delayed:
      return "delayed-ack";
    case ack_policy::instant:
      return "instant-ack";
    case ack_policy::none:
      return "no-ack";
  }
  return "?";
}

client::client(net::simulator& sim, net::endpoint_id local,
               net::endpoint_id server, client_config config,
               std::uint64_t seed)
    : sim_(sim), config_(std::move(config)) {
  restart(local, server, seed);
}

client::client(net::simulator& sim) : sim_(sim) {}

client::~client() {
  if (attached_) {
    sim_.detach(local_);
  }
}

void client::reset(net::endpoint_id local, net::endpoint_id server,
                   const client_config& config, std::uint64_t seed) {
  config_ = config;
  restart(local, server, seed);
}

void client::restart(net::endpoint_id local, net::endpoint_id server,
                     std::uint64_t seed) {
  local_ = local;
  server_ = server;
  rng_ = rng{seed};
  obs_ = {};
  dcid_.resize(8);
  rng_.fill(dcid_);
  scid_ = {};
  server_scid_ = {};
  client_hello_.clear();
  finished_.clear();
  initial_stream_.clear();
  handshake_stream_.clear();
  handshake_cursor_ = 0;
  saw_finished_ = false;
  abandoned_ = false;
  largest_initial_pn_ = 0;
  largest_handshake_pn_ = 0;
  handshake_keys_ = false;
  ack_timer_armed_ = false;
  finished_sent_ = false;
  next_pn_initial_ = 0;
  next_pn_handshake_ = 0;
  next_pn_app_ = 0;
  sim_.attach(local_, [this](const net::datagram& d) { on_datagram(d); });
  attached_ = true;
}

void client::start() {
  obs_.start_time = sim_.now();
  send_initial(/*token=*/{});
  sim_.schedule(config_.timeout, [this]() {
    if (!obs_.handshake_complete) {
      obs_.timed_out = true;
    }
  });
}

void client::send_initial(const bytes& token) {
  tls::encode_client_hello(config_.sni, config_.offer_compression, rng_,
                           client_hello_);
  datagram_builder dg{tx_};
  packet& init = dg.open(packet_type::initial);
  init.version = config_.version;
  init.dcid = dcid_;
  init.scid = scid_;
  init.token = token;
  init.packet_number = next_pn_initial_++;
  dg.add(crypto_frame{0, client_hello_});

  (void)dg.pad_to(config_.initial_size);
  send_datagram(dg, config_.spoof_source.value_or(local_));
}

void client::send_datagram(const datagram_builder& dg,
                           const net::endpoint_id& src) {
  bytes wire = sim_.take_buffer();
  dg.encode(wire);
  ++obs_.client_datagrams;
  obs_.bytes_sent_total += wire.size();
  if (obs_.bytes_sent_first_flight == 0) {
    obs_.bytes_sent_first_flight = wire.size();  // the first datagram
  }
  sim_.send({src, server_, std::move(wire)});
}

void client::on_datagram(const net::datagram& d) {
  if (abandoned_) {
    return;
  }
  // The packets' CRYPTO and STREAM frames view d.payload, which the
  // delivery event owns until this handler returns.
  std::span<const packet> packets;
  try {
    packets = parse_datagram(d.payload, rx_);
  } catch (const codec_error&) {
    return;
  }
  if (!obs_.response_received) {
    obs_.first_receive_time = sim_.now();
  }
  obs_.last_receive_time = sim_.now();
  obs_.response_received = true;
  ++obs_.server_datagrams;
  obs_.bytes_received_total += d.payload.size();
  const bool in_first_burst = obs_.client_datagrams <= 1;
  if (in_first_burst) {
    obs_.bytes_received_first_burst += d.payload.size();
  }

  for (const packet& p : packets) {
    if (p.is_version_negotiation()) {
      if (!obs_.version_negotiation_seen && config_.send_acks) {
        obs_.version_negotiation_seen = true;
        for (const std::uint32_t v : p.supported_versions) {
          if (v != 0) {
            config_.version = v;  // adopt and retry once
            send_initial(/*token=*/{});
            break;
          }
        }
      }
      continue;
    }
    if (p.type == packet_type::retry) {
      if (!obs_.retry_seen) {
        obs_.retry_seen = true;
        if (config_.send_acks) {
          // Fresh attempt carrying the token (RFC 9000 §8.1.2).
          send_initial(p.token);
        }
      }
      continue;
    }
    if (p.type == packet_type::one_rtt) {
      // Application data: the response to our request. The timeline's
      // endpoint is the first STREAM byte (TTFB).
      for (const frame& f : p.frames) {
        if (const auto* sf = std::get_if<stream_frame>(&f)) {
          if (obs_.first_app_byte_time == 0 && !sf->data.empty()) {
            obs_.first_app_byte_time = sim_.now();
          }
          obs_.app_bytes_received += sf->data.size();
        }
      }
      continue;
    }
    server_scid_ = p.scid;
    const frame_accounting fa = account(p.frames);
    obs_.tls_bytes_received += fa.crypto_payload;
    obs_.padding_bytes_received += fa.padding;
    if (in_first_burst) {
      obs_.tls_bytes_first_burst += fa.crypto_payload;
      obs_.padding_bytes_first_burst += fa.padding;
    }
    for (const frame& f : p.frames) {
      if (const auto* cf = std::get_if<crypto_frame>(&f)) {
        if (p.type == packet_type::initial) {
          reassemble(initial_stream_, *cf);
        } else if (p.type == packet_type::handshake) {
          reassemble(handshake_stream_, *cf);
          handshake_keys_ = true;
        }
      }
    }
    if (p.type == packet_type::initial) {
      largest_initial_pn_ = std::max(largest_initial_pn_, p.packet_number);
    } else if (p.type == packet_type::handshake) {
      largest_handshake_pn_ = std::max(largest_handshake_pn_,
                                       p.packet_number);
    }
  }

  maybe_complete();

  if (config_.send_acks && !ack_timer_armed_ && !finished_sent_) {
    ack_timer_armed_ = true;
    // Delayed-ack batches a burst into one acknowledgement; a zero
    // delay (instant-ACK variant) still fires after every delivery
    // already queued for this instant, so same-instant bursts batch.
    sim_.schedule(config_.ack_delay, [this]() { send_ack_flight(); });
  }
}

void client::maybe_complete() {
  if (obs_.handshake_complete || abandoned_) {
    return;
  }
  // ServerHello whole at the Initial level? Anything else whole there
  // is a flight this client cannot finish.
  const tls::frame_info sh = tls::peek_frame(initial_stream_);
  if (sh.status == tls::frame_status::partial) {
    return;
  }
  if (sh.status == tls::frame_status::malformed ||
      sh.type != tls::handshake_type::server_hello) {
    abandoned_ = true;
    return;
  }
  // Walk the Handshake-level stream from the first message not yet
  // inspected; complete when Finished is whole and nothing partial
  // follows it.
  while (handshake_cursor_ < handshake_stream_.size()) {
    const bytes_view rest =
        bytes_view{handshake_stream_}.subspan(handshake_cursor_);
    const tls::frame_info info = tls::peek_frame(rest);
    if (info.status == tls::frame_status::partial) {
      return;  // truncated message at the tail
    }
    if (info.status == tls::frame_status::malformed ||
        !observe_certificate(info.type, rest.first(info.total_size))) {
      abandoned_ = true;
      return;
    }
    saw_finished_ = saw_finished_ ||
                    info.type == tls::handshake_type::finished;
    handshake_cursor_ += info.total_size;
  }
  if (!saw_finished_) {
    return;
  }
  obs_.handshake_complete = true;
  obs_.complete_time = sim_.now();
}

bool client::observe_certificate(tls::handshake_type type,
                                 bytes_view message) {
  const bool compressed = type == tls::handshake_type::compressed_certificate;
  if (!compressed && type != tls::handshake_type::certificate) {
    return true;
  }
  // uncompressed_length sits right after the 2-byte algorithm id.
  constexpr std::size_t kUncompressedLengthEnd = 4 + 2 + 3;
  if (compressed && message.size() < kUncompressedLengthEnd) {
    return false;
  }
  obs_.certificate_msg_size = message.size();
  obs_.compression_used = compressed;
  if (config_.capture_certificate) {
    obs_.certificate_message.assign(message.begin(), message.end());
  }
  obs_.certificate_uncompressed_size =
      compressed ? (static_cast<std::size_t>(message[6]) << 16) |
                       (static_cast<std::size_t>(message[7]) << 8) |
                       static_cast<std::size_t>(message[8])
                 : message.size();
  return true;
}

void client::send_ack_flight() {
  ack_timer_armed_ = false;
  if (finished_sent_ || !config_.send_acks || abandoned_) {
    return;
  }
  if (!obs_.handshake_complete) {
    ++obs_.acks_before_complete;
  }

  const connection_id& dcid = server_scid_.empty() ? dcid_ : server_scid_;
  datagram_builder dg{tx_};
  packet& init_ack = dg.open(packet_type::initial);
  init_ack.dcid = dcid;
  init_ack.scid = scid_;
  init_ack.packet_number = next_pn_initial_++;
  dg.add(ack_frame{largest_initial_pn_});

  if (handshake_keys_) {
    packet& hs = dg.open(packet_type::handshake);
    hs.dcid = dcid;
    hs.scid = scid_;
    hs.packet_number = next_pn_handshake_++;
    dg.add(ack_frame{largest_handshake_pn_});
    if (obs_.handshake_complete) {
      tls::encode_finished(rng_, finished_);
      dg.add(crypto_frame{0, finished_});
      finished_sent_ = true;
    }
    if (finished_sent_ && config_.fetch_app_data) {
      // Coalesce the application request behind the Finished flight —
      // last in the datagram, as a length-less short-header packet
      // must be. TTFB then measures first Initial → first response
      // byte with no client-side think time.
      packet& req = dg.open(packet_type::one_rtt);
      req.dcid = dcid;
      req.packet_number = next_pn_app_++;
      dg.add(stream_frame{
          0, 0,
          {reinterpret_cast<const std::uint8_t*>(kRequest.data()),
           kRequest.size()}});
    }
  }

  // Client Initial-bearing datagrams must also meet the 1200-byte
  // minimum... but ACK-only Initial packets are not ack-eliciting, so
  // no padding is required here (RFC 9000 §14.1 applies to
  // ack-eliciting Initials).
  send_datagram(dg, local_);
}

}  // namespace certquic::quic
