#include "quic/server.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <string>

#include "tls/handshake.hpp"
#include "util/errors.hpp"

namespace certquic::quic {
namespace {

/// First probe-timeout of an unvalidated connection; doubles per
/// retransmission (RFC 9002).
constexpr net::duration kPtoInitial = net::milliseconds(400);

/// The fixed-size response head of the TTFB timeline; its STREAM frame
/// views these bytes.
constexpr auto kResponseHead = [] {
  std::array<std::uint8_t, 256> head{};
  head.fill(0x5a);
  return head;
}();

std::string to_string_impl(amplification_policy p) {
  switch (p) {
    case amplification_policy::unlimited:
      return "unlimited (pre-Draft-09)";
    case amplification_policy::min_initial_only:
      return "min-Initial check only (Draft 09)";
    case amplification_policy::max_three_handshake_packets:
      return "<=3 Handshake packets (Drafts 10-12)";
    case amplification_policy::max_three_datagrams:
      return "<=3 datagrams (Drafts 13-14)";
    case amplification_policy::three_x_bytes:
      return "3x bytes (Draft 15+ / RFC 9000)";
  }
  throw config_error("unknown amplification_policy");
}

}  // namespace

std::string to_string(amplification_policy p) { return to_string_impl(p); }

server_behavior server_behavior::compliant() {
  server_behavior b;
  b.coalesce_levels = true;
  b.max_retransmissions = 2;
  return b;
}

server_behavior server_behavior::standard_no_coalesce() {
  server_behavior b;
  b.coalesce_levels = false;
  // Common off-the-shelf stacks acknowledge the client Initial in its
  // own padded datagram before the ServerHello datagram; unlike
  // Cloudflare they count those padding bytes against the limit, which
  // wastes most of the pre-validation budget (§4.1: "multi-RTT
  // handshakes are caused by large certificates AND missing packet
  // coalescence").
  b.ack_in_separate_datagram = true;
  b.max_retransmissions = 2;
  return b;
}

server_behavior server_behavior::cloudflare() {
  server_behavior b;
  b.coalesce_levels = false;
  b.ack_in_separate_datagram = true;
  b.count_padding_in_limit = false;  // the reported accounting bug
  // Cloudflare pads these datagrams at the UDP layer beyond the QUIC
  // minimum; the targets are calibrated so the two Initial-level
  // datagrams carry the constant 2462 superfluous bytes of §4.1.
  b.pad_target = 1332;
  b.ack_pad_target = 1333;
  b.max_retransmissions = 1;
  b.compression_support = {compress::algorithm::brotli};
  return b;
}

server_behavior server_behavior::google() {
  server_behavior b;
  b.coalesce_levels = true;
  // §4.3: "All hypergiants exceed the amplification limit due to
  // resends" — Google stays below 10x but does not count resends.
  b.limit_covers_retransmissions = false;
  b.max_retransmissions = 2;
  b.compression_support = {compress::algorithm::brotli};
  return b;
}

server_behavior server_behavior::meta_pre_disclosure(
    std::size_t retransmissions) {
  server_behavior b;
  b.coalesce_levels = true;
  b.limit_covers_retransmissions = false;  // the mvfst non-compliance
  b.max_retransmissions = retransmissions;
  b.compression_support = {compress::algorithm::brotli,
                           compress::algorithm::zlib,
                           compress::algorithm::zstd};
  return b;
}

server_behavior server_behavior::meta_post_disclosure() {
  server_behavior b = meta_pre_disclosure(1);
  return b;
}

server_behavior server_behavior::retry_always() {
  server_behavior b;
  b.always_retry = true;
  b.coalesce_levels = true;
  b.max_retransmissions = 2;
  return b;
}

server::server(net::simulator& sim, net::endpoint_id address,
               x509::chain chain, server_behavior behavior,
               bytes_view codec_dictionary, std::uint64_t seed)
    : server(sim, address, &owned_chain_, std::move(behavior),
             codec_dictionary, seed) {
  owned_chain_ = std::move(chain);
}

server::server(net::simulator& sim, net::endpoint_id address,
               const x509::chain* chain, server_behavior behavior,
               bytes_view codec_dictionary, std::uint64_t seed)
    : sim_(sim), behavior_(std::move(behavior)) {
  restart(address, chain, codec_dictionary, seed);
}

server::server(net::simulator& sim) : sim_(sim) {}

server::~server() {
  if (chain_ != nullptr) {  // an idle server never attached
    sim_.detach(address_);
  }
}

void server::reset(net::endpoint_id address, const x509::chain* chain,
                   const server_behavior& behavior,
                   bytes_view codec_dictionary, std::uint64_t seed) {
  behavior_ = behavior;
  restart(address, chain, codec_dictionary, seed);
}

void server::restart(net::endpoint_id address, const x509::chain* chain,
                     bytes_view codec_dictionary, std::uint64_t seed) {
  if (behavior_.max_udp_payload < kMinInitialSize) {
    // Below this the CRYPTO chunk arithmetic in pump underflows; RFC
    // 9000 §18.2 makes 1200 the floor for max_udp_payload_size anyway.
    throw config_error("server_behavior::max_udp_payload below " +
                       std::to_string(kMinInitialSize));
  }
  address_ = address;
  if (chain != &owned_chain_) {
    owned_chain_ = {};
  }
  chain_ = chain;
  codec_dictionary_ = codec_dictionary;
  rng_ = rng{seed};
  stats_ = {};
  open_ = 0;
  ptos_armed_ = 0;
  sim_.attach(address_, [this](const net::datagram& d) { on_datagram(d); });
}

server::connection* server::find(const net::endpoint_id& peer) {
  for (connection& c : open_connections()) {
    if (c.peer == peer) {
      return &c;
    }
  }
  return nullptr;
}

server::connection& server::open(const net::endpoint_id& peer) {
  if (open_ == conns_.size()) {
    conns_.emplace_back();
  }
  connection& c = conns_[open_++];
  tls::server_flight flight = std::move(c.flight);
  c = connection{};
  c.flight = std::move(flight);
  c.flight.server_hello.clear();
  c.flight.handshake.clear();
  c.peer = peer;
  return c;
}

void server::close(net::endpoint_id peer) {
  for (std::size_t i = 0; i < open_; ++i) {
    if (conns_[i].peer == peer) {
      --open_;
      if (i != open_) {
        std::swap(conns_[i], conns_[open_]);
      }
      return;
    }
  }
}

void server::on_datagram(const net::datagram& d) {
  // The packets' CRYPTO and STREAM frames view d.payload, which the
  // delivery event owns until this handler returns.
  std::span<const packet> packets;
  try {
    packets = parse_datagram(d.payload, rx_);
  } catch (const codec_error&) {
    return;  // garbage is dropped silently
  }
  connection* found = find(d.src);
  if (found == nullptr) {
    // New connection requires a client Initial of minimum size.
    const bool has_initial =
        std::any_of(packets.begin(), packets.end(), [](const packet& p) {
          return p.type == packet_type::initial;
        });
    if (!has_initial || d.payload.size() < kMinInitialSize) {
      return;  // RFC 9000 §14.1: drop undersized client Initials
    }
    found = &open(d.src);
    found->our_scid.resize(8);
    rng_.fill(found->our_scid);
    ++stats_.connections;
  }
  connection& c = *found;

  const bool first_contact = c.bytes_received == 0;
  c.bytes_received += d.payload.size();
  if (!first_contact) {
    // Any datagram from the claimed address after our first flight
    // completes the round trip and validates the path (RFC 9000 §8.1).
    if (!c.validated) {
      c.validated = true;
      c.pto_timer = 0;  // cancel the outstanding retransmission timer
      if (c.budget_blocked) {
        // The budget had a flight parked; validation releases it now —
        // account how long the limit gated the timeline.
        c.budget_blocked = false;
        stats_.budget_blocked_us += sim_.now() - c.blocked_since;
      }
      pump(c, /*include_ack=*/false);
    }
    for (const packet& p : packets) {
      if (p.type == packet_type::handshake) {
        c.done = true;  // client reached Handshake keys; flight delivered
      }
      if (p.type == packet_type::initial) {
        c.largest_seen_initial_pn = std::max(c.largest_seen_initial_pn,
                                             p.packet_number);
      }
      if (p.type == packet_type::one_rtt) {
        maybe_send_app_response(c, p);
      }
    }
    return;
  }

  for (const packet& p : packets) {
    if (p.type == packet_type::initial) {
      handle_client_initial(c, p);
      break;
    }
  }
}

void server::handle_client_initial(connection& c, const packet& p) {
  c.client_scid = p.scid;
  c.largest_seen_initial_pn = p.packet_number;
  c.largest_seen_valid = true;

  if (p.version != behavior_.supported_version) {
    // Version mismatch: reply with Version Negotiation and forget the
    // attempt (RFC 9000 §6). The client retries with our version,
    // paying one extra round trip.
    // A Version Negotiation packet carries no frames, so it can be
    // assigned whole.
    datagram_builder dg{tx_};
    dg.open(packet_type::initial) = make_version_negotiation(
        p.scid, p.dcid, {behavior_.supported_version});
    send_datagram(c.peer, dg);
    close(c.peer);
    return;
  }

  if (behavior_.always_retry && p.token.empty()) {
    datagram_builder dg{tx_};
    packet& retry = dg.open(packet_type::retry);
    retry.dcid = c.client_scid;
    retry.scid = c.our_scid;
    retry.token.resize(24);
    rng_.fill(retry.token);
    // A Retry consumes the connection attempt: the client will come
    // back with the token in a fresh Initial.
    send_datagram(c.peer, dg);
    close(c.peer);
    return;
  }
  if (!p.token.empty()) {
    c.validated = true;  // token proves a completed round trip
  }

  // Negotiate certificate compression: use the first mutually supported
  // algorithm in server preference order. A server without compression
  // support has nothing to negotiate, so it skips the ClientHello. A
  // ClientHello in one CRYPTO frame is read in place; one split over
  // several is joined first.
  std::unique_ptr<compress::codec> codec;
  bytes joined;
  bytes_view hello;
  if (!behavior_.compression_support.empty()) {
    for (const frame& f : p.frames) {
      if (const auto* cf = std::get_if<crypto_frame>(&f)) {
        if (hello.empty()) {
          hello = cf->data;
          continue;
        }
        if (joined.empty()) {
          append(joined, hello);
        }
        append(joined, cf->data);
        hello = joined;
      }
    }
  }
  if (!hello.empty()) {
    try {
      const auto offered = tls::parse_offered_compression(hello);
      for (const auto alg : behavior_.compression_support) {
        if (std::find(offered.begin(), offered.end(), alg) != offered.end()) {
          codec = std::make_unique<compress::codec>(alg, codec_dictionary_);
          break;
        }
      }
    } catch (const codec_error&) {
      // Not a parseable ClientHello (e.g. a raw probe); serve anyway.
    }
  }

  tls::build_server_flight(*chain_, codec.get(), rng_, c.flight);

  pump(c, /*include_ack=*/true);
  if (!c.validated) {
    c.pto = kPtoInitial;
    arm_pto(c);
  }
}

bool server::charge(connection& c, std::size_t wire_bytes,
                    std::size_t padding_bytes,
                    std::size_t handshake_packets) {
  if (c.validated || c.limit_exempt) {
    return true;
  }
  switch (behavior_.policy) {
    case amplification_policy::unlimited:
    case amplification_policy::min_initial_only:
      // min-Initial was enforced on receive; no send-side limit.
      return true;
    case amplification_policy::max_three_handshake_packets:
      if (c.handshake_packets_sent + handshake_packets > 3) {
        return false;
      }
      return true;
    case amplification_policy::max_three_datagrams:
      if (c.datagrams_sent + 1 > 3) {
        return false;
      }
      return true;
    case amplification_policy::three_x_bytes: {
      const std::size_t counted =
          behavior_.count_padding_in_limit
              ? wire_bytes
              : wire_bytes - std::min(wire_bytes, padding_bytes);
      if (c.budget_spent + counted > 3 * c.bytes_received) {
        return false;
      }
      c.budget_spent += counted;
      return true;
    }
  }
  throw config_error("unknown amplification_policy");
}

void server::transmit(connection& c, const datagram_builder& dg,
                      std::size_t handshake_packets) {
  c.handshake_packets_sent += handshake_packets;
  ++c.datagrams_sent;
  send_datagram(c.peer, dg);
}

void server::send_datagram(const net::endpoint_id& to,
                           const datagram_builder& dg) {
  bytes wire = sim_.take_buffer();
  dg.encode(wire);
  ++stats_.datagrams_sent;
  stats_.bytes_sent += wire.size();
  sim_.send({address_, to, std::move(wire)});
}

void server::pump(connection& c, bool include_ack) {
  pump_until(c, include_ack, c.flight.server_hello.size(),
             c.flight.handshake.size());
}

void server::pump_until(connection& c, bool include_ack,
                        std::size_t initial_end, std::size_t handshake_end) {
  // Per-datagram fixed overheads.
  const std::size_t max_udp = behavior_.max_udp_payload;

  bool ack_pending = include_ack;
  const bool cloudflare_style =
      behavior_.ack_in_separate_datagram && !behavior_.coalesce_levels;

  // Cloudflare pattern, datagram 1: a padded, ACK-only Initial.
  if (cloudflare_style && ack_pending) {
    datagram_builder dg{tx_};
    packet& ack_pkt = dg.open(packet_type::initial);
    ack_pkt.dcid = c.client_scid;
    ack_pkt.scid = c.our_scid;
    ack_pkt.packet_number = c.next_pn_initial++;
    dg.add(ack_frame{c.largest_seen_initial_pn});
    const std::size_t padding = dg.pad_to(behavior_.ack_pad_target);
    if (charge(c, dg.size(), padding, 0)) {
      transmit(c, dg, 0);
    }
    ack_pending = false;
  }

  while (!c.done) {
    const std::size_t initial_left = initial_end - c.initial_sent;
    const std::size_t hs_left = handshake_end - c.handshake_sent;
    if (initial_left == 0 && hs_left == 0) {
      break;
    }

    datagram_builder dg{tx_};
    std::size_t space = max_udp;
    // Datagrams carrying ack-eliciting Initial packets (here: a CRYPTO
    // frame) are padded.
    bool ack_eliciting_initial = false;

    if (initial_left > 0 || ack_pending) {
      packet& init = dg.open(packet_type::initial);
      init.dcid = c.client_scid;
      init.scid = c.our_scid;
      init.packet_number = c.next_pn_initial++;
      if (ack_pending) {
        dg.add(ack_frame{c.largest_seen_initial_pn});
        ack_pending = false;
      }
      if (initial_left > 0) {
        // Header + CRYPTO framing overhead, conservatively 60 bytes.
        const std::size_t chunk = std::min(initial_left, space - 60);
        dg.add(crypto_frame{
            c.initial_sent,
            bytes_view{c.flight.server_hello}.subspan(c.initial_sent,
                                                      chunk)});
        c.initial_sent += chunk;
        ack_eliciting_initial = true;
      }
      const std::size_t init_size = dg.size();
      space = space > init_size ? space - init_size : 0;
    }

    std::size_t handshake_packets = 0;
    if (hs_left > 0 && c.initial_sent == initial_end) {
      const bool may_coalesce =
          behavior_.coalesce_levels || dg.packets().empty();
      if (may_coalesce && space > 80) {
        packet& hs = dg.open(packet_type::handshake);
        hs.dcid = c.client_scid;
        hs.scid = c.our_scid;
        hs.packet_number = c.next_pn_handshake++;
        const std::size_t overhead = 50;  // header + frame framing
        const std::size_t chunk = std::min(hs_left, space - overhead);
        dg.add(crypto_frame{
            c.handshake_sent,
            bytes_view{c.flight.handshake}.subspan(c.handshake_sent,
                                                   chunk)});
        c.handshake_sent += chunk;
        handshake_packets = 1;
      }
    }

    if (dg.packets().empty()) {
      break;  // nothing fit (shouldn't happen)
    }
    const std::size_t padding =
        ack_eliciting_initial ? dg.pad_to(behavior_.pad_target) : 0;
    if (!charge(c, dg.size(), padding, handshake_packets)) {
      if (!c.budget_blocked && !c.validated) {
        // The limit is now gating *time*, not just volume: this flight
        // stalls until the client's next datagram validates the path.
        c.budget_blocked = true;
        c.blocked_since = sim_.now();
        ++stats_.budget_blocked_flights;
      }
      // Budget exhausted: roll back the stream watermarks consumed by
      // this datagram and wait for validation.
      for (const auto& p : dg.packets()) {
        for (const auto& f : p.frames) {
          if (const auto* cf = std::get_if<crypto_frame>(&f)) {
            if (p.type == packet_type::initial) {
              c.initial_sent -= cf->data.size();
            } else {
              c.handshake_sent -= cf->data.size();
            }
          }
        }
        if (p.type == packet_type::initial) {
          --c.next_pn_initial;
        } else {
          --c.next_pn_handshake;
        }
      }
      break;
    }
    transmit(c, dg, handshake_packets);
  }
}

void server::retransmit(connection& c) {
  if (c.validated || c.done) {
    return;
  }
  if (c.retransmissions >= behavior_.max_retransmissions) {
    return;  // give up; connection idles out
  }
  ++c.retransmissions;

  // Resend everything transmitted so far (unconfirmed Initial +
  // Handshake data), as observed for real deployments.
  const std::size_t initial_sent = c.initial_sent;
  const std::size_t handshake_sent = c.handshake_sent;
  if (behavior_.limit_covers_retransmissions) {
    // Budget stays charged; re-check against the remaining allowance.
    // The sent watermarks bound the pump, so it resends exactly the
    // first flight.
    c.initial_sent = 0;
    c.handshake_sent = 0;
    pump_until(c, /*include_ack=*/false, initial_sent, handshake_sent);
    c.initial_sent = std::max(c.initial_sent, initial_sent);
    c.handshake_sent = std::max(c.handshake_sent, handshake_sent);
  } else {
    // Meta/mvfst behaviour: the limit is not applied to resends. The
    // buggy implementations flush *everything* pending on PTO — the
    // already-sent flight plus any tail the first-flight limit held
    // back — which is how 28-45x amplification factors arise (§4.3).
    c.limit_exempt = true;
    c.initial_sent = 0;
    c.handshake_sent = 0;
    pump(c, /*include_ack=*/false);
    c.limit_exempt = false;
    c.initial_sent = std::max(c.initial_sent, initial_sent);
    c.handshake_sent = std::max(c.handshake_sent, handshake_sent);
  }
  c.pto *= 2;
  arm_pto(c);
}

void server::maybe_send_app_response(connection& c, const packet& p) {
  if (c.app_response_sent) {
    return;
  }
  const stream_frame* request = nullptr;
  for (const frame& f : p.frames) {
    if (const auto* sf = std::get_if<stream_frame>(&f)) {
      request = sf;
      break;
    }
  }
  if (request == nullptr) {
    return;
  }
  c.app_response_sent = true;
  // A fixed-size response head: the timeline only needs the *first*
  // application byte, so one datagram stands in for the object. The
  // client sends its request only after the handshake completed, so
  // the path is validated and no budget applies here.
  datagram_builder dg{tx_};
  packet& resp = dg.open(packet_type::one_rtt);
  resp.dcid = c.client_scid;
  resp.packet_number = c.next_pn_app++;
  dg.add(stream_frame{request->id, 0, kResponseHead});
  transmit(c, dg, 0);
}

void server::arm_pto(connection& c) {
  c.pto_timer = ++ptos_armed_;
  // The closure holds `this` and the id, 16 bytes: std::function keeps
  // that inline, so arming a PTO allocates nothing.
  sim_.schedule(c.pto, [this, id = c.pto_timer]() {
    for (connection& conn : open_connections()) {
      if (conn.pto_timer == id) {
        retransmit(conn);
        return;
      }
    }
    // Closed or cancelled.
  });
}

}  // namespace certquic::quic
