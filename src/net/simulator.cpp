#include "net/simulator.hpp"

#include <algorithm>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace certquic::net {
namespace {

/// Marks a pooled buffer's storage unreadable while it is idle (under
/// AddressSanitizer; a no-op otherwise). A frame that still views a
/// delivered datagram then faults on its next read instead of quietly
/// reading whatever the buffer carries next.
void set_idle(const bytes& buffer, bool idle) {
#if defined(__SANITIZE_ADDRESS__)
  if (idle) {
    ASAN_POISON_MEMORY_REGION(buffer.data(), buffer.capacity());
  } else {
    ASAN_UNPOISON_MEMORY_REGION(buffer.data(), buffer.capacity());
  }
#else
  (void)buffer;
  (void)idle;
#endif
}

/// Uniform [0, 1) draw that is a pure function of (seed, seq): two
/// splitmix64 rounds over the sequence number. Quality is plenty for
/// loss decisions, and — unlike a shared RNG stream — the draw for one
/// datagram can never be perturbed by what happened to another.
double loss_draw(std::uint64_t seed, std::uint64_t seq) {
  std::uint64_t state = seed ^ (seq + 0x9e37'79b9'7f4a'7c15ULL);
  (void)splitmix64(state);
  const std::uint64_t word = splitmix64(state);
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

/// The path of an address nobody set one for.
constexpr path_config kDefaultPath{};

}  // namespace

template <typename T>
std::uint32_t simulator::slot_table<T>::park(T&& value) {
  if (free.empty()) {
    slots.push_back(std::move(value));
    return static_cast<std::uint32_t>(slots.size() - 1);
  }
  const std::uint32_t slot = free.back();
  free.pop_back();
  slots[slot] = std::move(value);
  return slot;
}

template <typename T>
T simulator::slot_table<T>::take(std::uint32_t slot) {
  T value = std::move(slots[slot]);
  free.push_back(slot);
  return value;
}

void simulator::reset(std::uint64_t loss_seed) {
  queue_.clear();
  deliveries_.clear();
  timers_.clear();
  routes_.clear();
  now_ = 0;
  next_seq_ = 0;
  stats_ = {};
  loss_seed_ = loss_seed;
  send_seq_ = 0;
}

bytes simulator::take_buffer() {
  if (pool_.empty()) {
    return {};
  }
  bytes buffer = std::move(pool_.back());
  pool_.pop_back();
  set_idle(buffer, false);
  return buffer;
}

void simulator::recycle(bytes&& payload) {
  if (payload.capacity() == 0) {
    return;
  }
  payload.clear();
  set_idle(payload, true);
  pool_.push_back(std::move(payload));
  // The largest buffer waits at the back, where take_buffer looks: it
  // beats every back it is compared with, so once recycled it stays
  // there until taken, and a probe's first send, its largest, finds it.
  const std::size_t n = pool_.size();
  if (n >= 2 && pool_[n - 1].capacity() < pool_[n - 2].capacity()) {
    std::swap(pool_[n - 1], pool_[n - 2]);
  }
}

simulator::route* simulator::find(const endpoint_id& ep) {
  for (route& r : routes_) {
    if (r.address == ep) {
      return &r;
    }
  }
  return nullptr;
}

simulator::route& simulator::route_to(const endpoint_id& ep) {
  if (route* r = find(ep)) {
    return *r;
  }
  return routes_.emplace_back(route{.address = ep});
}

void simulator::attach(const endpoint_id& ep, handler h) {
  route_to(ep).on_receive = std::move(h);
}

void simulator::detach(const endpoint_id& ep) {
  if (route* r = find(ep)) {
    r->on_receive = nullptr;
  }
}

void simulator::set_path_to(const endpoint_id& dst, const path_config& path) {
  route_to(dst).path = path;
}

void simulator::push(time_point at, event_kind kind, std::uint32_t slot) {
  queue_.push_back(event{at, next_seq_++, slot, kind});
  std::push_heap(queue_.begin(), queue_.end(), event_later{});
}

void simulator::fire_next() {
  // Pop before running: a handler or timer may push events.
  std::pop_heap(queue_.begin(), queue_.end(), event_later{});
  const event ev = queue_.back();
  queue_.pop_back();
  now_ = ev.at;
  if (ev.kind == event_kind::timer) {
    timers_.take(ev.slot)();
  } else {
    datagram d = deliveries_.take(ev.slot);
    deliver(d);
    // The handler has returned, so nothing views the payload any more.
    recycle(std::move(d.payload));
  }
}

void simulator::deliver(const datagram& d) {
  route* r = find(d.dst);
  if (r == nullptr || !r->on_receive) {
    ++stats_.dropped_unroutable;
    return;
  }
  ++stats_.delivered;
  r->on_receive(d);
}

void simulator::send(datagram d) {
  // An address without a record takes the default path, which has no
  // bandwidth cap and so needs no link horizon.
  route* r = find(d.dst);
  const path_config& path = r != nullptr ? r->path : kDefaultPath;
  // Every send consumes one sequence number, whatever its fate, so the
  // per-seq loss draws below stay aligned across config changes.
  const std::uint64_t seq = send_seq_++;
  if (d.payload.size() > path.udp_capacity()) {
    // QUIC sets DF; an oversize datagram is dropped, not fragmented.
    ++stats_.dropped_oversize;
    recycle(std::move(d.payload));
    return;
  }
  // Bandwidth serialization: the datagram departs once the link frees
  // up and occupies it for its transmit time; an uncapped path departs
  // instantly (the historical behaviour).
  time_point depart = now_;
  if (path.bandwidth_bps > 0) {
    const std::uint64_t bits =
        static_cast<std::uint64_t>(d.payload.size()) * 8;
    const duration serialize =
        (bits * 1'000'000 + path.bandwidth_bps - 1) / path.bandwidth_bps;
    depart = std::max(now_, r->link_free_at) + serialize;
    r->link_free_at = depart;
  }
  if (path.loss_rate > 0.0 &&
      loss_draw(loss_seed_, seq) < path.loss_rate) {
    ++stats_.dropped_loss;
    recycle(std::move(d.payload));
    return;
  }
  push(depart + path.one_way_delay, event_kind::delivery,
       deliveries_.park(std::move(d)));
}

void simulator::schedule(duration delay, timer_fn fn) {
  push(now_ + delay, event_kind::timer, timers_.park(std::move(fn)));
}

std::size_t simulator::run(std::size_t max_events) {
  std::size_t processed = 0;
  while (!queue_.empty() && processed < max_events) {
    fire_next();
    ++processed;
  }
  return processed;
}

std::size_t simulator::run_until(time_point deadline, std::size_t max_events) {
  std::size_t processed = 0;
  while (!queue_.empty() && processed < max_events &&
         queue_.front().at <= deadline) {
    fire_next();
    ++processed;
  }
  // Clamp forward only when everything up to the deadline has fired.
  // An exit on max_events leaves events at <= deadline queued; jumping
  // now_ past them would make a later run fire them with at < now_ —
  // virtual time running backwards.
  if (now_ < deadline && (queue_.empty() || queue_.front().at > deadline)) {
    now_ = deadline;
  }
  return processed;
}

}  // namespace certquic::net
