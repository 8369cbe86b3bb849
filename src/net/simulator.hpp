// Deterministic discrete-event network simulator.
//
// A single event queue drives datagram deliveries and endpoint timers.
// An event is a small, trivially copyable record (time, sequence
// number, kind, slot) on a binary heap; its datagram or timer waits in
// a slot table the simulator owns until the event fires, so the heap
// never moves a payload or a callback. Events fire in (time, sequence)
// order: equal times fire first in, first out.
// Paths model one-way delay, random loss, an IP MTU (QUIC forbids
// fragmentation, so oversize datagrams are silently dropped — this is
// what breaks reachability behind encapsulating load balancers, §4.1),
// optional per-destination encapsulation overhead, and an optional
// bottleneck bandwidth: datagrams serialize onto the path one after
// another, so a burst spreads out in time instead of arriving as one
// instant (the time-domain model behind the TTFB studies).
//
// Spoofing falls out of the design: a sender may stamp any source
// address; replies are routed to whoever owns that address (a telescope,
// §4.3) or to nobody.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "net/time.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace certquic::net {

/// One UDP datagram in flight.
struct datagram {
  endpoint_id src;
  endpoint_id dst;
  bytes payload;
};

/// Per-destination path properties.
struct path_config {
  /// IP MTU; the usable UDP payload is mtu - 28 (IPv4 + UDP headers).
  std::size_t mtu = 1500;
  duration one_way_delay = milliseconds(10);
  /// Independent per-datagram loss probability.
  double loss_rate = 0.0;
  /// Extra bytes added by tunnel encapsulation in front of the load
  /// balancer; they count against the MTU but are stripped before
  /// delivery (the receiver never sees them).
  std::size_t encapsulation_overhead = 0;
  /// Bottleneck bandwidth in bits per second; 0 = unconstrained (every
  /// datagram departs instantly, the historical behaviour all goldens
  /// are captured under). When set, each datagram occupies the link for
  /// its serialization time and later datagrams queue behind it.
  std::uint64_t bandwidth_bps = 0;

  /// Largest UDP payload this path can carry without fragmentation.
  [[nodiscard]] std::size_t udp_capacity() const noexcept {
    const std::size_t headers = 28 + encapsulation_overhead;
    return mtu > headers ? mtu - headers : 0;
  }
};

/// A named symmetric network regime for time-domain studies: both
/// directions of a probe share the same loss rate and bottleneck
/// bandwidth, and the RTT splits evenly into two one-way delays. The
/// default reproduces the historical simulator setup (10 ms each way,
/// no loss, no bandwidth cap), so plans that never set a condition stay
/// bit-identical.
struct network_condition {
  std::string name = "ideal";
  duration rtt = milliseconds(20);
  double loss_rate = 0.0;
  std::uint64_t bandwidth_bps = 0;  // 0 = unconstrained

  /// Applies this condition to a path_config (delay is one direction's
  /// share of the RTT; MTU/encapsulation are left to the caller).
  void apply_to(path_config& path) const {
    path.one_way_delay = rtt / 2;
    path.loss_rate = loss_rate;
    path.bandwidth_bps = bandwidth_bps;
  }
};

/// Delivery/drop counters, per simulator.
struct traffic_stats {
  std::uint64_t delivered = 0;
  std::uint64_t dropped_oversize = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_unroutable = 0;
};

/// The event-driven fabric. It keeps one record per address it has
/// heard of: the receive handler attached there (if any), the path
/// datagrams to it take, and that path's link-busy horizon. A world
/// holds a handful of addresses (a probe two, a backscatter world
/// under a hundred), so the table is a vector found by scan. `send`
/// schedules delivery after the path delay; `schedule` arms arbitrary
/// timers (QUIC PTO). `run` drains events in time order.
///
/// A handler may send and schedule, but must not attach, detach or set
/// a path: those may move or destroy the running handler.
///
/// Payload storage is recycled: once a datagram is delivered or
/// dropped its buffer waits in a pool, and `take_buffer` hands it to
/// the next sender, the largest buffer first whenever it is pooled.
/// The pool has no cap: while every sender takes its buffer from
/// `take_buffer`, as the QUIC endpoints do, it never holds more buffers
/// than were out at once. Under AddressSanitizer a pooled
/// buffer is poisoned while it waits, so a view that outlives its
/// delivery still faults.
class simulator {
 public:
  /// Room for a probe's two addresses and its pending events is made up
  /// front instead of growing step by step.
  explicit simulator(std::uint64_t loss_seed = 0x105e'5eedULL)
      : loss_seed_(loss_seed) {
    routes_.reserve(2);
    queue_.reserve(kEventRoom);
    deliveries_.reserve(kEventRoom);
    timers_.reserve(kEventRoom);
  }

  /// Returns to the state `simulator{loss_seed}` starts in: time 0, no
  /// event, no address, zero counters. Only storage is kept: the
  /// capacity of the event heap, its slot tables and the address table,
  /// and the payload pool.
  /// Endpoints attached before must be reset or destroyed too (they
  /// reattach through their own reset).
  void reset(std::uint64_t loss_seed);

  /// An empty buffer for a datagram payload: the storage of one already
  /// delivered or dropped when the pool has one (the largest pooled
  /// buffer when it is back in the pool), else a new vector.
  [[nodiscard]] bytes take_buffer();

  using handler = std::function<void(const datagram&)>;
  using timer_fn = std::function<void()>;

  /// Registers (or replaces) the receive handler for an endpoint.
  void attach(const endpoint_id& ep, handler h);
  /// Removes an endpoint's handler; datagrams to it become unroutable.
  /// Its path stays set.
  void detach(const endpoint_id& ep);

  /// Sets the path used for datagrams addressed *to* `dst` (a default
  /// path_config until set), whether or not a handler is attached.
  void set_path_to(const endpoint_id& dst, const path_config& path);

  /// Sends a datagram; applies MTU check, loss and delay. The source
  /// address is taken from the datagram and is NOT validated — spoofing
  /// is allowed by design.
  void send(datagram d);

  /// Arms a timer.
  void schedule(duration delay, timer_fn fn);

  /// Current virtual time.
  [[nodiscard]] time_point now() const noexcept { return now_; }

  /// Runs until the queue is empty or `max_events` fired.
  /// Returns the number of events processed.
  std::size_t run(std::size_t max_events = 10'000'000);

  /// Runs until the queue is empty or virtual time would pass
  /// `deadline`. `now()` advances to `deadline` only when every event
  /// up to it has fired; an exit on `max_events` leaves `now()` at the
  /// last processed event so a later run never fires events in the
  /// past (virtual time is monotonic).
  std::size_t run_until(time_point deadline,
                        std::size_t max_events = 10'000'000);

  [[nodiscard]] const traffic_stats& stats() const noexcept { return stats_; }

 private:
  enum class event_kind : std::uint8_t { delivery, timer };
  /// A queued event: a small, trivially copyable record, so the heap
  /// moves 24 bytes per step. Its datagram or timer waits in `slot` of
  /// the table its kind names.
  struct event {
    time_point at;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    std::uint32_t slot;
    event_kind kind;
  };
  struct event_later {
    bool operator()(const event& a, const event& b) const noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  /// Values that wait for their event, by slot, and the slots free for
  /// reuse. A slot is freed when its event fires, so a table holds no
  /// more entries than were pending at once.
  template <typename T>
  struct slot_table {
    std::vector<T> slots;
    std::vector<std::uint32_t> free;

    void reserve(std::size_t n) {
      slots.reserve(n);
      free.reserve(n);
    }
    /// Parks `value` and returns its slot.
    std::uint32_t park(T&& value);
    /// Moves the value out of `slot` and frees the slot.
    T take(std::uint32_t slot);
    void clear() noexcept {
      slots.clear();
      free.clear();
    }
  };

  /// Everything the simulator knows about one address.
  struct route {
    endpoint_id address;
    handler on_receive{};  // empty: datagrams here are unroutable
    path_config path{};
    /// Link-busy horizon for bandwidth serialization on `path`.
    time_point link_free_at = 0;
  };

  /// The record of `ep`, or null.
  [[nodiscard]] route* find(const endpoint_id& ep);
  /// The record of `ep`, appended with a default path if new.
  route& route_to(const endpoint_id& ep);

  /// Events a probe has pending at once, with room to spare: a server
  /// burst in flight, the client's ACK and give-up timers and a PTO.
  static constexpr std::size_t kEventRoom = 8;

  void push(time_point at, event_kind kind, std::uint32_t slot);
  /// Returns a payload's storage to the pool.
  void recycle(bytes&& payload);
  /// Pops the earliest event, advances `now_` to it and runs it. Its
  /// datagram or timer is moved out of its slot before it runs, since
  /// the handler or timer may park more, and is never copied.
  void fire_next();
  /// Hands a datagram to its destination's handler, or counts it
  /// unroutable.
  void deliver(const datagram& d);

  time_point now_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Binary heap under event_later (std::push_heap/pop_heap): the front
  /// is the earliest (at, seq).
  std::vector<event> queue_;
  slot_table<datagram> deliveries_;
  slot_table<timer_fn> timers_;
  std::vector<route> routes_;
  /// Idle payload buffers, empty but with their capacity.
  std::vector<bytes> pool_;
  traffic_stats stats_{};
  /// Loss is drawn as a pure hash of (loss_seed_, send sequence
  /// number), not from a shared RNG stream: whether datagram N is lost
  /// depends only on N, so path-config changes (MTU, encapsulation)
  /// that alter *other* datagrams' fates cannot cascade into the loss
  /// pattern of the rest of the run.
  std::uint64_t loss_seed_;
  std::uint64_t send_seq_ = 0;
};

}  // namespace certquic::net
