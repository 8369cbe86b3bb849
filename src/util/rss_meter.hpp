// Peak-resident-set metering for the sharded census sweep (`certquic_scan
// outofcore` and `fig fig_outofcore_rss` meter its spill → merge path and
// the in-memory baseline): how much memory did *this phase* of the
// process actually pin, measured by the kernel rather than by counting
// our own allocations.
//
// On Linux the meter reads VmRSS / VmHWM from /proc/self/status and —
// where the kernel allows it — resets the high-water mark between
// phases by writing "5" to /proc/self/clear_refs, so consecutive
// phases report independent peaks. When the reset is unavailable the
// phase falls back to sampling VmRSS from a background thread (the
// peak of a growing phase is still captured; very short spikes may be
// missed). On systems without /proc every query returns 0 — callers
// must treat 0 as "not measurable", never as "no memory used".
#pragma once

#include <atomic>
#include <cstddef>
#include <thread>

namespace certquic {

/// Process-wide RSS queries. All sizes are in kilobytes, 0 when the
/// platform offers no measurement.
struct rss_meter {
  /// Current resident set (VmRSS).
  [[nodiscard]] static std::size_t current_kb();
  /// Lifetime peak resident set (VmHWM) — monotonic unless reset.
  [[nodiscard]] static std::size_t peak_kb();
  /// Resets the kernel high-water mark so peak_kb() reflects only what
  /// happens after this call. Returns false when unsupported.
  static bool reset_peak();

  /// Scoped per-phase peak: resets the high-water mark on construction
  /// and reports the peak observed since. Falls back to a VmRSS
  /// sampling thread when the reset is unsupported.
  class phase {
   public:
    phase();
    ~phase();
    phase(const phase&) = delete;
    phase& operator=(const phase&) = delete;

    /// Peak RSS (kB) since construction; callable repeatedly. 0 when
    /// the platform cannot measure.
    [[nodiscard]] std::size_t peak_kb() const;

   private:
    bool reset_worked_ = false;
    std::atomic<bool> stop_{false};
    std::atomic<std::size_t> sampled_peak_{0};
    std::thread sampler_;
  };
};

}  // namespace certquic
