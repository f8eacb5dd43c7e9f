// Per-stage perf counters for the simulation kernel.
//
// Answers "where do the wall-clock cycles go?" for one network tick:
// wire delivery, NIC injection, the router pipeline stages (RC, VA +
// occupancy charging, SA/ST) and the cycle-end observer each accumulate
// timestamp-counter ticks while a PerfCounters sink is attached.
//
// Cost model:
//   * no sink attached (the default at runtime) — one pointer test per
//     stage;
//   * sink attached — two timestamp reads per stage, paid only by the
//     instrumented run bench_perf_kernel uses for the stage breakdown,
//     never by the timed comparison runs.
//
// Counts are raw TSC ticks (x86 rdtsc / arm cntvct), not cycles of any
// fixed frequency: compare shares within one run, not ticks across
// machines.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace wormsched::metrics {

enum class Stage : std::uint8_t {
  kWireDelivery = 0,  // flit + credit delivery (incl. quarantine release)
  kNicInject,         // source-NIC flit injection
  kRouteCompute,      // RC: routing fresh head flits, raising requests
  kVcAlloc,           // VA: output binding + batched occupancy charging
  kSwitchTraversal,   // SA/ST: per-port flit movement + tail handling
  kObserver,          // cycle-end observer (auditors)
};
inline constexpr std::size_t kNumStages = 6;

[[nodiscard]] inline const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kWireDelivery: return "wire_delivery";
    case Stage::kNicInject: return "nic_inject";
    case Stage::kRouteCompute: return "route_compute";
    case Stage::kVcAlloc: return "vc_alloc";
    case Stage::kSwitchTraversal: return "switch_traversal";
    case Stage::kObserver: return "observer";
  }
  return "?";
}

[[nodiscard]] inline std::uint64_t now_ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

class PerfCounters {
 public:
  struct StageTotal {
    std::uint64_t ticks = 0;  // accumulated timestamp-counter ticks
    std::uint64_t calls = 0;  // scoped-timer activations
  };

  void add(Stage s, std::uint64_t ticks) {
    StageTotal& t = totals_[static_cast<std::size_t>(s)];
    t.ticks += ticks;
    ++t.calls;
  }

  [[nodiscard]] const StageTotal& total(Stage s) const {
    return totals_[static_cast<std::size_t>(s)];
  }

  [[nodiscard]] std::uint64_t grand_total_ticks() const {
    std::uint64_t sum = 0;
    for (const StageTotal& t : totals_) sum += t.ticks;
    return sum;
  }

  void reset() { totals_ = {}; }

 private:
  std::array<StageTotal, kNumStages> totals_{};
};

/// RAII stage timer: times its scope into `counters` when one is attached.
class ScopedStageTimer {
 public:
  ScopedStageTimer(PerfCounters* counters, Stage stage)
      : counters_(counters), stage_(stage) {
    if (counters_ != nullptr) start_ = now_ticks();
  }
  ~ScopedStageTimer() {
    if (counters_ != nullptr) counters_->add(stage_, now_ticks() - start_);
  }
  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  PerfCounters* counters_;
  Stage stage_;
  std::uint64_t start_ = 0;
};

}  // namespace wormsched::metrics
