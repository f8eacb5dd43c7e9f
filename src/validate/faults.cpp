#include "validate/faults.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"

namespace wormsched::validate {

namespace {

/// splitmix64 finalizer: the avalanche mix behind Rng's seeding, reused
/// here so fault decisions are well-distributed pure hashes.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

[[nodiscard]] std::uint64_t hash3(std::uint64_t seed, std::uint64_t kind,
                                  std::uint64_t epoch, std::uint64_t node) {
  return mix(mix(mix(seed ^ kind) ^ epoch) ^ node);
}

[[nodiscard]] double to_u01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultSpec FaultSpec::chaos(std::uint64_t seed) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = seed;
  spec.link_stall_rate = 0.10;
  spec.credit_stall_rate = 0.05;
  spec.churn_rate = 0.10;
  spec.burst_rate = 0.05;
  return spec;
}

std::string FaultSpec::describe() const {
  if (!enabled) return "faults=off";
  std::ostringstream os;
  os << "faults(seed=" << seed << " window=" << window << " link="
     << link_stall_rate << "x" << link_stall_cycles << " credit="
     << credit_stall_rate << "x" << credit_stall_cycles << " churn="
     << churn_rate << " burst=" << burst_rate << "x" << burst_multiplier
     << ")";
  return os.str();
}

ScheduledFaults::ScheduledFaults(const FaultSpec& spec) : spec_(spec) {
  WS_CHECK_MSG(spec_.window >= 1, "fault window must be >= 1 cycle");
  // Stall windows are clipped to the epoch so release cycles stay
  // monotone across epochs (the FaultModel FIFO contract).
  if (spec_.link_stall_cycles > spec_.window)
    spec_.link_stall_cycles = spec_.window;
  if (spec_.credit_stall_cycles > spec_.window)
    spec_.credit_stall_cycles = spec_.window;
  WS_CHECK(spec_.burst_multiplier >= 0.0);
}

double ScheduledFaults::u01(Kind kind, std::uint64_t epoch,
                            std::uint64_t node) const {
  return to_u01(hash3(spec_.seed, kind, epoch, node));
}

// Both stall hooks test the cheap window offset before the hash: outside
// the stall window the answer is "no stall" whatever the hash says, so
// only the first L cycles of each epoch pay for it.
bool ScheduledFaults::link_stalled(Cycle now) const {
  if (!spec_.enabled || spec_.link_stall_rate <= 0.0) return false;
  if (now % spec_.window >= spec_.link_stall_cycles) return false;
  return u01(kLink, now / spec_.window, 0) < spec_.link_stall_rate;
}

Cycle ScheduledFaults::credit_hold_cycles(Cycle now, NodeId node) const {
  if (!spec_.enabled || spec_.credit_stall_rate <= 0.0) return 0;
  // Credits arriving in the stall window [epoch_start, epoch_start + L)
  // are all released at epoch_start + L: one release point per (epoch,
  // node) keeps the quarantine FIFO ordered.
  const Cycle offset = now % spec_.window;
  if (offset >= spec_.credit_stall_cycles) return 0;
  if (u01(kCredit, now / spec_.window, node.value()) >=
      spec_.credit_stall_rate)
    return 0;
  return spec_.credit_stall_cycles - offset;
}

std::uint64_t ScheduledFaults::injection_epoch(Cycle now) const {
  return now / spec_.window;
}

double ScheduledFaults::injection_multiplier(Cycle now, NodeId node) const {
  if (!spec_.enabled) return 1.0;
  const std::uint64_t epoch = now / spec_.window;
  if (spec_.churn_rate > 0.0 &&
      u01(kChurn, epoch, node.value()) < spec_.churn_rate)
    return 0.0;
  if (spec_.burst_rate > 0.0 &&
      u01(kBurst, epoch, node.value()) < spec_.burst_rate)
    return spec_.burst_multiplier;
  return 1.0;
}

std::optional<NodeId> ScheduledFaults::burst_destination(Cycle now,
                                                         NodeId src) const {
  if (!spec_.enabled || spec_.burst_rate <= 0.0 || spec_.num_nodes == 0)
    return std::nullopt;
  const std::uint64_t epoch = now / spec_.window;
  if (u01(kBurst, epoch, src.value()) >= spec_.burst_rate)
    return std::nullopt;
  // One hotspot per epoch, shared by every bursting source — that is
  // what concentrates load and stresses the downstream arbiters.
  const std::uint64_t h = hash3(spec_.seed, kBurstDest, epoch, 0);
  return NodeId(static_cast<std::uint32_t>(h % spec_.num_nodes));
}

traffic::Trace apply_trace_faults(const FaultSpec& spec,
                                  const traffic::Trace& trace) {
  if (!spec.enabled) return trace;
  WS_CHECK(spec.window >= 1);
  traffic::Trace out;
  out.num_flows = trace.num_flows;
  out.entries.reserve(trace.entries.size());
  for (const traffic::TraceEntry& e : trace.entries) {
    const std::uint64_t epoch = e.cycle / spec.window;
    const std::uint64_t flow = e.flow.value();
    if (spec.churn_rate > 0.0 &&
        to_u01(hash3(spec.seed, 3 /*kChurn*/, epoch, flow)) < spec.churn_rate)
      continue;  // dropped: the flow churned off for this epoch
    traffic::TraceEntry jittered = e;
    if (spec.trace_jitter_max > 0) {
      const std::uint64_t h = hash3(spec.seed, 6 /*jitter*/, e.cycle, flow);
      jittered.cycle += h % (spec.trace_jitter_max + 1);
    }
    out.entries.push_back(jittered);
    if (spec.burst_rate > 0.0 &&
        to_u01(hash3(spec.seed, 4 /*kBurst*/, epoch, flow)) < spec.burst_rate)
      out.entries.push_back(jittered);  // duplicated: correlated burst
  }
  // Jitter can reorder; replay requires non-decreasing cycles.  Stable
  // sort keeps same-cycle arrival order deterministic.
  std::stable_sort(out.entries.begin(), out.entries.end(),
                   [](const traffic::TraceEntry& a,
                      const traffic::TraceEntry& b) {
                     return a.cycle < b.cycle;
                   });
  return out;
}

}  // namespace wormsched::validate
