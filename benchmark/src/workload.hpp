// The benchmark's workloads and what one repetition of each reports.
//
// Every workload runs the same library entry points its CLI subcommand
// calls (untraced), and a traced twin that wires the same public pieces
// itself so spans can sit at each layer boundary.  Both report a digest
// of the simulated results; the traced twin must reproduce it exactly.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "metrics/perf_counters.hpp"
#include "tracer.hpp"

namespace wsbench {

/// FNV-1a over 64-bit words: the simulated-result digest.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  /// The bit pattern, not a rounding.
  void add_double(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// One untraced repetition.
struct RepResult {
  // Set-up time of this repetition; the reported setup_s comes from
  // Workload::setup_probe.
  double setup_s = 0.0;
  double run_s = 0.0;    // first simulated cycle to finish()
  std::uint64_t flits = 0;      // delivered (fabric) or served (replay)
  std::uint64_t attempted = 0;  // packets injected
  std::uint64_t failed = 0;     // packets or checks failing the gate
  std::vector<std::string> failures;  // one line per failed check
  std::uint64_t digest = 0;
  wormsched::Cycle sim_cycles = 0;
  double latency_mean = 0.0;  // simulated cycles
  std::optional<double> latency_p99;  // simulated cycles, if reported
};

/// Per-layer work counts a traced repetition adds to (the denominators
/// of the per-layer metrics).
struct LayerCounts {
  std::uint64_t cycles = 0;
  std::uint64_t flits = 0;
  std::uint64_t flit_hops = 0;
  std::uint64_t live_router_sum = 0;
  std::uint64_t network_ticks = 0;
  std::uint64_t activity_records = 0;
  std::uint64_t activity_changes = 0;
  std::uint64_t decoded_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t restores = 0;
  std::uint64_t full_rescans = 0;
};

/// A workload owns the files it writes and removes them when destroyed.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Untimed input generation in `workdir` (the trace file for replay).
  virtual void prepare(std::uint64_t seed, const std::string& workdir) = 0;
  virtual RepResult run(std::uint64_t seed) = 0;
  /// The traced twin of run(); returns the same RepResult (its timings
  /// include tracing) and adds to `counts`.
  virtual RepResult run_traced(std::uint64_t seed, Tracer& tracer,
                               LayerCounts& counts) = 0;
  /// One set-up measurement in seconds, outside any repetition: what the
  /// workload does from its start to its first simulated cycle.
  virtual double setup_probe(std::uint64_t seed) = 0;
  /// Runs once with the network's per-stage counters attached and
  /// returns the wall time in seconds; nullopt for workloads without a
  /// fabric.
  virtual std::optional<double> run_stage_pass(
      std::uint64_t seed, wormsched::metrics::PerfCounters& counters) = 0;
};

/// The workload names, in the order the combined run executes them.
[[nodiscard]] const std::vector<std::string>& workload_names();
/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

std::unique_ptr<Workload> make_replay_workload();
std::unique_ptr<Workload> make_fabric_workload(bool hotspot_audit);
std::unique_ptr<Workload> make_soak_workload();

}  // namespace wsbench
