// Synthetic network traffic patterns (the standard interconnect workloads)
// and a Bernoulli packet source that drives a Network.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/engine.hpp"
#include "traffic/length.hpp"
#include "traffic/workload.hpp"
#include "wormhole/network.hpp"

namespace wormsched::wormhole {

struct PatternSpec {
  enum class Kind {
    kUniform,        // uniformly random destination != source
    kTranspose,      // (x, y) -> (y, x)
    kBitComplement,  // node id -> ~id (mod N)
    kHotspot,        // `hotspot_fraction` of packets target `hotspot`
    kNeighbor,       // east neighbour (wraps on mesh edges)
  };
  Kind kind = Kind::kUniform;
  double hotspot_fraction = 0.5;
  NodeId hotspot{0};

  [[nodiscard]] std::string describe() const;
};

/// Picks a destination for a packet from `src` (never returns `src`; for
/// degenerate patterns that would, the next node is used).
[[nodiscard]] NodeId pick_destination(const Topology& topo,
                                      const PatternSpec& pattern, NodeId src,
                                      Rng& rng);

/// Per-node Bernoulli packet source.  Flow id == source node id, which is
/// the granularity the network fairness comparisons use.
class NetworkTrafficSource final : public sim::Component {
 public:
  struct Config {
    double packets_per_node_per_cycle = 0.01;
    traffic::LengthSpec lengths = traffic::LengthSpec::uniform(1, 16);
    PatternSpec pattern;
    Cycle inject_until = kCycleMax;
    std::uint64_t seed = 99;
    /// Optional fault injector (not owned): scales the per-node Bernoulli
    /// rate (churn/burst) and can redirect packets to a hotspot.  The RNG
    /// draw schedule is unchanged — one draw per node per cycle — so runs
    /// differing only in faults stay draw-for-draw comparable.
    const FaultModel* faults = nullptr;
  };

  NetworkTrafficSource(Network& network, const Config& config);

  void tick(Cycle now) override;
  /// Idle once every injection cycle has been ticked through.  Honest
  /// idling is what lets Engine::run_until_idle skip drained stretches
  /// without losing Bernoulli draws; a source with `inject_until` left at
  /// kCycleMax never reports idle, so bound such runs with run_until()
  /// or run_until_idle's max_cycle.
  [[nodiscard]] bool idle() const override {
    return next_cycle_ >= config_.inject_until;
  }

  [[nodiscard]] std::uint64_t generated() const { return generated_; }

  /// Checkpoint/restore: the RNG state, packet-id cursor, generated count
  /// and the next un-ticked cycle.  Restore on a source built with the
  /// same Config (the config itself travels in the checkpoint container,
  /// not here) — the restored source continues the identical draw
  /// sequence.
  void save_state(SnapshotWriter& w) const;
  void restore_state(SnapshotReader& r);

 private:
  /// One endpoint's injection answers for the cached epoch: the clamped
  /// fault-scaled Bernoulli rate and the burst redirect (invalid = none).
  struct Injection {
    double rate = 0.0;
    NodeId burst_dest = NodeId::invalid();
  };

  /// Recomputes every endpoint's Injection for the epoch containing
  /// `now` (FaultModel::injection_epoch).  Fault-free sources fill it
  /// once with the configured rate.
  void refresh_injection(Cycle now, std::uint64_t epoch);

  Network& network_;
  Config config_;
  Rng rng_;
  PacketId::rep_type next_id_ = 0;
  std::uint64_t generated_ = 0;
  Cycle next_cycle_ = 0;  // first cycle this source has not yet ticked
  // Derived per-epoch cache, never saved: a pure function of the epoch.
  std::vector<Injection> injection_;
  std::uint64_t injection_epoch_ = 0;
  bool injection_valid_ = false;
};

/// Replays an arrival trace (CSV or binary, already loaded) into a
/// Network.  Each trace entry becomes one packet: its source is endpoint
/// `flow mod num_endpoints` (flow/fairness id == source node, matching
/// NetworkTrafficSource), its length comes from the entry, and its
/// destination is drawn from `pattern` with the source's RNG — traces
/// carry *when/who/how much*, the pattern supplies *where to*, so one
/// trace can drive many topologies.
class TraceTrafficSource final : public sim::Component {
 public:
  struct Config {
    /// Not owned; must outlive the source.  Entries must be time-ordered
    /// (both trace loaders enforce this).
    const traffic::Trace* trace = nullptr;
    PatternSpec pattern;
    std::uint64_t seed = 99;
  };

  TraceTrafficSource(Network& network, const Config& config);

  void tick(Cycle now) override;
  /// Idle once the replay cursor is past the last entry.
  [[nodiscard]] bool idle() const override {
    return cursor_ >= config_.trace->entries.size();
  }

  [[nodiscard]] std::uint64_t generated() const { return generated_; }
  /// First cycle with no remaining entries (0 for an empty trace).
  [[nodiscard]] Cycle inject_until() const {
    return config_.trace->entries.empty()
               ? 0
               : config_.trace->entries.back().cycle + 1;
  }

  /// Checkpoint/restore: the RNG state, replay cursor and counters.
  /// Restore on a source built over the identical trace.
  void save_state(SnapshotWriter& w) const;
  void restore_state(SnapshotReader& r);

 private:
  Network& network_;
  Config config_;
  Rng rng_;
  std::size_t cursor_ = 0;  // next trace entry to inject
  PacketId::rep_type next_id_ = 0;
  std::uint64_t generated_ = 0;
};

}  // namespace wormsched::wormhole
