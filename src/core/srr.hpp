// Surplus Round Robin (SRR) — the other O(1) discipline that can run in a
// wormhole switch.
//
// SRR (folklore variant of DRR, analysed e.g. by Adiseshu, Parulkar &
// Varghese for packet striping) gives each flow a fixed quantum per round
// and lets the deficit counter go *negative*: a flow keeps starting
// packets while its counter is positive, and the final packet's overshoot
// is charged against future rounds.  Like ERR — and unlike DRR — the
// decision to start a packet never needs the packet's length, so SRR is
// wormhole-deployable.
//
// The contrast with ERR is the point of the A6 ablation: SRR's quantum is
// a *fixed* configuration constant, so its per-round imbalance (and its
// latency) scales with the configured quantum even when actual packets
// are small, whereas ERR's allowance adapts to the surpluses that
// actually occurred (its fairness tracks m, the largest packet that
// actually arrived).
#pragma once

#include <cstddef>
#include <string_view>

#include "common/types.hpp"
#include "core/flow_state_pool.hpp"
#include "core/scheduler.hpp"

namespace wormsched::core {

struct SrrConfig {
  std::size_t num_flows = 0;
  /// Quantum added to a flow's credit each time it is visited.  For
  /// work-conservation it should be >= 1; fairness degrades as
  /// max(quantum, m) grows.
  Flits quantum = 64;
};

class SrrScheduler final : public Scheduler {
 public:
  explicit SrrScheduler(const SrrConfig& config);

  [[nodiscard]] std::string_view name() const override { return "SRR"; }
  void set_weight(FlowId flow, double weight) override;

  /// Introspection for tests: the flow's running credit (may be negative).
  [[nodiscard]] double credit(FlowId flow) const {
    return pool_.sc(flow.index());
  }

 protected:
  void on_flow_backlogged(FlowId flow) override;
  FlowId select_next_flow(Cycle now) override;
  void on_packet_complete(FlowId flow, Flits observed_length,
                          bool queue_now_empty) override;
  void discipline_fields(Archive& a) override;

 private:
  // SoA rows: sc column = running credit, weight column = quantum.
  FlowStatePool pool_;
  double base_quantum_ = 0.0;
  bool in_opportunity_ = false;
  FlowId current_;
};

}  // namespace wormsched::core
