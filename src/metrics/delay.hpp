// Packet-delay statistics (paper Fig. 5).
//
// Delay is "the number of cycles between the instant [a packet] is placed
// in the queue for scheduling, to the instant its last flit is dequeued".
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/scheduler.hpp"
#include "common/flow_rows.hpp"

namespace wormsched::metrics {

class DelayStats final : public core::SchedulerObserver {
 public:
  explicit DelayStats(std::size_t num_flows);

  void on_packet_departure(Cycle now, const core::Packet& packet) override;

  [[nodiscard]] const RunningStat& overall() const { return overall_; }
  /// Per-flow delays (an empty RunningStat for a flow that has seen no
  /// departures).
  [[nodiscard]] const RunningStat& flow(FlowId flow) const;
  [[nodiscard]] double quantile(double q) const {
    return quantiles_.quantile(q);
  }
  /// Per-flow delay quantile (0 for a flow that has seen no departures,
  /// matching QuantileEstimator's empty behaviour).
  [[nodiscard]] double flow_quantile(FlowId flow, double q) const;
  [[nodiscard]] std::size_t packets() const { return overall_.count(); }

  /// Checkpoint state: the overall stat, a per-flow record table of stats
  /// (flow count checked; an empty record for a flow with no departures),
  /// the overall reservoir, the per-flow reservoir capacity (at least 1)
  /// and each sampled flow's reservoir.  Reservoirs round-trip their RNG
  /// state, so a restored run samples identically.
  void fields(Archive& a);

 private:
  // Built on a flow's first departure, reservoir included: a run with
  // 4096 flows must not pay 4096 eager reservoirs.
  struct Row {
    RunningStat stat;
    std::optional<QuantileEstimator> quantiles;
  };

  RunningStat overall_;
  QuantileEstimator quantiles_;
  // Shrinks as the flow count grows; see per_flow_capacity() for the
  // memory bound it gives.
  std::size_t flow_reservoir_capacity_;
  FlowRows<Row> per_flow_;
};

/// Composite observer: fans a scheduler's notifications out to several
/// observers (the harness attaches a ServiceLog and a DelayStats at once).
class ObserverChain final : public core::SchedulerObserver {
 public:
  void add(core::SchedulerObserver& observer) {
    observers_.push_back(&observer);
  }

  void on_packet_arrival(Cycle now, const core::Packet& p) override {
    for (auto* o : observers_) o->on_packet_arrival(now, p);
  }
  void on_flit(Cycle now, const core::FlitEvent& f) override {
    for (auto* o : observers_) o->on_flit(now, f);
  }
  void on_packet_departure(Cycle now, const core::Packet& p) override {
    for (auto* o : observers_) o->on_packet_departure(now, p);
  }

 private:
  std::vector<core::SchedulerObserver*> observers_;
};

}  // namespace wormsched::metrics
