// Prioritized Elastic Round Robin (PERR) — the priority-class extension
// the ERR line of work develops after the IPDPS paper (Kanhere & Sethu's
// follow-up on scheduling with delay classes).
//
// Flows are assigned to strict priority classes; each class runs its own
// ERR state machine over the flows it contains.  At every packet boundary
// the scheduler serves the highest-priority class with a backlogged flow,
// so latency-sensitive classes preempt (at packet granularity — wormhole
// packets are never interleaved) while fairness *within* each class keeps
// all of ERR's guarantees.  Work complexity stays O(1) in the number of
// flows (the class scan is O(#classes), a small constant).
//
// This is an extension beyond the paper's evaluation; bench
// bench_ablation_weighted and the unit tests exercise it.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "core/err.hpp"
#include "core/scheduler.hpp"

namespace wormsched::core {

struct PerrConfig {
  std::size_t num_flows = 0;
  /// priority_of[flow] = class index; 0 is the highest priority.  Empty
  /// puts every flow in class 0 (plain ERR).
  std::vector<std::uint32_t> priority_of;
  bool reset_on_idle = false;
};

class PerrScheduler final : public Scheduler {
 public:
  /// Takes the config by value: the priority map is moved in, not copied.
  explicit PerrScheduler(PerrConfig config);

  [[nodiscard]] std::string_view name() const override { return "PERR"; }
  void set_weight(FlowId flow, double weight) override;

  [[nodiscard]] std::size_t num_classes() const { return classes_.size(); }
  [[nodiscard]] std::uint32_t priority_of(FlowId flow) const {
    return priority_of_[flow.index()];
  }

 protected:
  void on_flow_backlogged(FlowId flow) override;
  FlowId select_next_flow(Cycle now) override;
  void on_packet_complete(FlowId flow, Flits observed_length,
                          bool queue_now_empty) override;
  void discipline_fields(Archive& a) override;

 private:
  struct PriorityClass {
    std::unique_ptr<ErrPolicy> policy;
  };

  [[nodiscard]] ErrPolicy& policy_of(FlowId flow) {
    return *classes_[priority_of_[flow.index()]].policy;
  }

  std::vector<std::uint32_t> priority_of_;
  std::vector<PriorityClass> classes_;
};

}  // namespace wormsched::core
