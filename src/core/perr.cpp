#include "core/perr.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/archive.hpp"

namespace wormsched::core {

PerrScheduler::PerrScheduler(PerrConfig config)
    : Scheduler(config.num_flows),
      priority_of_(std::move(config.priority_of)) {
  if (priority_of_.empty()) priority_of_.assign(config.num_flows, 0);
  WS_CHECK_MSG(priority_of_.size() == config.num_flows,
               "priority_of must have one entry per flow");
  std::uint32_t num_classes = 0;
  for (const auto p : priority_of_) num_classes = std::max(num_classes, p + 1);
  classes_.resize(num_classes);
  for (auto& cls : classes_) {
    // Each class's ErrPolicy is sized for all flows: flow ids are global,
    // and a policy only ever touches the flows assigned to its class.
    cls.policy = std::make_unique<ErrPolicy>(
        ErrConfig{config.num_flows, config.reset_on_idle});
  }
}

void PerrScheduler::set_weight(FlowId flow, double weight) {
  Scheduler::set_weight(flow, weight);
  policy_of(flow).set_weight(flow, weight);
}

void PerrScheduler::on_flow_backlogged(FlowId flow) {
  ErrPolicy& policy = policy_of(flow);
  if (policy.in_opportunity() && policy.current_flow() == flow) return;
  policy.flow_activated(flow);
}

FlowId PerrScheduler::select_next_flow(Cycle) {
  // A class whose opportunity is still open resumes it; otherwise the
  // highest-priority class with active flows wins.  An open lower-class
  // opportunity does NOT shield it from preemption: if a higher class
  // became backlogged since, that class is served first and the lower
  // opportunity resumes afterwards (its allowance state is untouched —
  // the elastic accounting makes this safe).
  for (auto& cls : classes_) {
    ErrPolicy& policy = *cls.policy;
    if (policy.in_opportunity()) {
      // Opportunity left open => continuation legal (see
      // on_packet_complete), and the flow is still backlogged.
      return policy.current_flow();
    }
    if (policy.has_active_flows()) return policy.begin_opportunity();
  }
  WS_CHECK_MSG(false, "select with no backlogged flow");
  return FlowId::invalid();
}

void PerrScheduler::on_packet_complete(FlowId flow, Flits observed_length,
                                       bool queue_now_empty) {
  ErrPolicy& policy = policy_of(flow);
  WS_CHECK(policy.in_opportunity() && policy.current_flow() == flow);
  policy.charge(static_cast<double>(observed_length));
  if (queue_now_empty || !policy.may_continue())
    policy.end_opportunity(!queue_now_empty);
}

void PerrScheduler::discipline_fields(Archive& a) {
  const auto classes = below(static_cast<std::uint32_t>(classes_.size()));
  a.table("priority_of", priority_of_, [&a, classes](std::uint32_t& p) {
    a.u32("", p, classes);
  });
  a.table("classes", classes_,
          [&a](PriorityClass& cls) { cls.policy->fields(a); });
}

}  // namespace wormsched::core
