#include "core/drr.hpp"

#include "common/assert.hpp"
#include "common/archive.hpp"

namespace wormsched::core {

DrrPolicy::DrrPolicy(const DrrConfig& config)
    : pool_(config.num_flows,
            /*initial_weight=*/static_cast<double>(config.quantum)),
      base_quantum_(config.quantum) {
  WS_CHECK(config.num_flows > 0);
  WS_CHECK_MSG(config.quantum > 0, "DRR quantum must be positive");
}

void DrrPolicy::set_weight(FlowId flow, double weight) {
  WS_CHECK_MSG(weight > 0.0, "DRR weight must be positive");
  pool_.set_weight(flow.index(), weight * static_cast<double>(base_quantum_));
}

void DrrPolicy::flow_activated(FlowId flow) {
  const auto i = static_cast<std::uint32_t>(flow.index());
  WS_CHECK(!pool_.active().contains(i));
  pool_.set_sc(i, 0.0);
  pool_.active().push_back(i);
}

FlowId DrrPolicy::begin_opportunity() {
  WS_CHECK(!in_opportunity_);
  WS_CHECK(!pool_.active().empty());
  const std::uint32_t i = pool_.active().pop_front();
  FlowStatePool::Row& row = pool_.row(i);
  row.sc += row.weight;
  in_opportunity_ = true;
  current_ = FlowId(i);
  return current_;
}

bool DrrPolicy::may_serve(Flits length) const {
  WS_CHECK(in_opportunity_);
  return static_cast<double>(length) <= pool_.sc(current_.index());
}

void DrrPolicy::charge(Flits length) {
  WS_CHECK(in_opportunity_);
  pool_.row(current_.index()).sc -= static_cast<double>(length);
}

void DrrPolicy::end_opportunity(bool still_backlogged) {
  WS_CHECK(in_opportunity_);
  const auto i = static_cast<std::uint32_t>(current_.index());
  if (still_backlogged) {
    pool_.active().push_back(i);
  } else {
    pool_.set_sc(i, 0.0);  // idle flows forfeit accumulated deficit
  }
  in_opportunity_ = false;
}

void DrrPolicy::fields(Archive& a) {
  pool_.fields(a);
  a.i64("base_quantum", base_quantum_);
  a.b("in_opportunity", in_opportunity_);
  a.id("current", current_);
  if (a.loading() && in_opportunity_ && current_.index() >= pool_.num_flows())
    a.fail("current", "serves an out-of-range flow");
}

DrrScheduler::DrrScheduler(const DrrConfig& config)
    : Scheduler(config.num_flows), policy_(config) {}

void DrrScheduler::set_weight(FlowId flow, double weight) {
  Scheduler::set_weight(flow, weight);
  policy_.set_weight(flow, weight);
}

void DrrScheduler::on_flow_backlogged(FlowId flow) {
  if (policy_.in_opportunity() && policy_.current_flow() == flow) return;
  policy_.flow_activated(flow);
}

FlowId DrrScheduler::select_next_flow(Cycle) {
  // With quantum >= Max every opportunity transmits, so this loop runs
  // once; with a small quantum a flow may need several visits before its
  // head fits (the deficit grows by one quantum per visit), hence the
  // bounded spin.
  for (;;) {
    if (!policy_.in_opportunity()) (void)policy_.begin_opportunity();
    const FlowId flow = policy_.current_flow();
    if (policy_.may_serve(head_packet_length(flow))) return flow;
    policy_.end_opportunity(/*still_backlogged=*/true);
  }
}

void DrrScheduler::on_packet_complete(FlowId flow, Flits observed_length,
                                      bool queue_now_empty) {
  WS_CHECK(policy_.in_opportunity() && policy_.current_flow() == flow);
  policy_.charge(observed_length);
  if (queue_now_empty) {
    policy_.end_opportunity(/*still_backlogged=*/false);
  } else if (!policy_.may_serve(head_packet_length(flow))) {
    policy_.end_opportunity(/*still_backlogged=*/true);
  }
}

void DrrScheduler::discipline_fields(Archive& a) { policy_.fields(a); }

}  // namespace wormsched::core
