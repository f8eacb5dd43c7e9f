#include "core/wrr.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/archive.hpp"

namespace wormsched::core {

WrrScheduler::WrrScheduler(std::size_t num_flows)
    : Scheduler(num_flows), ring_(num_flows), packets_per_visit_(num_flows, 1) {}

void WrrScheduler::set_weight(FlowId flow, double weight) {
  Scheduler::set_weight(flow, weight);
  packets_per_visit_[flow.index()] =
      static_cast<std::uint32_t>(std::ceil(weight));
  WS_CHECK(packets_per_visit_[flow.index()] >= 1);
}

void WrrScheduler::on_flow_backlogged(FlowId flow) {
  if (flow == serving_) return;
  ring_.activate(flow);
}

FlowId WrrScheduler::select_next_flow(Cycle) {
  if (serving_.is_valid()) return serving_;  // mid-visit
  serving_ = ring_.take_next();
  remaining_this_visit_ = packets_per_visit_[serving_.index()];
  return serving_;
}

void WrrScheduler::on_packet_complete(FlowId flow, Flits, //
                                      bool queue_now_empty) {
  WS_CHECK(flow == serving_);
  WS_CHECK(remaining_this_visit_ > 0);
  --remaining_this_visit_;
  if (queue_now_empty || remaining_this_visit_ == 0) {
    if (!queue_now_empty) ring_.activate(flow);
    serving_ = FlowId::invalid();
  }
}

void WrrScheduler::discipline_fields(Archive& a) {
  ring_.fields(a);
  a.table("packets_per_visit", packets_per_visit_,
          [&a](std::uint32_t& p) { a.u32("", p); });
  a.id("serving", serving_);
  a.u32("remaining_this_visit", remaining_this_visit_);
}

}  // namespace wormsched::core
