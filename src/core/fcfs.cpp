#include "core/fcfs.hpp"

#include "common/assert.hpp"
#include "common/archive.hpp"

namespace wormsched::core {

FcfsScheduler::FcfsScheduler(std::size_t num_flows) : Scheduler(num_flows) {}

void FcfsScheduler::on_flow_backlogged(FlowId) {}

void FcfsScheduler::on_packet_enqueued(Cycle, FlowId flow, Flits) {
  arrival_order_.push_back(flow);
}

FlowId FcfsScheduler::select_next_flow(Cycle) {
  WS_CHECK(!arrival_order_.empty());
  return arrival_order_.pop_front();
}

void FcfsScheduler::on_packet_complete(FlowId, Flits, bool) {}

void FcfsScheduler::discipline_fields(Archive& a) {
  a.seq("arrival_order", arrival_order_,
        [&a](FlowId& flow) { a.id("", flow); });
}

}  // namespace wormsched::core
