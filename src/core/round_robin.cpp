#include "core/round_robin.hpp"

#include "common/assert.hpp"
#include "common/archive.hpp"

namespace wormsched::core {

ActiveFlowRing::ActiveFlowRing(std::size_t num_flows) : fifo_(num_flows) {}

void ActiveFlowRing::activate(FlowId flow) {
  WS_CHECK_MSG(!fifo_.contains(static_cast<std::uint32_t>(flow.index())),
               "activate of an already-active flow");
  fifo_.push_back(static_cast<std::uint32_t>(flow.index()));
}

FlowId ActiveFlowRing::take_next() {
  WS_CHECK(!fifo_.empty());
  return FlowId(fifo_.pop_front());
}

bool ActiveFlowRing::contains(FlowId flow) const {
  return fifo_.contains(static_cast<std::uint32_t>(flow.index()));
}

void ActiveFlowRing::fields(Archive& a) { fifo_.fields(a); }

PbrrScheduler::PbrrScheduler(std::size_t num_flows)
    : Scheduler(num_flows), ring_(num_flows) {}

void PbrrScheduler::on_flow_backlogged(FlowId flow) {
  // The serving flow is outside the ring while its packet streams; its
  // queue cannot be empty then, so no guard is needed here.
  ring_.activate(flow);
}

FlowId PbrrScheduler::select_next_flow(Cycle) {
  serving_ = ring_.take_next();
  return serving_;
}

void PbrrScheduler::on_packet_complete(FlowId flow, Flits, //
                                       bool queue_now_empty) {
  WS_CHECK(flow == serving_);
  if (!queue_now_empty) ring_.activate(flow);
  serving_ = FlowId::invalid();
}

void PbrrScheduler::discipline_fields(Archive& a) {
  ring_.fields(a);
  a.id("serving", serving_);
}

FbrrScheduler::FbrrScheduler(std::size_t num_flows)
    : Scheduler(num_flows), ring_(num_flows) {}

void FbrrScheduler::on_flow_backlogged(FlowId flow) { ring_.activate(flow); }

std::optional<FlitEvent> FbrrScheduler::pull_flit_impl(Cycle now) {
  const FlowId flow = ring_.take_next();
  const EmitResult r = emit_flit_from(now, flow);
  // One flit per visit: go back to the tail unless the flow just drained.
  const bool still_backlogged = !r.packet_completed || !r.queue_now_empty;
  if (still_backlogged) ring_.activate(flow);
  return r.flit;
}

FlowId FbrrScheduler::select_next_flow(Cycle) {
  WS_CHECK_MSG(false, "FBRR overrides pull_flit_impl");
  return FlowId::invalid();
}

void FbrrScheduler::on_packet_complete(FlowId, Flits, bool) {
  WS_CHECK_MSG(false, "FBRR overrides pull_flit_impl");
}

void FbrrScheduler::discipline_fields(Archive& a) { ring_.fields(a); }

}  // namespace wormsched::core
