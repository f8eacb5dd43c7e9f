#include "core/wf2q.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/archive.hpp"

namespace wormsched::core {

Wf2qPlusScheduler::Wf2qPlusScheduler(std::size_t num_flows)
    : Scheduler(num_flows),
      flows_(num_flows),
      pending_lengths_(num_flows),
      total_weight_(static_cast<double>(num_flows)) {}

void Wf2qPlusScheduler::set_weight(FlowId flow, double w) {
  total_weight_ += w - weight(flow);
  Scheduler::set_weight(flow, w);
}

void Wf2qPlusScheduler::install_head(FlowId flow, Flits length) {
  FlowState& state = flows_[flow.index()];
  WS_CHECK(!state.has_head);
  state.head_start = std::max(virtual_time_, state.last_finish);
  // F = S + L / share, with share = w_i / total weight; virtual time
  // advances by raw work (one unit per flit), so the share normalization
  // lives in the finish increment.
  state.head_finish = state.head_start + static_cast<double>(length) *
                                             total_weight_ / weight(flow);
  state.has_head = true;
  ++state.epoch;
  waiting_.push(
      HeapEntry{state.head_start, next_sequence_++, state.epoch, flow});
}

void Wf2qPlusScheduler::on_packet_enqueued(Cycle, FlowId flow, Flits length) {
  pending_lengths_[flow.index()].push_back(length);
  // The packet becomes the flow's head only if the flow had nothing queued
  // and nothing in service.
  if (pending_lengths_[flow.index()].size() == 1 && serving_ != flow)
    install_head(flow, length);
}

void Wf2qPlusScheduler::drop_stale(Heap& heap) {
  while (!heap.empty() && entry_stale(heap.top())) heap.pop();
}

void Wf2qPlusScheduler::promote_eligible() {
  for (;;) {
    drop_stale(waiting_);
    if (waiting_.empty()) break;
    const HeapEntry top = waiting_.top();
    if (top.key > virtual_time_) break;
    waiting_.pop();
    const FlowState& state = flows_[top.flow.index()];
    eligible_.push(
        HeapEntry{state.head_finish, next_sequence_++, top.epoch, top.flow});
  }
}

FlowId Wf2qPlusScheduler::select_next_flow(Cycle) {
  // V <- max(V + work, min start among backlogged heads).  The min-start
  // clamp only matters when no head is eligible; otherwise min S <= V.
  virtual_time_ += pending_work_;
  pending_work_ = 0.0;
  promote_eligible();
  drop_stale(eligible_);
  if (eligible_.empty()) {
    drop_stale(waiting_);
    WS_CHECK_MSG(!waiting_.empty(), "select with no backlogged flow");
    virtual_time_ = std::max(virtual_time_, waiting_.top().key);
    promote_eligible();
    drop_stale(eligible_);
  }
  WS_CHECK(!eligible_.empty());
  const HeapEntry chosen = eligible_.top();
  eligible_.pop();
  FlowState& state = flows_[chosen.flow.index()];
  state.has_head = false;  // the head is now in service
  ++state.epoch;
  serving_ = chosen.flow;
  return chosen.flow;
}

void Wf2qPlusScheduler::on_packet_complete(FlowId flow, Flits observed_length,
                                           bool queue_now_empty) {
  WS_CHECK(flow == serving_);
  serving_ = FlowId::invalid();
  FlowState& state = flows_[flow.index()];
  state.last_finish = state.head_finish;
  pending_work_ += static_cast<double>(observed_length);
  auto& lengths = pending_lengths_[flow.index()];
  (void)lengths.pop_front();
  WS_CHECK(lengths.empty() == queue_now_empty);
  if (!queue_now_empty) install_head(flow, lengths.front());
}

void Wf2qPlusScheduler::discipline_fields(Archive& a) {
  a.table("flows", flows_, [&a](FlowState& f) {
    a.f64("last_finish", f.last_finish);
    a.f64("head_start", f.head_start);
    a.f64("head_finish", f.head_finish);
    a.u64("epoch", f.epoch);
    a.b("has_head", f.has_head);
  });
  a.each("pending_lengths", pending_lengths_,
         [&a](RingBuffer<Flits>& lengths) {
           a.seq("", lengths, [&a](Flits& x) { a.i64("", x); });
         });
  // Heaps keep their stale entries (epoch mismatch): dropping them lazily
  // is part of the observable algorithm.
  const auto flows = below(static_cast<FlowId::rep_type>(flows_.size()));
  const auto entry = [&a, flows](HeapEntry& e) {
    a.f64("key", e.key);
    a.u64("sequence", e.sequence);
    a.u64("epoch", e.epoch);
    a.id("flow", e.flow, flows);
  };
  a.heap("eligible", eligible_, entry);
  a.heap("waiting", waiting_, entry);
  a.f64("virtual_time", virtual_time_);
  a.f64("pending_work", pending_work_);
  a.f64("total_weight", total_weight_);
  a.u64("next_sequence", next_sequence_);
  a.id("serving", serving_);
}

}  // namespace wormsched::core
