#include "core/timestamp.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/archive.hpp"

namespace wormsched::core {

TimestampScheduler::TimestampScheduler(std::size_t num_flows)
    : Scheduler(num_flows), in_heap_(num_flows) {}

void TimestampScheduler::push_candidate(FlowId flow) {
  WS_CHECK(!in_heap_.test(flow.index()));
  WS_CHECK(flow_backlogged(flow));
  heap_.push(HeapEntry{queue_head_stamp(flow), next_sequence_++, flow});
  in_heap_.set(flow.index());
}

void TimestampScheduler::on_packet_enqueued(Cycle now, FlowId flow,
                                            Flits length) {
  WS_CHECK_MSG(length > 0, "timestamp disciplines need a-priori lengths");
  // This hook runs after the base pushed the packet, so the queue holds
  // exactly one packet iff the flow was idle.
  const bool was_empty = queue_length(flow) == 1;
  // Stamps are per-flow monotone (each rule takes max with the flow's last
  // finish), so FIFO order within the flow equals stamp order.
  queue_set_tail_stamp(flow, stamp(now, flow, length));
  if (was_empty) {
    ++backlogged_flows_;
    if (serving_ != flow) push_candidate(flow);
  }
}

FlowId TimestampScheduler::select_next_flow(Cycle) {
  WS_CHECK(!heap_.empty());
  const HeapEntry entry = heap_.top();
  heap_.pop();
  in_heap_.clear(entry.flow.index());
  serving_ = entry.flow;
  on_service_start(entry.flow, entry.tag);
  return entry.flow;
}

void TimestampScheduler::on_packet_complete(FlowId flow, Flits,
                                            bool queue_now_empty) {
  WS_CHECK(flow == serving_);
  serving_ = FlowId::invalid();
  // The served packet's stamp was recycled with its queue node; the next
  // head's stamp (if any) is already in place.
  if (!queue_now_empty) {
    push_candidate(flow);
  } else {
    WS_CHECK(backlogged_flows_ > 0);
    --backlogged_flows_;
    if (backlogged_flows_ == 0) on_all_idle();
  }
}

void TimestampScheduler::discipline_fields(Archive& a) {
  // The stamps as per-flow sequences that mirror the packet queues (the
  // base section restored those first, and the stamps write straight
  // back into the queue nodes, so the counts must agree), then one heap
  // membership bool per flow.
  const std::size_t n = num_flows();
  {
    const Archive::Scope s = a.scope("stamps");
    a.fingerprint<std::uint64_t>("count", n);
  }
  for (std::size_t f = 0; f < n; ++f) {
    const Archive::Scope s = a.scope("stamps", f);
    const FlowId flow(static_cast<FlowId::rep_type>(f));
    const std::size_t count = queue_length(flow);
    a.fingerprint<std::uint64_t>("count", count);
    std::uint64_t k = 0;
    const auto stamp = [&a, &k](double x) {
      const Archive::Scope e = a.scope("", k++);
      a.f64("", x);
      return x;
    };
    if (a.saving())
      queue_for_each_stamp(flow, stamp);
    else
      queue_assign_stamps(flow, count, [&stamp] { return stamp(0.0); });
  }
  if (a.loading()) in_heap_.clear_all();
  for (std::size_t f = 0; f < n; ++f) {
    const Archive::Scope s = a.scope("in_heap", f);
    bool in = a.saving() && in_heap_.test(f);
    a.b("", in);
    if (a.loading() && in) in_heap_.set(f);
  }
  const auto flows = below(static_cast<FlowId::rep_type>(n));
  a.heap(
      "heap", heap_,
      [&a, flows](HeapEntry& e) {
        a.f64("tag", e.tag);
        a.u64("sequence", e.sequence);
        a.id("flow", e.flow, flows);
      },
      n);
  a.u64("next_sequence", next_sequence_);
  a.size("backlogged_flows", backlogged_flows_);
  a.id("serving", serving_);
  stamping_fields(a);
}

ScfqScheduler::ScfqScheduler(std::size_t num_flows)
    : TimestampScheduler(num_flows), last_finish_(num_flows, 0.0) {}

double ScfqScheduler::stamp(Cycle, FlowId flow, Flits length) {
  const double finish =
      std::max(virtual_time_, last_finish_[flow.index()]) +
      static_cast<double>(length) / weight(flow);
  last_finish_[flow.index()] = finish;
  return finish;
}

void ScfqScheduler::on_service_start(FlowId, double tag) {
  virtual_time_ = tag;
}

void ScfqScheduler::on_all_idle() {
  // Golestani's reset rule: when the system drains, virtual time and all
  // flow histories restart from zero.
  virtual_time_ = 0.0;
  for (auto& f : last_finish_) f = 0.0;
}

void ScfqScheduler::stamping_fields(Archive& a) {
  a.f64("virtual_time", virtual_time_);
  a.doubles("last_finish", last_finish_, num_flows());
}

StfqScheduler::StfqScheduler(std::size_t num_flows)
    : TimestampScheduler(num_flows), last_finish_(num_flows, 0.0) {}

double StfqScheduler::stamp(Cycle, FlowId flow, Flits length) {
  // Serve by virtual start time: S = max(v, F_prev); the finish
  // F = S + L/w only updates the flow's own history.
  const double start = std::max(virtual_time_, last_finish_[flow.index()]);
  last_finish_[flow.index()] =
      start + static_cast<double>(length) / weight(flow);
  return start;
}

void StfqScheduler::on_service_start(FlowId, double tag) {
  virtual_time_ = tag;
}

void StfqScheduler::on_all_idle() {
  virtual_time_ = 0.0;
  for (auto& f : last_finish_) f = 0.0;
}

void StfqScheduler::stamping_fields(Archive& a) {
  a.f64("virtual_time", virtual_time_);
  a.doubles("last_finish", last_finish_, num_flows());
}

VirtualClockScheduler::VirtualClockScheduler(std::size_t num_flows)
    : TimestampScheduler(num_flows),
      aux_vc_(num_flows, 0.0),
      total_weight_(static_cast<double>(num_flows)) {}

void VirtualClockScheduler::set_weight(FlowId flow, double w) {
  total_weight_ += w - weight(flow);
  Scheduler::set_weight(flow, w);
}

double VirtualClockScheduler::rate(FlowId flow) const {
  return weight(flow) / total_weight_;
}

double VirtualClockScheduler::stamp(Cycle now, FlowId flow, Flits length) {
  // auxVC_i = max(real time, auxVC_i) + L / reserved rate (Zhang's rule):
  // the stamp a TDM system at the flow's reserved rate would assign.
  double& aux = aux_vc_[flow.index()];
  aux = std::max(static_cast<double>(now), aux) +
        static_cast<double>(length) / rate(flow);
  return aux;
}

void VirtualClockScheduler::stamping_fields(Archive& a) {
  a.doubles("aux_vc", aux_vc_, num_flows());
  a.f64("total_weight", total_weight_);
}

}  // namespace wormsched::core
