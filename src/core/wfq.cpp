#include "core/wfq.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/archive.hpp"

namespace wormsched::core {

WfqScheduler::WfqScheduler(std::size_t num_flows)
    : TimestampScheduler(num_flows),
      last_gps_finish_(num_flows, 0.0),
      gps_pending_(num_flows, 0) {}

void WfqScheduler::advance_virtual_time(double t) {
  WS_CHECK(t >= last_update_);
  // Retire every GPS departure that falls before real time t.  Between
  // departures Phi is constant, so V is linear: V hits the next finish tag
  // F at real time last_update_ + (F - V) * Phi.
  while (!departures_.empty()) {
    const GpsDeparture top = departures_.top();
    WS_CHECK(phi_ > 0.0);
    const double reach =
        std::max(last_update_, last_update_ + (top.finish - virtual_time_) * phi_);
    if (reach > t) break;
    virtual_time_ = top.finish;
    last_update_ = reach;
    departures_.pop();
    auto& pending = gps_pending_[top.flow.index()];
    WS_CHECK(pending > 0);
    if (--pending == 0) phi_ -= weight(top.flow);
  }
  if (phi_ > 0.0) virtual_time_ += (t - last_update_) / phi_;
  last_update_ = t;
}

double WfqScheduler::stamp(Cycle now, FlowId flow, Flits length) {
  advance_virtual_time(static_cast<double>(now));
  auto& pending = gps_pending_[flow.index()];
  if (pending == 0) phi_ += weight(flow);
  // A GPS-idle flow starts from V (its stale last finish is < V); a
  // GPS-backlogged one continues from its last assigned finish.
  const double finish =
      std::max(last_gps_finish_[flow.index()], virtual_time_) +
      static_cast<double>(length) / weight(flow);
  last_gps_finish_[flow.index()] = finish;
  ++pending;
  departures_.push(GpsDeparture{finish, next_sequence_++, flow});
  return finish;
}

void WfqScheduler::stamping_fields(Archive& a) {
  a.f64("virtual_time", virtual_time_);
  a.f64("last_update", last_update_);
  a.f64("phi", phi_);
  a.doubles("last_gps_finish", last_gps_finish_, num_flows());
  a.table("gps_pending", gps_pending_,
          [&a](std::uint32_t& p) { a.u32("", p); });
  const auto flows = below(static_cast<FlowId::rep_type>(num_flows()));
  a.heap("departures", departures_, [&a, flows](GpsDeparture& d) {
    a.f64("finish", d.finish);
    a.u64("sequence", d.sequence);
    a.id("flow", d.flow, flows);
  });
  a.u64("next_sequence", next_sequence_);
}

}  // namespace wormsched::core
