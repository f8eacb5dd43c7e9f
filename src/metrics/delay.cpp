#include "metrics/delay.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/snapshot.hpp"

namespace wormsched::metrics {

namespace {

// Aim for ~32 MiB (1<<22 doubles) of reservoir across all flows, but never
// below 512 samples per flow (quantiles degrade) nor above the historical
// 1<<18 (small-flow-count runs keep their old accuracy).  The budget holds
// up to 8,192 flows; above that the floor wins and every flow with a
// departure may keep 512 samples (4 KiB), so the set grows with the flows
// that carried traffic.
std::size_t per_flow_capacity(std::size_t num_flows) {
  const std::size_t share = (std::size_t{1} << 22) / std::max<std::size_t>(
                                                         1, num_flows);
  return std::clamp<std::size_t>(share, 512, std::size_t{1} << 18);
}

const RunningStat& no_departures() {
  static const RunningStat empty;
  return empty;
}

}  // namespace

DelayStats::DelayStats(std::size_t num_flows)
    : flow_reservoir_capacity_(per_flow_capacity(num_flows)),
      per_flow_(num_flows) {}

void DelayStats::on_packet_departure(Cycle now, const core::Packet& packet) {
  WS_CHECK(now >= packet.arrival);
  const auto delay = static_cast<double>(now - packet.arrival);
  overall_.add(delay);
  quantiles_.add(delay);
  Row& row = per_flow_.row(packet.flow);
  row.stat.add(delay);
  if (!row.quantiles) row.quantiles.emplace(flow_reservoir_capacity_);
  row.quantiles->add(delay);
}

const RunningStat& DelayStats::flow(FlowId flow) const {
  const Row* row = per_flow_.find(flow);
  return row == nullptr ? no_departures() : row->stat;
}

double DelayStats::flow_quantile(FlowId flow, double q) const {
  const Row* row = per_flow_.find(flow);
  return row != nullptr && row->quantiles ? row->quantiles->quantile(q) : 0.0;
}

void DelayStats::save(SnapshotWriter& w) const {
  overall_.save(w);
  w.u64(per_flow_.num_flows());
  for (std::size_t i = 0; i < per_flow_.num_flows(); ++i)
    flow(FlowId(static_cast<FlowId::rep_type>(i))).save(w);
  quantiles_.save(w);
  w.u64(flow_reservoir_capacity_);
  for (std::size_t i = 0; i < per_flow_.num_flows(); ++i) {
    const Row* row = per_flow_.find(FlowId(static_cast<FlowId::rep_type>(i)));
    const bool sampled = row != nullptr && row->quantiles.has_value();
    w.b(sampled);
    if (sampled) row->quantiles->save(w);
  }
}

void DelayStats::restore(SnapshotReader& r) {
  overall_.restore(r);
  const std::uint64_t n = r.u64();
  if (n != per_flow_.num_flows())
    throw SnapshotError("delay stats snapshot flow count mismatch");
  per_flow_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    RunningStat stat;
    stat.restore(r);
    if (!stat.is_initial())
      per_flow_.row(FlowId(static_cast<FlowId::rep_type>(i))).stat = stat;
  }
  quantiles_.restore(r);
  flow_reservoir_capacity_ = r.u64();
  if (flow_reservoir_capacity_ == 0)
    throw SnapshotError("per-flow delay reservoir has no capacity");
  for (std::size_t i = 0; i < n; ++i) {
    if (!r.b()) continue;
    Row& row = per_flow_.row(FlowId(static_cast<FlowId::rep_type>(i)));
    row.quantiles.emplace(flow_reservoir_capacity_);
    row.quantiles->restore(r);
  }
}

}  // namespace wormsched::metrics
