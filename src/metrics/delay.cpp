#include "metrics/delay.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/archive.hpp"

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

void DelayStats::fields(Archive& a) {
  const auto flow = [](std::size_t f) {
    return FlowId(static_cast<FlowId::rep_type>(f));
  };
  {
    const Archive::Scope s = a.scope("overall");
    overall_.fields(a);
  }
  if (a.loading()) per_flow_.clear();
  a.flow_table(
      "flows", per_flow_.num_flows(), RunningStat{},
      [&](std::size_t f) -> const RunningStat* {
        const Row* row = per_flow_.find(flow(f));
        return row == nullptr ? nullptr : &row->stat;
      },
      [&](std::size_t f, RunningStat&& stat) {
        per_flow_.row(flow(f)).stat = stat;
      },
      [](Archive& ar, RunningStat& stat, std::size_t) { stat.fields(ar); });
  {
    const Archive::Scope s = a.scope("quantiles");
    quantiles_.fields(a);
  }
  std::uint64_t capacity = flow_reservoir_capacity_;
  a.u64("flow_reservoir_capacity", capacity, at_least<std::uint64_t>(1));
  if (a.loading())
    flow_reservoir_capacity_ = static_cast<std::size_t>(capacity);
  for (std::size_t i = 0; i < per_flow_.num_flows(); ++i) {
    const Archive::Scope s = a.scope("flow_quantiles", i);
    Row* row = per_flow_.find(flow(i));
    bool sampled = row != nullptr && row->quantiles.has_value();
    a.b("sampled", sampled);
    if (!sampled) continue;
    if (a.loading()) {
      row = &per_flow_.row(flow(i));
      row->quantiles.emplace(flow_reservoir_capacity_);
    }
    row->quantiles->fields(a);
  }
}

}  // namespace wormsched::metrics
