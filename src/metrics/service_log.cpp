#include "metrics/service_log.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/archive.hpp"

namespace wormsched::metrics {

ServiceLog::ServiceLog(std::size_t num_flows, Bytes flit_bytes)
    : cycles_(num_flows), flit_bytes_(flit_bytes) {
  WS_CHECK(num_flows > 0);
  WS_CHECK(flit_bytes > 0);
}

void ServiceLog::on_flit(Cycle now, const core::FlitEvent& flit) {
  auto& cycles = cycles_.row(flit.flow);
  WS_CHECK_MSG(cycles.empty() || cycles.back() <= now,
               "service log must be fed in time order");
  cycles.push_back(now);
  ++grand_total_;
}

Flits ServiceLog::sent(FlowId flow, Cycle t1, Cycle t2) const {
  WS_CHECK(t1 <= t2);
  const auto* cycles = cycles_.find(flow);
  if (cycles == nullptr) return 0;
  const auto lo = std::lower_bound(cycles->begin(), cycles->end(), t1);
  const auto hi = std::lower_bound(lo, cycles->end(), t2);
  return static_cast<Flits>(hi - lo);
}

Flits ServiceLog::total(FlowId flow) const {
  const auto* cycles = cycles_.find(flow);
  return cycles == nullptr ? 0 : static_cast<Flits>(cycles->size());
}

std::optional<Cycle> ServiceLog::last_cycle() const {
  std::optional<Cycle> last;
  for (const auto& cycles : cycles_.rows())
    if (!last || cycles.back() > *last) last = cycles.back();
  return last;
}

void ServiceLog::fields(Archive& a) {
  const auto flow = [](std::size_t f) {
    return FlowId(static_cast<FlowId::rep_type>(f));
  };
  if (a.loading()) {
    cycles_.clear();
    grand_total_ = 0;
  }
  a.flow_table(
      "cycles", cycles_.num_flows(), std::vector<Cycle>{},
      [&](std::size_t f) { return cycles_.find(flow(f)); },
      [&](std::size_t f, std::vector<Cycle>&& cycles) {
        if (!std::is_sorted(cycles.begin(), cycles.end()))
          a.fail("", "decreases");
        grand_total_ += static_cast<Flits>(cycles.size());
        cycles_.row(flow(f)) = std::move(cycles);
      },
      [](Archive& ar, std::vector<Cycle>& cycles, std::size_t) {
        ar.seq("", cycles, [&ar](Cycle& t) { ar.u64("", t); });
      });
  a.u64("flit_bytes", flit_bytes_);
}

}  // namespace wormsched::metrics
