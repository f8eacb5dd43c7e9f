#include "metrics/service_log.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/snapshot.hpp"

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

void ServiceLog::save(SnapshotWriter& w) const {
  const std::vector<Cycle> none;
  w.u64(cycles_.num_flows());
  for (std::size_t i = 0; i < cycles_.num_flows(); ++i) {
    const auto* cycles = cycles_.find(FlowId(static_cast<FlowId::rep_type>(i)));
    save_sequence(w, cycles == nullptr ? none : *cycles,
                  [](SnapshotWriter& o, Cycle c) { o.u64(c); });
  }
  w.u64(flit_bytes_);
}

void ServiceLog::restore(SnapshotReader& r) {
  const std::uint64_t n = r.u64();
  if (n != cycles_.num_flows())
    throw SnapshotError("service log snapshot flow count mismatch");
  cycles_.clear();
  grand_total_ = 0;
  std::vector<Cycle> cycles;
  for (std::size_t i = 0; i < n; ++i) {
    restore_sequence(r, cycles, [](SnapshotReader& in) { return in.u64(); });
    if (cycles.empty()) continue;
    if (!std::is_sorted(cycles.begin(), cycles.end()))
      throw SnapshotError("service log snapshot cycles of flow " +
                          std::to_string(i) + " decrease");
    grand_total_ += static_cast<Flits>(cycles.size());
    cycles_.row(FlowId(static_cast<FlowId::rep_type>(i))) = std::move(cycles);
  }
  flit_bytes_ = static_cast<Bytes>(r.u64());
}

}  // namespace wormsched::metrics
