// Per-flow service accounting.
//
// The fairness analyses (paper Def. 1, Figs. 4 and 6) all reduce to
// queries of Sent_i(t1, t2): how many flits flow i transmitted in an
// interval.  The log records the cycle of every transmitted flit per flow
// (cycles are naturally sorted), so any interval query is two binary
// searches.  A flow's cycle list is built on its first served flit
// (common/flow_rows.hpp); a flow that never sent answers 0.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "core/scheduler.hpp"
#include "common/flow_rows.hpp"

namespace wormsched {
class Archive;
}  // namespace wormsched

namespace wormsched::metrics {

class ServiceLog final : public core::SchedulerObserver {
 public:
  explicit ServiceLog(std::size_t num_flows, Bytes flit_bytes = 8);

  void on_flit(Cycle now, const core::FlitEvent& flit) override;

  [[nodiscard]] std::size_t num_flows() const { return cycles_.num_flows(); }
  [[nodiscard]] Bytes flit_bytes() const { return flit_bytes_; }

  /// Flits sent by `flow` in the half-open interval [t1, t2).
  [[nodiscard]] Flits sent(FlowId flow, Cycle t1, Cycle t2) const;
  [[nodiscard]] Bytes sent_bytes(FlowId flow, Cycle t1, Cycle t2) const {
    return static_cast<Bytes>(sent(flow, t1, t2)) * flit_bytes_;
  }

  /// Lifetime totals.
  [[nodiscard]] Flits total(FlowId flow) const;
  [[nodiscard]] Bytes total_bytes(FlowId flow) const {
    return static_cast<Bytes>(total(flow)) * flit_bytes_;
  }
  [[nodiscard]] Flits grand_total() const { return grand_total_; }

  /// The latest logged cycle (nullopt for an empty log); O(flows that
  /// sent).
  [[nodiscard]] std::optional<Cycle> last_cycle() const;

  /// Checkpoint state: a per-flow record table of served cycles (flow
  /// count checked; an empty list for a flow that never sent).  A restore
  /// throws SnapshotError when a flow's cycles decrease.
  void fields(Archive& a);

 private:
  FlowRows<std::vector<Cycle>> cycles_;
  Flits grand_total_ = 0;
  Bytes flit_bytes_;
};

}  // namespace wormsched::metrics
