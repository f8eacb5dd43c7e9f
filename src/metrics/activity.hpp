// Flow-activity tracking.
//
// The paper's fairness measure compares only flows that are *active*
// throughout the measured interval ("a flow is active when a packet
// belonging to it is in the middle of being dequeued, or its queue is not
// empty", Sec. 3).  The tracker stores each flow's activity as maximal
// [start, end) cycle windows, so "active throughout [t1, t2)" is one
// binary search.  A flow's window list is built on its first activation
// (common/flow_rows.hpp); a flow that never became active has none.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "common/flow_rows.hpp"

namespace wormsched {
class Archive;
}  // namespace wormsched

namespace wormsched::metrics {

class ActivityTracker {
 public:
  explicit ActivityTracker(std::size_t num_flows);

  /// Reports `flow`'s activity at cycle `now` (non-decreasing across
  /// calls).  Recording an unchanged state is a no-op, so a caller needs
  /// to record only the flows whose queue may have changed since their
  /// last record; flows it skips keep their current state.
  void record(Cycle now, FlowId flow, bool active);

  /// Call once after the run so trailing windows are closed at `end`.
  void finish(Cycle end);

  /// True iff `flow` was active for every cycle of [t1, t2).
  [[nodiscard]] bool active_throughout(FlowId flow, Cycle t1, Cycle t2) const;

  [[nodiscard]] std::size_t num_flows() const { return windows_.num_flows(); }
  /// State as of the last record() (false for every flow once finished).
  [[nodiscard]] bool active(FlowId flow) const {
    return currently_active_[flow.index()];
  }
  [[nodiscard]] bool finished() const { return finished_; }

  /// The latest window start or closed window end (nullopt when no flow
  /// was ever active); O(flows that were active).
  [[nodiscard]] std::optional<Cycle> last_change() const;

  /// Checkpoint state: a per-flow record table of windows (flow count
  /// checked; none for a flow never active), the active bits and the
  /// finished flag.  A restore throws SnapshotError unless each flow's
  /// windows are ordered, non-overlapping and non-empty, only the last is
  /// open, and it is open exactly when the flow is active.
  void fields(Archive& a);

 private:
  struct Window {
    Cycle start;
    Cycle end;  // exclusive; kCycleMax while the window is still open
  };
  struct Row {
    FlowId flow;
    std::vector<Window> windows;
  };
  FlowRows<Row> windows_;
  std::vector<bool> currently_active_;
  bool finished_ = false;
};

}  // namespace wormsched::metrics
