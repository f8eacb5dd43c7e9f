#include "metrics/activity.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/snapshot.hpp"

namespace wormsched::metrics {

ActivityTracker::ActivityTracker(std::size_t num_flows)
    : windows_(num_flows), currently_active_(num_flows, false) {}

void ActivityTracker::record(Cycle now, FlowId flow, bool active) {
  WS_CHECK(!finished_);
  const std::size_t i = flow.index();
  if (active == currently_active_[i]) return;
  if (active) {
    windows_.row(flow, Row{flow, {}}).windows.push_back(Window{now, kCycleMax});
  } else {
    Row* row = windows_.find(flow);
    WS_CHECK(row != nullptr);
    row->windows.back().end = now;
  }
  currently_active_[i] = active;
}

void ActivityTracker::finish(Cycle end) {
  WS_CHECK(!finished_);
  for (Row& row : windows_.rows()) {
    if (currently_active_[row.flow.index()]) {
      row.windows.back().end = end;
      currently_active_[row.flow.index()] = false;
    }
  }
  finished_ = true;
}

bool ActivityTracker::active_throughout(FlowId flow, Cycle t1, Cycle t2) const {
  WS_CHECK_MSG(finished_, "query before finish()");
  WS_CHECK(t1 <= t2);
  if (t1 == t2) return true;
  const Row* row = windows_.find(flow);
  if (row == nullptr) return false;
  const auto& windows = row->windows;
  // Find the last window starting at or before t1.
  const auto it = std::upper_bound(
      windows.begin(), windows.end(), t1,
      [](Cycle t, const Window& w) { return t < w.start; });
  if (it == windows.begin()) return false;
  const Window& w = *(it - 1);
  return w.start <= t1 && t2 <= w.end;
}

std::optional<Cycle> ActivityTracker::last_change() const {
  // Windows are ordered and disjoint, so a row's latest change is its last
  // window's end if closed, else its start.
  std::optional<Cycle> last;
  for (const Row& row : windows_.rows()) {
    const Window& w = row.windows.back();
    const Cycle change = w.end == kCycleMax ? w.start : w.end;
    if (!last || change > *last) last = change;
  }
  return last;
}

void ActivityTracker::save(SnapshotWriter& w) const {
  const std::vector<Window> none;
  w.u64(windows_.num_flows());
  for (std::size_t i = 0; i < windows_.num_flows(); ++i) {
    const Row* row = windows_.find(FlowId(static_cast<FlowId::rep_type>(i)));
    save_sequence(w, row == nullptr ? none : row->windows,
                  [](SnapshotWriter& o, const Window& win) {
                    o.u64(win.start);
                    o.u64(win.end);
                  });
  }
  for (const bool b : currently_active_) w.b(b);
  w.b(finished_);
}

void ActivityTracker::restore(SnapshotReader& r) {
  const std::uint64_t n = r.u64();
  if (n != windows_.num_flows())
    throw SnapshotError("activity tracker snapshot flow count mismatch");
  windows_.clear();
  std::vector<Window> windows;
  for (std::size_t i = 0; i < n; ++i) {
    restore_sequence(r, windows, [](SnapshotReader& in) {
      Window win;
      win.start = in.u64();
      win.end = in.u64();
      return win;
    });
    if (windows.empty()) continue;
    Cycle prev_end = 0;
    for (const Window& win : windows) {
      if (win.start < prev_end || win.start >= win.end)
        throw SnapshotError("activity tracker snapshot has a malformed window");
      prev_end = win.end;
    }
    const FlowId flow(static_cast<FlowId::rep_type>(i));
    windows_.row(flow, Row{flow, std::move(windows)});
  }
  for (std::size_t i = 0; i < currently_active_.size(); ++i)
    currently_active_[i] = r.b();
  finished_ = r.b();
  for (std::size_t i = 0; i < n; ++i) {
    const Row* row = windows_.find(FlowId(static_cast<FlowId::rep_type>(i)));
    const bool open = row != nullptr && row->windows.back().end == kCycleMax;
    if (open != currently_active_[i] || (finished_ && open))
      throw SnapshotError(
          "activity tracker snapshot open window disagrees with flow state");
  }
}

}  // namespace wormsched::metrics
