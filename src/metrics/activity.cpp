#include "metrics/activity.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/archive.hpp"

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

void ActivityTracker::fields(Archive& a) {
  const auto flow = [](std::size_t f) {
    return FlowId(static_cast<FlowId::rep_type>(f));
  };
  if (a.loading()) windows_.clear();
  a.flow_table(
      "windows", windows_.num_flows(), std::vector<Window>{},
      [&](std::size_t f) -> const std::vector<Window>* {
        const Row* row = windows_.find(flow(f));
        return row == nullptr ? nullptr : &row->windows;
      },
      [&](std::size_t f, std::vector<Window>&& windows) {
        Cycle prev_end = 0;
        for (const Window& win : windows) {
          if (win.start < prev_end || win.start >= win.end)
            a.fail("", "has a malformed window");
          prev_end = win.end;
        }
        windows_.row(flow(f), Row{flow(f), std::move(windows)});
      },
      [](Archive& ar, std::vector<Window>& windows, std::size_t) {
        ar.seq("", windows, [&ar](Window& win) {
          ar.u64("start", win.start);
          ar.u64("end", win.end);
        });
      });
  for (std::size_t i = 0; i < currently_active_.size(); ++i) {
    const Archive::Scope s = a.scope("active", i);
    bool active = currently_active_[i];
    a.b("", active);
    if (a.loading()) currently_active_[i] = active;
  }
  a.b("finished", finished_);
  if (!a.loading()) return;
  for (std::size_t i = 0; i < currently_active_.size(); ++i) {
    const Row* row = windows_.find(flow(i));
    const bool open = row != nullptr && row->windows.back().end == kCycleMax;
    if (open != currently_active_[i] || (finished_ && open))
      throw SnapshotError(
          "activity tracker snapshot open window disagrees with flow state");
  }
}

}  // namespace wormsched::metrics
