#include "metrics/activity.hpp"

#include <algorithm>

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
    windows_[i].push_back(Window{now, kCycleMax});
  } else {
    WS_CHECK(!windows_[i].empty());
    windows_[i].back().end = now;
  }
  currently_active_[i] = active;
}

void ActivityTracker::finish(Cycle end) {
  WS_CHECK(!finished_);
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    if (currently_active_[i]) {
      windows_[i].back().end = end;
      currently_active_[i] = false;
    }
  }
  finished_ = true;
}

bool ActivityTracker::active_throughout(FlowId flow, Cycle t1, Cycle t2) const {
  WS_CHECK_MSG(finished_, "query before finish()");
  WS_CHECK(t1 <= t2);
  if (t1 == t2) return true;
  const auto& windows = windows_[flow.index()];
  // Find the last window starting at or before t1.
  const auto it = std::upper_bound(
      windows.begin(), windows.end(), t1,
      [](Cycle t, const Window& w) { return t < w.start; });
  if (it == windows.begin()) return false;
  const Window& w = *(it - 1);
  return w.start <= t1 && t2 <= w.end;
}

void ActivityTracker::save(SnapshotWriter& w) const {
  w.u64(windows_.size());
  for (const auto& windows : windows_)
    save_sequence(w, windows, [](SnapshotWriter& o, const Window& win) {
      o.u64(win.start);
      o.u64(win.end);
    });
  for (const bool b : currently_active_) w.b(b);
  w.b(finished_);
}

void ActivityTracker::restore(SnapshotReader& r) {
  const std::uint64_t n = r.u64();
  if (n != windows_.size())
    throw SnapshotError("activity tracker snapshot flow count mismatch");
  for (auto& windows : windows_)
    restore_sequence(r, windows, [](SnapshotReader& i) {
      Window win;
      win.start = i.u64();
      win.end = i.u64();
      return win;
    });
  for (std::size_t i = 0; i < currently_active_.size(); ++i)
    currently_active_[i] = r.b();
  finished_ = r.b();
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const auto& windows = windows_[i];
    Cycle prev_end = 0;
    for (const Window& win : windows) {
      if (win.start < prev_end || win.start >= win.end)
        throw SnapshotError("activity tracker snapshot has a malformed window");
      prev_end = win.end;
    }
    const bool open = !windows.empty() && windows.back().end == kCycleMax;
    if (open != currently_active_[i] || (finished_ && open))
      throw SnapshotError(
          "activity tracker snapshot open window disagrees with flow state");
  }
}

}  // namespace wormsched::metrics
