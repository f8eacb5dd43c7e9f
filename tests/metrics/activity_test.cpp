#include "metrics/activity.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/archive.hpp"
#include "common/snapshot.hpp"

namespace wormsched::metrics {
namespace {

TEST(Activity, SingleWindow) {
  ActivityTracker tracker(1);
  for (Cycle t = 0; t < 100; ++t) tracker.record(t, FlowId(0), t >= 10 && t < 60);
  tracker.finish(100);
  EXPECT_TRUE(tracker.active_throughout(FlowId(0), 10, 60));
  EXPECT_TRUE(tracker.active_throughout(FlowId(0), 20, 40));
  EXPECT_FALSE(tracker.active_throughout(FlowId(0), 9, 60));
  EXPECT_FALSE(tracker.active_throughout(FlowId(0), 10, 61));
  EXPECT_FALSE(tracker.active_throughout(FlowId(0), 0, 5));
}

TEST(Activity, MultipleWindows) {
  ActivityTracker tracker(1);
  auto active = [](Cycle t) { return (t / 10) % 2 == 0; };  // on 0-9, 20-29...
  for (Cycle t = 0; t < 100; ++t) tracker.record(t, FlowId(0), active(t));
  tracker.finish(100);
  EXPECT_TRUE(tracker.active_throughout(FlowId(0), 20, 30));
  EXPECT_TRUE(tracker.active_throughout(FlowId(0), 42, 48));
  EXPECT_FALSE(tracker.active_throughout(FlowId(0), 5, 25));  // spans a gap
  EXPECT_FALSE(tracker.active_throughout(FlowId(0), 12, 15));
}

TEST(Activity, OpenWindowClosedByFinish) {
  ActivityTracker tracker(1);
  for (Cycle t = 0; t < 50; ++t) tracker.record(t, FlowId(0), t >= 30);
  tracker.finish(50);
  EXPECT_TRUE(tracker.active_throughout(FlowId(0), 30, 50));
  EXPECT_FALSE(tracker.active_throughout(FlowId(0), 30, 51));
}

TEST(Activity, NeverActiveFlow) {
  ActivityTracker tracker(2);
  for (Cycle t = 0; t < 10; ++t) {
    tracker.record(t, FlowId(0), true);
    tracker.record(t, FlowId(1), false);
  }
  tracker.finish(10);
  EXPECT_TRUE(tracker.active_throughout(FlowId(0), 0, 10));
  EXPECT_FALSE(tracker.active_throughout(FlowId(1), 3, 4));
}

TEST(Activity, EmptyIntervalAlwaysActive) {
  ActivityTracker tracker(1);
  tracker.finish(10);
  EXPECT_TRUE(tracker.active_throughout(FlowId(0), 5, 5));
}

TEST(Activity, RedundantRecordsCoalesce) {
  ActivityTracker tracker(1);
  tracker.record(0, FlowId(0), true);
  tracker.record(1, FlowId(0), true);
  tracker.record(2, FlowId(0), true);
  tracker.record(3, FlowId(0), false);
  tracker.record(4, FlowId(0), true);
  tracker.finish(10);
  EXPECT_TRUE(tracker.active_throughout(FlowId(0), 0, 3));
  EXPECT_FALSE(tracker.active_throughout(FlowId(0), 0, 4));
  EXPECT_TRUE(tracker.active_throughout(FlowId(0), 4, 10));
}

TEST(Activity, SnapshotRoundTripsOpenAndClosedWindows) {
  ActivityTracker tracker(2);
  tracker.record(2, FlowId(0), true);
  tracker.record(5, FlowId(0), false);
  tracker.record(7, FlowId(0), true);
  SnapshotWriter w;
  save_fields(w, tracker);
  ActivityTracker restored(2);
  SnapshotReader r(w.bytes());
  restore_fields(r, restored);
  EXPECT_TRUE(restored.active(FlowId(0)));
  EXPECT_FALSE(restored.active(FlowId(1)));
  restored.finish(9);
  EXPECT_TRUE(restored.active_throughout(FlowId(0), 2, 5));
  EXPECT_TRUE(restored.active_throughout(FlowId(0), 7, 9));
}

/// One flow's crafted snapshot: `windows` as (start, end) pairs.
std::vector<std::uint8_t> crafted(
    const std::vector<std::pair<Cycle, Cycle>>& windows, bool active,
    bool finished = false) {
  SnapshotWriter w;
  w.u64(1);
  w.u64(windows.size());
  for (const auto& [start, end] : windows) {
    w.u64(start);
    w.u64(end);
  }
  w.b(active);
  w.b(finished);
  return w.bytes();
}

bool restores(const std::vector<std::uint8_t>& bytes) {
  ActivityTracker tracker(1);
  SnapshotReader r(bytes);
  try {
    restore_fields(r, tracker);
  } catch (const SnapshotError&) {
    return false;
  }
  return true;
}

TEST(Activity, RestoreValidatesWindows) {
  EXPECT_TRUE(restores(crafted({}, false)));
  EXPECT_TRUE(restores(crafted({{0, 4}, {4, 9}}, false)));
  EXPECT_TRUE(restores(crafted({{0, 4}, {6, kCycleMax}}, true)));
  EXPECT_TRUE(restores(crafted({{0, 4}}, false, /*finished=*/true)));
  // Active with no window open (the full sweep used to abort on it).
  EXPECT_FALSE(restores(crafted({}, true)));
  EXPECT_FALSE(restores(crafted({{0, 4}}, true)));
  // Open window on an inactive flow, or on a finished tracker.
  EXPECT_FALSE(restores(crafted({{3, kCycleMax}}, false)));
  EXPECT_FALSE(restores(crafted({{3, kCycleMax}}, true, /*finished=*/true)));
  // Empty, reversed, overlapping, unsorted, or open-before-last windows.
  EXPECT_FALSE(restores(crafted({{4, 4}}, false)));
  EXPECT_FALSE(restores(crafted({{5, 4}}, false)));
  EXPECT_FALSE(restores(crafted({{0, 5}, {4, 9}}, false)));
  EXPECT_FALSE(restores(crafted({{6, 9}, {0, 4}}, false)));
  EXPECT_FALSE(restores(crafted({{0, kCycleMax}, {4, kCycleMax}}, true)));
}

TEST(ActivityDeath, QueryBeforeFinishAborts) {
  ActivityTracker tracker(1);
  tracker.record(0, FlowId(0), true);
  EXPECT_DEATH((void)tracker.active_throughout(FlowId(0), 0, 1), "finish");
}

}  // namespace
}  // namespace wormsched::metrics
