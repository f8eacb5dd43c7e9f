// Crafted scenario checkpoints: a CRC only guards accidental damage, so a
// restore must reject a CRC-valid file whose contents cannot come from a
// run — with SnapshotError in the library and exit 2 in the CLI, never an
// assertion abort or an allocation failure.
//
// The crafted files start from a checkpoint saved before cycle 0, whose
// scenario-state (SSTA) section is the payload's last and ends with the
// activity tracker, the delay statistics, the service-start count (0) and
// the largest served packet.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/snapshot.hpp"
#include "harness/checkpoint.hpp"
#include "metrics/activity.hpp"
#include "metrics/delay.hpp"

namespace wormsched::harness {
namespace {

constexpr std::size_t kFlows = 3;

ScenarioSpec spec() {
  ScenarioSpec spec;
  spec.workload_text = "bern:0.05:u1-8*3";
  spec.config.horizon = 200;
  spec.config.drain = true;
  return spec;
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& p, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(p[at + i]) << (8 * i);
  return v;
}

void put_u64(std::vector<std::uint8_t>& p, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i)
    p[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

template <typename T>
std::vector<std::uint8_t> saved(const T& state) {
  SnapshotWriter w;
  state.save(w);
  return w.bytes();
}

/// The cycle-0 checkpoint with the offsets the crafting needs.
struct Cycle0Checkpoint {
  Cycle0Checkpoint() {
    ScenarioRun run(spec());
    file = run.make_snapshot_file();
    const std::vector<std::uint8_t>& p = file.payload;
    tracker_len = saved(metrics::ActivityTracker(kFlows)).size();
    tracker_at = p.size() - 16 - saved(metrics::DelayStats(kFlows)).size() -
                 tracker_len;
    SnapshotReader r(p);
    r.enter_section(kCkptMetaTag);
    r.leave_section();
    r.enter_section(kCkptScenConfigTag);
    r.leave_section();
    ssta_length_at = p.size() - r.remaining() + 4;  // after the u32 tag
  }

  /// This checkpoint with its activity tracker replaced by `tracker`.
  [[nodiscard]] SnapshotFile with_tracker(
      const std::vector<std::uint8_t>& tracker) const {
    SnapshotFile out = file;
    std::vector<std::uint8_t>& p = out.payload;
    const auto at = p.begin() + static_cast<std::ptrdiff_t>(tracker_at);
    p.erase(at, at + static_cast<std::ptrdiff_t>(tracker_len));
    p.insert(p.begin() + static_cast<std::ptrdiff_t>(tracker_at),
             tracker.begin(), tracker.end());
    put_u64(p, ssta_length_at,
            get_u64(p, ssta_length_at) + tracker.size() - tracker_len);
    return out;
  }

  SnapshotFile file;
  std::size_t tracker_at = 0;
  std::size_t tracker_len = 0;
  std::size_t ssta_length_at = 0;
};

/// A tracker claiming flow 0 is active with no window open for it.
std::vector<std::uint8_t> active_without_window() {
  SnapshotWriter w;
  w.u64(kFlows);
  for (std::size_t f = 0; f < kFlows; ++f) w.u64(0);  // no windows
  for (std::size_t f = 0; f < kFlows; ++f) w.b(f == 0);
  w.b(false);  // not finished
  return w.bytes();
}

/// A well-formed tracker with flow 0 active, while every queue is empty.
std::vector<std::uint8_t> active_with_empty_queue() {
  metrics::ActivityTracker tracker(kFlows);
  tracker.record(0, FlowId(0), true);
  return saved(tracker);
}

/// The checkpoint with its service-start count set huge.
SnapshotFile huge_sequence_count(const Cycle0Checkpoint& c) {
  SnapshotFile out = c.file;
  put_u64(out.payload, out.payload.size() - 16, ~std::uint64_t{0});
  return out;
}

TEST(ScenarioRestoreCheck, CraftingOffsetsMatchTheCheckpoint) {
  const Cycle0Checkpoint c;
  const std::vector<std::uint8_t> fresh =
      saved(metrics::ActivityTracker(kFlows));
  ASSERT_EQ(std::vector<std::uint8_t>(
                c.file.payload.begin() +
                    static_cast<std::ptrdiff_t>(c.tracker_at),
                c.file.payload.begin() +
                    static_cast<std::ptrdiff_t>(c.tracker_at + c.tracker_len)),
            fresh);
  EXPECT_EQ(get_u64(c.file.payload, c.ssta_length_at) + c.ssta_length_at + 8,
            c.file.payload.size());
  // Splicing the identical tracker back in yields a file that restores.
  ScenarioRun resumed(spec(), c.with_tracker(fresh));
  resumed.run_to_completion();
  EXPECT_GT(resumed.finish().service_log.grand_total(), 0);
}

TEST(ScenarioRestoreCheck, RejectsActiveFlowWithoutWindow) {
  const Cycle0Checkpoint c;
  EXPECT_THROW(ScenarioRun(spec(), c.with_tracker(active_without_window())),
               SnapshotError);
}

TEST(ScenarioRestoreCheck, RejectsActivityThatDisagreesWithQueues) {
  const Cycle0Checkpoint c;
  EXPECT_THROW(ScenarioRun(spec(), c.with_tracker(active_with_empty_queue())),
               SnapshotError);
}

TEST(ScenarioRestoreCheck, RejectsHugeSequenceCountBeforeAllocating) {
  const Cycle0Checkpoint c;
  EXPECT_THROW(ScenarioRun(spec(), huge_sequence_count(c)), SnapshotError);
}

TEST(ScenarioRestoreCheck, CliRestoreOfCraftedFilesExits2) {
  const Cycle0Checkpoint c;
  const std::vector<std::pair<std::string, SnapshotFile>> crafted = {
      {"active_without_window", c.with_tracker(active_without_window())},
      {"active_with_empty_queue", c.with_tracker(active_with_empty_queue())},
      {"huge_sequence_count", huge_sequence_count(c)},
  };
  for (const auto& [name, file] : crafted) {
    const std::string path =
        testing::TempDir() + "scenario_restore_check_" + name + ".wsnp";
    write_snapshot_file(path, file.manifest_json, file.payload);
    const std::string command = std::string(WS_CLI) + " run --restore " +
                                path + " > /dev/null 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << name;
    EXPECT_EQ(WEXITSTATUS(status), 2) << name;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace wormsched::harness
