// Crafted scenario checkpoints: a CRC only guards accidental damage, so a
// restore must reject a CRC-valid file whose contents cannot come from a
// run — with SnapshotError in the library and exit 2 in the CLI, never an
// assertion abort or an allocation failure.
//
// The crafted files start from a checkpoint saved before cycle 0 or 100,
// or at the first cycle after 100 with a packet in flight.  Its
// scenario-state (SSTA) section is the payload's last.  It starts with
// the cycle, arrival cursor, next packet id, done flag and trace round,
// then the ERR scheduler (laid out in core/scheduler_craft.hpp), and ends
// with the service log, the activity tracker, the delay statistics, the
// service starts and the largest served packet.  The delay statistics
// hold the overall delay reservoir (capacity, seen count, RNG state,
// sorted flag, samples) followed by the per-flow reservoir capacity.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/snapshot.hpp"
#include "common/stats.hpp"
#include "harness/checkpoint.hpp"
#include "metrics/activity.hpp"
#include "metrics/delay.hpp"
#include "metrics/service_log.hpp"
#include "../core/scheduler_craft.hpp"

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

/// The checkpoint saved before cycle `at`, with the offsets the crafting
/// needs.  Finishing the run changes no section's length, so the lengths
/// come from its result.
struct Checkpoint {
  explicit Checkpoint(Cycle cycle = 0) : at(cycle) {
    ScenarioRun run(spec());
    run.advance_to(at);
    file = run.make_snapshot_file();
    const ScenarioResult result = run.finish();
    const std::vector<std::uint8_t>& p = file.payload;
    starts_at = p.size() - 16 - 8 * result.service_starts.size();
    tracker_len = saved(result.activity).size();
    tracker_at = starts_at - saved(result.delays).size() - tracker_len;
    log_len = saved(result.service_log).size();
    log_at = tracker_at - log_len;
    // Walk the delay statistics past the overall and per-flow running
    // stats to the overall reservoir and the per-flow capacity after it.
    const std::size_t delays_at = tracker_at + tracker_len;
    SnapshotReader d(p.data() + delays_at, starts_at - delays_at);
    RunningStat stat;
    stat.restore(d);
    for (std::uint64_t f = d.u64(); f > 0; --f) stat.restore(d);
    reservoir_at = starts_at - d.remaining();
    QuantileEstimator reservoir;
    reservoir.restore(d);
    flow_capacity_at = starts_at - d.remaining();
    SnapshotReader r(p);
    r.enter_section(kCkptMetaTag);
    r.leave_section();
    r.enter_section(kCkptScenConfigTag);
    r.leave_section();
    ssta_length_at = p.size() - r.remaining() + 4;  // after the u32 tag
  }

  /// The saved activity tracker, as the restore reads it.
  [[nodiscard]] metrics::ActivityTracker tracker() const {
    metrics::ActivityTracker t(kFlows);
    SnapshotReader r(file.payload.data() + tracker_at, tracker_len);
    t.restore(r);
    return t;
  }

  /// This checkpoint with `len` payload bytes at `offset` replaced by
  /// `bytes`.
  [[nodiscard]] SnapshotFile spliced(
      std::size_t offset, std::size_t len,
      const std::vector<std::uint8_t>& bytes) const {
    SnapshotFile out = file;
    std::vector<std::uint8_t>& p = out.payload;
    const auto begin = p.begin() + static_cast<std::ptrdiff_t>(offset);
    p.erase(begin, begin + static_cast<std::ptrdiff_t>(len));
    p.insert(p.begin() + static_cast<std::ptrdiff_t>(offset), bytes.begin(),
             bytes.end());
    put_u64(p, ssta_length_at, get_u64(p, ssta_length_at) + bytes.size() - len);
    return out;
  }
  [[nodiscard]] SnapshotFile with_tracker(
      const std::vector<std::uint8_t>& tracker) const {
    return spliced(tracker_at, tracker_len, tracker);
  }
  [[nodiscard]] SnapshotFile with_log(
      const std::vector<std::uint8_t>& log) const {
    return spliced(log_at, log_len, log);
  }

  /// The saved scheduler and its ERR policy.
  [[nodiscard]] test::SchedulerImage scheduler() const {
    return {file.payload, ssta_length_at + 8 + 8 + 8 + 8 + 1 + 8};
  }
  [[nodiscard]] test::ErrImage err() const {
    return {file.payload, scheduler().discipline_at};
  }

  Cycle at;
  SnapshotFile file;
  std::size_t log_at = 0;
  std::size_t log_len = 0;
  std::size_t tracker_at = 0;
  std::size_t tracker_len = 0;
  std::size_t starts_at = 0;  // the service-start count
  std::size_t ssta_length_at = 0;
  std::size_t reservoir_at = 0;      // the overall delay reservoir
  std::size_t flow_capacity_at = 0;  // the per-flow reservoir capacity
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
SnapshotFile huge_sequence_count(const Checkpoint& c) {
  SnapshotFile out = c.file;
  put_u64(out.payload, c.starts_at, ~std::uint64_t{0});
  return out;
}

/// The checkpoint with a service log that serves flow 0 at `cycles` and
/// no other flow.
SnapshotFile with_flow0_cycles(const Checkpoint& c,
                               const std::vector<Cycle>& cycles) {
  SnapshotWriter w;
  w.u64(kFlows);
  w.u64(cycles.size());
  for (const Cycle t : cycles) w.u64(t);
  for (std::size_t f = 1; f < kFlows; ++f) w.u64(0);
  w.u64(8);  // flit bytes
  return c.with_log(w.bytes());
}

/// A flow inactive when `c` was saved, and the cycle its last window
/// closed (0 if it never was active): a new window may start there.
struct IdleFlow {
  FlowId flow;
  Cycle since = 0;
};

IdleFlow idle_flow(const Checkpoint& c) {
  const metrics::ActivityTracker t = c.tracker();
  metrics::ActivityTracker closed = t;
  closed.finish(c.at);
  for (std::size_t f = 0; f < kFlows; ++f) {
    const FlowId flow(static_cast<FlowId::rep_type>(f));
    if (t.active(flow)) continue;
    Cycle since = c.at;
    while (since > 0 && !closed.active_throughout(flow, since - 1, since))
      --since;
    return {flow, since};
  }
  ADD_FAILURE() << "every flow is active at the save";
  return {};
}

/// The checkpoint's tracker plus a closed window [start, end) for a flow
/// that was idle at the save, so it stays consistent with the queues.
SnapshotFile with_window(const Checkpoint& c, Cycle start, Cycle end) {
  metrics::ActivityTracker t = c.tracker();
  const FlowId flow = idle_flow(c).flow;
  t.record(start, flow, true);
  t.record(end, flow, false);
  return c.with_tracker(saved(t));
}

/// The checkpoint with its last service start moved to `cycle`.
SnapshotFile with_last_service_start(const Checkpoint& c, Cycle cycle) {
  SnapshotFile out = c.file;
  put_u64(out.payload, out.payload.size() - 16, cycle);
  return out;
}

/// The checkpoint with the u64 at payload offset `at` set to `v`.
SnapshotFile with_u64(const Checkpoint& c, std::size_t at, std::uint64_t v) {
  SnapshotFile out = c.file;
  put_u64(out.payload, at, v);
  return out;
}

/// The checkpoint with its overall delay reservoir full (capacity equal
/// to the samples held) and `seen` samples seen.
SnapshotFile full_reservoir(const Checkpoint& c, std::uint64_t seen) {
  SnapshotFile out = c.file;
  const std::uint64_t held = get_u64(out.payload, c.reservoir_at + 25);
  put_u64(out.payload, c.reservoir_at, held);
  put_u64(out.payload, c.reservoir_at + 8, seen);
  return out;
}

/// The first checkpoint after cycle 100 with a packet in flight and
/// another flow waiting in ERR's ActiveList.
Checkpoint in_flight() {
  for (Cycle at = 100; at < spec().config.horizon; ++at) {
    Checkpoint c(at);
    if (c.file.payload[c.scheduler().latched_at] != 0 && !c.err().list.empty())
      return c;
  }
  ADD_FAILURE() << "no packet in flight after cycle 100";
  return Checkpoint(100);
}

/// The checkpoint with `bytes` little-endian bytes at `at` set to `v`.
SnapshotFile with_field(const Checkpoint& c, std::size_t at,
                        std::size_t bytes, std::uint64_t v) {
  SnapshotFile out = c.file;
  test::put_le(out.payload, at, bytes, v);
  return out;
}

/// The checkpoint with ERR's weight of its first listed flow set to `w`.
SnapshotFile with_listed_weight(const Checkpoint& c, double w) {
  SnapshotFile out = c.file;
  test::put_f64(out.payload, c.err().weight_at(c.err().list.front()), w);
  return out;
}

constexpr std::uint64_t kFarFlow = 0x7FFFFFF0;

/// The crafted files the CLI must reject, by name.
std::vector<std::pair<std::string, SnapshotFile>> crafted_files() {
  const Checkpoint c0;
  const Checkpoint c100(100);
  const Checkpoint busy = in_flight();
  return {
      {"latch_out_of_range",
       with_field(busy, busy.scheduler().latched_at + 1, 4, kFarFlow)},
      {"err_service_out_of_range",
       with_field(busy, busy.err().current_at, 4, kFarFlow)},
      {"err_zero_weight_on_queued_flow", with_listed_weight(busy, 0.0)},
      {"active_without_window", c0.with_tracker(active_without_window())},
      {"active_with_empty_queue", c0.with_tracker(active_with_empty_queue())},
      {"huge_sequence_count", huge_sequence_count(c0)},
      {"future_service_cycle", with_flow0_cycles(c100, {50, 150})},
      {"decreasing_service_cycles", with_flow0_cycles(c100, {50, 10})},
      {"future_window", with_window(c100, 150, 160)},
      {"window_closing_after_save",
       with_window(c100, idle_flow(c100).since, 150)},
      {"future_service_start", with_last_service_start(c100, 100)},
      {"zero_reservoir_capacity", with_u64(c0, c0.reservoir_at, 0)},
      {"zero_flow_reservoir_capacity", with_u64(c0, c0.flow_capacity_at, 0)},
      {"zero_flow_reservoir_capacity_sampled",
       with_u64(c100, c100.flow_capacity_at, 0)},
      {"wrapping_seen_count", full_reservoir(c100, ~std::uint64_t{0})},
  };
}

/// Their accepted controls: the same fields with values a run can hold.
std::vector<std::pair<std::string, SnapshotFile>> control_files() {
  const Checkpoint c0;
  const Checkpoint c100(100);
  const Checkpoint busy = in_flight();
  return {
      {"in_flight", busy.file},
      {"err_weight_2_on_queued_flow", with_listed_weight(busy, 2.0)},
      {"reservoir_capacity_1", with_u64(c0, c0.reservoir_at, 1)},
      {"flow_reservoir_capacity_1", with_u64(c0, c0.flow_capacity_at, 1)},
      {"flow_reservoir_capacity_1_sampled",
       with_u64(c100, c100.flow_capacity_at, 1)},
      {"largest_seen_count",
       full_reservoir(c100, (std::uint64_t{1} << 63) - 1)},
  };
}

TEST(ScenarioRestoreCheck, CraftingOffsetsMatchTheCheckpoint) {
  for (const Cycle at : {Cycle{0}, Cycle{100}}) {
    const Checkpoint c(at);
    const std::vector<std::uint8_t>& p = c.file.payload;
    const auto bytes_at = [&p](std::size_t begin, std::size_t len) {
      return std::vector<std::uint8_t>(
          p.begin() + static_cast<std::ptrdiff_t>(begin),
          p.begin() + static_cast<std::ptrdiff_t>(begin + len));
    };
    EXPECT_EQ(get_u64(p, c.log_at), kFlows) << at;
    EXPECT_EQ(get_u64(p, c.tracker_at), kFlows) << at;
    EXPECT_EQ(saved(c.tracker()), bytes_at(c.tracker_at, c.tracker_len)) << at;
    EXPECT_EQ(c.starts_at + 8 + 8 * get_u64(p, c.starts_at) + 8, p.size())
        << at;
    EXPECT_EQ(get_u64(p, c.ssta_length_at) + c.ssta_length_at + 8, p.size())
        << at;
    EXPECT_EQ(get_u64(p, c.reservoir_at), std::uint64_t{1} << 20) << at;
    EXPECT_EQ(get_u64(p, c.flow_capacity_at), std::uint64_t{1} << 18) << at;
    if (at == 0) {
      EXPECT_EQ(bytes_at(c.log_at, c.log_len),
                saved(metrics::ServiceLog(kFlows)));
      EXPECT_EQ(bytes_at(c.tracker_at, c.tracker_len),
                saved(metrics::ActivityTracker(kFlows)));
    } else {
      EXPECT_GT(get_u64(p, c.starts_at), 0u) << "no service start to move";
    }
    // Splicing the same log or re-encoded tracker back in changes nothing.
    EXPECT_EQ(c.with_log(bytes_at(c.log_at, c.log_len)).payload, p) << at;
    EXPECT_EQ(c.with_tracker(saved(c.tracker())).payload, p) << at;
  }
}

TEST(ScenarioRestoreCheck, SchedulerOffsetsMatchTheCheckpoint) {
  const Checkpoint c = in_flight();
  const std::vector<std::uint8_t>& p = c.file.payload;
  const test::SchedulerImage sched = c.scheduler();
  EXPECT_EQ(test::get_le(p, sched.queue_at[0] - 20, 4), 0x53424153u);  // SABS
  EXPECT_EQ(sched.flows, kFlows);
  EXPECT_EQ(test::get_le(p, sched.discipline_at - 12, 4),
            0x53444953u);  // SIDS
  const test::ErrImage err = c.err();
  EXPECT_EQ(err.flows, kFlows);
  EXPECT_EQ(p[err.in_opportunity_at], 1u);
  EXPECT_EQ(test::get_le(p, err.current_at, 4),
            test::get_le(p, sched.latched_at + 1, 4));
  EXPECT_EQ(test::get_le(p, err.active_count_at, 8), err.list.size() + 1);
}

TEST(ScenarioRestoreCheck, RejectsActiveFlowWithoutWindow) {
  const Checkpoint c;
  EXPECT_THROW(ScenarioRun(spec(), c.with_tracker(active_without_window())),
               SnapshotError);
}

TEST(ScenarioRestoreCheck, RejectsActivityThatDisagreesWithQueues) {
  const Checkpoint c;
  EXPECT_THROW(ScenarioRun(spec(), c.with_tracker(active_with_empty_queue())),
               SnapshotError);
}

TEST(ScenarioRestoreCheck, RejectsHugeSequenceCountBeforeAllocating) {
  const Checkpoint c;
  EXPECT_THROW(ScenarioRun(spec(), huge_sequence_count(c)), SnapshotError);
}

TEST(ScenarioRestoreCheck, RejectsServiceLoggedAtOrAfterTheSave) {
  // Before the check, flow 0's next served flit tripped the service log's
  // time-order assertion and aborted the process.
  const Checkpoint c(100);
  EXPECT_THROW(ScenarioRun(spec(), with_flow0_cycles(c, {50, 150})),
               SnapshotError);
  EXPECT_THROW(ScenarioRun(spec(), with_flow0_cycles(c, {100})),
               SnapshotError);
  // Control: the same crafting with past cycles restores and runs.
  ScenarioRun past(spec(), with_flow0_cycles(c, {10, 50, 99}));
  past.run_to_completion();
  EXPECT_GT(past.finish().service_log.total(FlowId(0)), 3);
}

TEST(ScenarioRestoreCheck, RejectsDecreasingServiceCycles) {
  const Checkpoint c(100);
  EXPECT_THROW(ScenarioRun(spec(), with_flow0_cycles(c, {50, 10})),
               SnapshotError);
}

TEST(ScenarioRestoreCheck, RejectsActivityWindowAtOrAfterTheSave) {
  const Checkpoint c(100);
  const Cycle since = idle_flow(c).since;
  ASSERT_LT(since + 1, c.at) << "no room for a window before the save";
  EXPECT_THROW(ScenarioRun(spec(), with_window(c, 150, 160)), SnapshotError);
  EXPECT_THROW(ScenarioRun(spec(), with_window(c, 100, 101)), SnapshotError);
  // A window that opened before the save but closes at or after it.
  EXPECT_THROW(ScenarioRun(spec(), with_window(c, since, 150)),
               SnapshotError);
  EXPECT_THROW(ScenarioRun(spec(), with_window(c, since, 100)),
               SnapshotError);
  // Control: a closed window wholly before the save restores.
  ScenarioRun past(spec(), with_window(c, since, since + 1));
  past.run_to_completion();
  EXPECT_GT(past.finish().service_log.grand_total(), 0);
}

TEST(ScenarioRestoreCheck, RejectsServiceStartAtOrAfterTheSave) {
  const Checkpoint c(100);
  EXPECT_THROW(ScenarioRun(spec(), with_last_service_start(c, 100)),
               SnapshotError);
  EXPECT_NO_THROW(ScenarioRun(spec(), with_last_service_start(c, 99)));
}

TEST(ScenarioRestoreCheck, RejectsZeroReservoirCapacity) {
  // Before the check a zero capacity tripped the reservoir's assertion and
  // aborted: at once for the overall reservoir or a sampled flow's, at the
  // first departure of an unsampled flow otherwise.
  const Checkpoint c0;
  const Checkpoint c100(100);
  ASSERT_GT(get_u64(c100.file.payload, c100.reservoir_at + 8), 0u)
      << "no flow sampled before the save";
  EXPECT_THROW(ScenarioRun(spec(), with_u64(c0, c0.reservoir_at, 0)),
               SnapshotError);
  EXPECT_THROW(ScenarioRun(spec(), with_u64(c0, c0.flow_capacity_at, 0)),
               SnapshotError);
  EXPECT_THROW(ScenarioRun(spec(), with_u64(c100, c100.flow_capacity_at, 0)),
               SnapshotError);
  // Controls: a one-sample capacity restores and runs.
  for (const SnapshotFile& file : {with_u64(c0, c0.reservoir_at, 1),
                                   with_u64(c0, c0.flow_capacity_at, 1),
                                   with_u64(c100, c100.flow_capacity_at, 1)}) {
    ScenarioRun run(spec(), file);
    run.run_to_completion();
    EXPECT_GT(run.finish().delays.packets(), 0u);
  }
}

TEST(ScenarioRestoreCheck, RejectsReservoirSeenCountThatWraps) {
  // Before the check the next departure wrapped the full reservoir's seen
  // count to 0 and divided by it (SIGFPE).
  const Checkpoint c(100);
  const std::uint64_t seen = get_u64(c.file.payload, c.reservoir_at + 8);
  ASSERT_GT(seen, 0u) << "no delay sampled before the save";
  EXPECT_THROW(ScenarioRun(spec(), full_reservoir(c, ~std::uint64_t{0})),
               SnapshotError);
  EXPECT_THROW(ScenarioRun(spec(), full_reservoir(c, std::uint64_t{1} << 63)),
               SnapshotError);
  // Control: the largest accepted count restores and keeps sampling.
  ScenarioRun run(spec(), full_reservoir(c, (std::uint64_t{1} << 63) - 1));
  run.run_to_completion();
  EXPECT_GT(run.finish().delays.packets(), seen);
}

TEST(ScenarioRestoreCheck, CliRestoreOfCraftedFilesExits2) {
  // The controls restore (exit 0), so the crafted files fail on the
  // field they change.
  for (const auto& [files, expected] :
       {std::pair{crafted_files(), 2}, std::pair{control_files(), 0}}) {
    for (const auto& [name, file] : files) {
      const std::string path =
          testing::TempDir() + "scenario_restore_check_" + name + ".wsnp";
      write_snapshot_file(path, file.manifest_json, file.payload);
      const std::string command = std::string(WS_CLI) + " run --restore " +
                                  path + " > /dev/null 2>&1";
      const int status = std::system(command.c_str());
      ASSERT_TRUE(WIFEXITED(status)) << name;
      EXPECT_EQ(WEXITSTATUS(status), expected) << name;
      std::remove(path.c_str());
    }
  }
}

}  // namespace
}  // namespace wormsched::harness
