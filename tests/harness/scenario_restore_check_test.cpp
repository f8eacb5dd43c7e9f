// Crafted scenario checkpoints: a CRC only guards accidental damage, so a
// restore must reject a CRC-valid file whose contents cannot come from a
// run — with SnapshotError in the library and exit 2 in the CLI, never an
// assertion abort or an allocation failure.  The crafted files start from
// a checkpoint saved before cycle 0 or 100, or at the first cycle after
// 100 with a packet in flight, and patch its fields by path.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/archive.hpp"
#include "common/snapshot.hpp"
#include "common/stats.hpp"
#include "harness/checkpoint.hpp"
#include "metrics/activity.hpp"
#include "metrics/delay.hpp"
#include "metrics/service_log.hpp"
#include "../common/field_map.hpp"

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

template <typename T>
std::vector<std::uint8_t> saved(const T& state) {
  SnapshotWriter w;
  save_fields(w, state);
  return w.bytes();
}

/// The checkpoint saved before cycle `at`, with its field map.
struct Checkpoint {
  explicit Checkpoint(Cycle cycle = 0) : at(cycle) {
    ScenarioRun run(spec());
    run.advance_to(at);
    file = run.make_snapshot_file();
    map = describe_checkpoint(file);
  }

  [[nodiscard]] std::uint64_t value(const std::string& path) const {
    return test::get(file.payload, map, path);
  }

  /// The saved activity tracker, as the restore reads it.
  [[nodiscard]] metrics::ActivityTracker tracker() const {
    metrics::ActivityTracker t(kFlows);
    const std::vector<std::uint8_t> bytes =
        test::span_bytes(file.payload, map, "SSTA.activity");
    SnapshotReader r(bytes);
    restore_fields(r, t);
    return t;
  }

  /// This checkpoint with the field at `path` set to `v`.
  [[nodiscard]] SnapshotFile with(const std::string& path,
                                  std::uint64_t v) const {
    SnapshotFile out = file;
    test::set(out.payload, map, path, v);
    return out;
  }
  /// This checkpoint with the object under `prefix` replaced by `bytes`.
  [[nodiscard]] SnapshotFile spliced(
      const std::string& prefix, const std::vector<std::uint8_t>& bytes) const {
    SnapshotFile out = file;
    out.payload = test::spliced(file.payload, map, prefix, bytes);
    return out;
  }
  [[nodiscard]] SnapshotFile with_tracker(
      const std::vector<std::uint8_t>& tracker) const {
    return spliced("SSTA.activity", tracker);
  }
  [[nodiscard]] SnapshotFile with_log(
      const std::vector<std::uint8_t>& log) const {
    return spliced("SSTA.service_log", log);
  }

  Cycle at;
  SnapshotFile file;
  FieldMap map;
};

constexpr const char* kLatched = "SSTA.scheduler.base.latched";
constexpr const char* kLatchedFlow = "SSTA.scheduler.base.latched_flow";
constexpr const char* kErr = "SSTA.scheduler.discipline.";
constexpr const char* kReservoir = "SSTA.delays.quantiles.";
constexpr const char* kFlowCapacity = "SSTA.delays.flow_reservoir_capacity";
constexpr const char* kStarts = "SSTA.service_starts";

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
  return c.with(std::string(kStarts) + ".count", ~std::uint64_t{0});
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
  const std::uint64_t n = c.value(std::string(kStarts) + ".count");
  return c.with(std::string(kStarts) + "[" + std::to_string(n - 1) + "]",
                cycle);
}

/// The checkpoint with its overall delay reservoir full (capacity equal
/// to the samples held) and `seen` samples seen.
SnapshotFile full_reservoir(const Checkpoint& c, std::uint64_t seen) {
  const std::string reservoir = kReservoir;
  SnapshotFile out =
      c.with(reservoir + "capacity", c.value(reservoir + "samples.count"));
  test::set(out.payload, c.map, reservoir + "seen", seen);
  return out;
}

/// The ERR flow first in the ActiveList.
std::uint64_t first_listed(const Checkpoint& c) {
  return c.value(std::string(kErr) + "active[0]");
}

/// The first checkpoint after cycle 100 with a packet in flight and
/// another flow waiting in ERR's ActiveList.
Checkpoint in_flight() {
  for (Cycle at = 100; at < spec().config.horizon; ++at) {
    Checkpoint c(at);
    if (c.value(kLatched) != 0 &&
        c.value(std::string(kErr) + "active.count") != 0)
      return c;
  }
  ADD_FAILURE() << "no packet in flight after cycle 100";
  return Checkpoint(100);
}

/// The checkpoint with ERR's weight of its first listed flow set to `w`.
SnapshotFile with_listed_weight(const Checkpoint& c, double w) {
  SnapshotFile out = c.file;
  test::set_f64(out.payload, c.map,
                std::string(kErr) + "rows[" + std::to_string(first_listed(c)) +
                    "].weight",
                w);
  return out;
}

/// The checkpoint with the string field at `path` (SCFG.scheduler or
/// SCFG.workload) ending in `tail` instead: a same-length edit.
SnapshotFile with_text_tail(const Checkpoint& c, const std::string& path,
                            const std::string& tail) {
  SnapshotFile out = c.file;
  const FieldInfo& bytes = test::field_at(c.map, path + ".bytes");
  EXPECT_GE(bytes.width, tail.size()) << path;
  std::copy(tail.begin(), tail.end(),
            out.payload.begin() +
                static_cast<std::ptrdiff_t>(bytes.offset + bytes.width -
                                            tail.size()));
  return out;
}

/// The checkpoint with SCFG's weight of flow 0 set to `w`.
SnapshotFile with_config_weight(const Checkpoint& c, double w) {
  SnapshotFile out = c.file;
  test::set_f64(out.payload, c.map, "SCFG.weights[0]", w);
  return out;
}

/// SCFG fields a run cannot use, each with the field its error names:
/// before the check each aborted the restore (exit 134).
std::vector<std::pair<SnapshotFile, std::string>> unusable_configs(
    const Checkpoint& c) {
  return {
      // The scheduler names no discipline (spec() runs ERR).
      {with_text_tail(c, "SCFG.scheduler", "zzz"), "SCFG.scheduler"},
      // A weight ERR cannot take, and one no discipline can.
      {with_config_weight(c, 0.5), "SCFG.weights"},
      {with_config_weight(c, std::nan("")), "SCFG.weights"},
      // The workload gains a flow (*3 -> *4); the weights do not.
      {with_text_tail(c, "SCFG.workload", "4"), "SCFG.weights"},
  };
}

constexpr std::uint64_t kFarFlow = 0x7FFFFFF0;

/// The crafted files the CLI must reject, by name.
std::vector<std::pair<std::string, SnapshotFile>> crafted_files() {
  const Checkpoint c0;
  const Checkpoint c100(100);
  const Checkpoint busy = in_flight();
  return {
      {"latch_out_of_range", busy.with(kLatchedFlow, kFarFlow)},
      {"err_service_out_of_range",
       busy.with(std::string(kErr) + "current", kFarFlow)},
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
      {"zero_reservoir_capacity",
       c0.with(std::string(kReservoir) + "capacity", 0)},
      {"zero_flow_reservoir_capacity", c0.with(kFlowCapacity, 0)},
      {"zero_flow_reservoir_capacity_sampled", c100.with(kFlowCapacity, 0)},
      {"wrapping_seen_count", full_reservoir(c100, ~std::uint64_t{0})},
      {"scheduler_naming_no_discipline", unusable_configs(c0)[0].first},
      {"err_config_weight_below_1", unusable_configs(c0)[1].first},
      {"config_weight_nan", unusable_configs(c0)[2].first},
      {"workload_gaining_a_flow", unusable_configs(c0)[3].first},
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
      {"reservoir_capacity_1",
       c0.with(std::string(kReservoir) + "capacity", 1)},
      {"flow_reservoir_capacity_1", c0.with(kFlowCapacity, 1)},
      {"flow_reservoir_capacity_1_sampled", c100.with(kFlowCapacity, 1)},
      {"largest_seen_count",
       full_reservoir(c100, (std::uint64_t{1} << 63) - 1)},
      {"err_config_weight_1", with_config_weight(c0, 1.0)},
      {"workload_same_flows", with_text_tail(c0, "SCFG.workload", "3")},
  };
}

TEST(ScenarioRestoreCheck, CraftingOffsetsMatchTheCheckpoint) {
  // The map's spans hold what the objects save, so splicing works on them.
  for (const Cycle at : {Cycle{0}, Cycle{100}}) {
    const Checkpoint c(at);
    const std::vector<std::uint8_t>& p = c.file.payload;
    const auto bytes_of = [&c, &p](const char* prefix) {
      return test::span_bytes(p, c.map, prefix);
    };
    EXPECT_EQ(c.value("SSTA.service_log.cycles.count"), kFlows) << at;
    EXPECT_EQ(c.value("SSTA.activity.windows.count"), kFlows) << at;
    EXPECT_EQ(saved(c.tracker()), bytes_of("SSTA.activity")) << at;
    EXPECT_EQ(c.value(std::string(kReservoir) + "capacity"),
              std::uint64_t{1} << 20)
        << at;
    EXPECT_EQ(c.value(kFlowCapacity), std::uint64_t{1} << 18) << at;
    EXPECT_EQ(test::span(c.map, "SSTA").end, p.size()) << at;
    if (at == 0) {
      EXPECT_EQ(bytes_of("SSTA.service_log"),
                saved(metrics::ServiceLog(kFlows)));
      EXPECT_EQ(bytes_of("SSTA.activity"),
                saved(metrics::ActivityTracker(kFlows)));
    } else {
      EXPECT_GT(c.value(std::string(kStarts) + ".count"), 0u)
          << "no service start to move";
    }
    // Splicing the same log or re-encoded tracker back in changes nothing.
    EXPECT_EQ(c.with_log(bytes_of("SSTA.service_log")).payload, p) << at;
    EXPECT_EQ(c.with_tracker(saved(c.tracker())).payload, p) << at;
  }
}

TEST(ScenarioRestoreCheck, SchedulerOffsetsMatchTheCheckpoint) {
  const Checkpoint c = in_flight();
  EXPECT_EQ(c.value("SSTA.scheduler.base.tag"), 0x53424153u);  // SABS
  EXPECT_EQ(c.value("SSTA.scheduler.base.queues.count"), kFlows);
  EXPECT_EQ(c.value(std::string(kErr) + "tag"), 0x53444953u);  // SIDS
  EXPECT_EQ(c.value(std::string(kErr) + "rows.count"), kFlows);
  EXPECT_EQ(c.value(std::string(kErr) + "in_opportunity"), 1u);
  EXPECT_EQ(c.value(std::string(kErr) + "current"), c.value(kLatchedFlow));
  EXPECT_EQ(c.value(std::string(kErr) + "active_count"),
            c.value(std::string(kErr) + "active.count") + 1);
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
  const std::string capacity = std::string(kReservoir) + "capacity";
  ASSERT_GT(c100.value(std::string(kReservoir) + "seen"), 0u)
      << "no flow sampled before the save";
  EXPECT_THROW(ScenarioRun(spec(), c0.with(capacity, 0)), SnapshotError);
  EXPECT_THROW(ScenarioRun(spec(), c0.with(kFlowCapacity, 0)), SnapshotError);
  EXPECT_THROW(ScenarioRun(spec(), c100.with(kFlowCapacity, 0)),
               SnapshotError);
  // Controls: a one-sample capacity restores and runs.
  for (const SnapshotFile& file : {c0.with(capacity, 1),
                                   c0.with(kFlowCapacity, 1),
                                   c100.with(kFlowCapacity, 1)}) {
    ScenarioRun run(spec(), file);
    run.run_to_completion();
    EXPECT_GT(run.finish().delays.packets(), 0u);
  }
}

TEST(ScenarioRestoreCheck, RejectsReservoirSeenCountThatWraps) {
  // Before the check the next departure wrapped the full reservoir's seen
  // count to 0 and divided by it (SIGFPE).
  const Checkpoint c(100);
  const std::uint64_t seen = c.value(std::string(kReservoir) + "seen");
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

TEST(ScenarioRestoreCheck, RejectsConfigTheRunCannotUse) {
  const Checkpoint c;
  for (const auto& [file, field] : unusable_configs(c)) {
    try {
      ScenarioRun run(spec(), file);
      ADD_FAILURE() << "restored a checkpoint with a bad " << field;
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
  // Controls: the same edits with values a run can hold.
  EXPECT_NO_THROW(ScenarioRun(spec(), with_config_weight(c, 1.0)));
  EXPECT_NO_THROW(
      ScenarioRun(spec(), with_text_tail(c, "SCFG.workload", "3")));
}

TEST(ScenarioRestoreCheck, CliRestoreOfCraftedFilesExits2) {
  // The controls restore (exit 0), so the crafted files fail on the
  // field they change, each with one `wormsched:` line.
  for (const auto& [files, expected] :
       {std::pair{crafted_files(), 2}, std::pair{control_files(), 0}}) {
    for (const auto& [name, file] : files) {
      const std::string path =
          testing::TempDir() + "scenario_restore_check_" + name + ".wsnp";
      write_snapshot_file(path, file.manifest_json, file.payload);
      const std::string err_path = path + ".stderr";
      const std::string command = std::string(WS_CLI) + " run --restore " +
                                  path + " > /dev/null 2> " + err_path;
      const int status = std::system(command.c_str());
      ASSERT_TRUE(WIFEXITED(status)) << name;
      EXPECT_EQ(WEXITSTATUS(status), expected) << name;
      std::vector<std::string> err;
      std::ifstream in(err_path);
      for (std::string line; std::getline(in, line);) err.push_back(line);
      if (expected == 2) {
        EXPECT_EQ(err.size(), 1u) << name;
        if (!err.empty()) {
          EXPECT_EQ(err[0].rfind("wormsched: ", 0), 0u) << name << ": "
                                                        << err[0];
        }
      }
      std::remove(path.c_str());
      std::remove(err_path.c_str());
    }
  }
}

}  // namespace
}  // namespace wormsched::harness
