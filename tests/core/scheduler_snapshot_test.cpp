// Scheduler checkpoint/restore differential, over every registered
// discipline (docs/TESTING.md).
//
// Methodology: one deterministic arrival script drives two executions of
// the same discipline — straight through N cycles, and split at cycle k
// by save_fields() into a freshly constructed instance that continues via
// restore_fields().  The emitted flit streams (flow, packet, index,
// head/tail flags, and the cycle of emission) must be identical, which
// pins every piece of discipline-private state (ERR allowances and
// surplus counts, DRR deficits, timestamp virtual clocks, round cursors)
// as well as the framework's queues, weights, and in-flight latch.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/archive.hpp"
#include "common/snapshot.hpp"
#include "core/packet.hpp"
#include "core/registry.hpp"
#include "core/scheduler.hpp"
#include "../common/field_map.hpp"

namespace wormsched::core {
namespace {

constexpr std::size_t kNumFlows = 4;
constexpr Cycle kHorizon = 900;
constexpr Cycle kSplit = 311;  // deliberately not a round boundary

struct Arrival {
  Cycle cycle;
  Packet packet;
};

/// Deterministic arrival script shared by both executions: a simple LCG
/// (not the simulator Rng, so this test has no dependency on its
/// stream) mixes flows and lengths, with a mid-run idle gap so
/// idle-reset disciplines exercise their reset path.
std::vector<Arrival> make_script() {
  std::vector<Arrival> script;
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  PacketId::rep_type next_id = 0;
  for (Cycle t = 0; t < kHorizon; ++t) {
    if (t >= 400 && t < 480) continue;  // idle gap
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    if ((x >> 33) % 100 < 35) {
      const auto flow = static_cast<FlowId::rep_type>((x >> 17) % kNumFlows);
      const auto length = static_cast<Flits>(1 + ((x >> 7) % 8));
      script.push_back({t, Packet{.id = PacketId(next_id++),
                                  .flow = FlowId(flow),
                                  .length = length,
                                  .arrival = t}});
    }
  }
  return script;
}

SchedulerParams params_for(std::string_view name) {
  SchedulerParams params;
  params.num_flows = kNumFlows;
  params.drr_quantum = 8;  // max packet length in the script
  if (name == "perr") params.perr_priorities = {0, 1, 0, 1};
  return params;
}

std::unique_ptr<Scheduler> fresh(std::string_view name) {
  auto scheduler = make_scheduler(name, params_for(name));
  EXPECT_NE(scheduler, nullptr) << name;
  return scheduler;
}

struct EmittedFlit {
  Cycle cycle;
  FlowId::rep_type flow;
  PacketId::rep_type packet;
  Flits index;
  bool is_head;
  bool is_tail;

  bool operator==(const EmittedFlit& o) const {
    return cycle == o.cycle && flow == o.flow && packet == o.packet &&
           index == o.index && is_head == o.is_head && is_tail == o.is_tail;
  }
};

/// Drives `scheduler` over cycles [from, to), feeding the script and
/// appending every emitted flit to `out`.
void drive(Scheduler& scheduler, const std::vector<Arrival>& script,
           Cycle from, Cycle to, std::vector<EmittedFlit>& out) {
  std::size_t cursor = 0;
  while (cursor < script.size() && script[cursor].cycle < from) ++cursor;
  for (Cycle t = from; t < to; ++t) {
    while (cursor < script.size() && script[cursor].cycle == t)
      scheduler.enqueue(t, script[cursor++].packet);
    if (const auto flit = scheduler.pull_flit(t))
      out.push_back({t, flit->flow.value(), flit->packet.value(), flit->index,
                     flit->is_head, flit->is_tail});
  }
}

class SchedulerSnapshotTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedulerSnapshotTest, SplitRunMatchesStraightRun) {
  const std::string name = GetParam();
  const std::vector<Arrival> script = make_script();

  std::vector<EmittedFlit> straight;
  {
    auto scheduler = fresh(name);
    scheduler->set_weight(FlowId(1), 2.0);
    scheduler->set_weight(FlowId(3), 3.0);
    drive(*scheduler, script, 0, kHorizon, straight);
  }

  std::vector<EmittedFlit> split;
  SnapshotWriter w;
  {
    auto scheduler = fresh(name);
    scheduler->set_weight(FlowId(1), 2.0);
    scheduler->set_weight(FlowId(3), 3.0);
    drive(*scheduler, script, 0, kSplit, split);
    save_fields(w, *scheduler);
  }  // the saving instance is gone before the restore, like a real restart
  {
    auto scheduler = fresh(name);
    // Weights are deliberately NOT re-applied: they are part of the
    // snapshot and must survive the restore on their own.
    SnapshotReader r(w.bytes());
    restore_fields(r, *scheduler);
    drive(*scheduler, script, kSplit, kHorizon, split);
  }

  ASSERT_EQ(straight.size(), split.size()) << name;
  for (std::size_t i = 0; i < straight.size(); ++i)
    ASSERT_TRUE(straight[i] == split[i]) << name << " flit " << i << " at "
                                         << straight[i].cycle << " vs "
                                         << split[i].cycle;
}

TEST_P(SchedulerSnapshotTest, DoubleSplitAlsoMatches) {
  // Checkpoint chains: save -> restore -> save -> restore must compose.
  const std::string name = GetParam();
  const std::vector<Arrival> script = make_script();

  std::vector<EmittedFlit> straight;
  {
    auto scheduler = fresh(name);
    drive(*scheduler, script, 0, kHorizon, straight);
  }

  std::vector<EmittedFlit> chained;
  SnapshotWriter first;
  {
    auto scheduler = fresh(name);
    drive(*scheduler, script, 0, 200, chained);
    save_fields(first, *scheduler);
  }
  SnapshotWriter second;
  {
    auto scheduler = fresh(name);
    SnapshotReader r(first.bytes());
    restore_fields(r, *scheduler);
    drive(*scheduler, script, 200, 500, chained);
    save_fields(second, *scheduler);
  }
  {
    auto scheduler = fresh(name);
    SnapshotReader r(second.bytes());
    restore_fields(r, *scheduler);
    drive(*scheduler, script, 500, kHorizon, chained);
  }

  ASSERT_EQ(straight.size(), chained.size()) << name;
  for (std::size_t i = 0; i < straight.size(); ++i)
    ASSERT_TRUE(straight[i] == chained[i]) << name << " flit " << i;
}

TEST_P(SchedulerSnapshotTest, FlowCountMismatchThrows) {
  const std::string name = GetParam();
  SnapshotWriter w;
  {
    auto scheduler = fresh(name);
    save_fields(w, *scheduler);
  }
  SchedulerParams wrong = params_for(name);
  wrong.num_flows = kNumFlows + 1;
  if (name == "perr") wrong.perr_priorities = {0, 1, 0, 1, 0};
  auto scheduler = make_scheduler(name, wrong);
  ASSERT_NE(scheduler, nullptr);
  SnapshotReader r(w.bytes());
  EXPECT_THROW(restore_fields(r, *scheduler), SnapshotError) << name;
}

// --- Crafted checkpoints -------------------------------------------------
//
// A CRC only guards accidental damage, so a restore must reject state a
// run cannot reach with SnapshotError, before the next pull_flit() trips
// over it.  Each case below aborted or crashed the parent at that pull.
// Fields are patched by path through the describer's map.

using test::get;
using test::set;
using test::set_f64;

constexpr std::uint32_t kFarFlow = 0x7FFFFFF0;

/// The field map of a saved `name` scheduler: the bytes restored into a
/// fresh one with recording on.
FieldMap describe(std::string_view name,
                  const std::vector<std::uint8_t>& bytes) {
  auto scheduler = fresh(name);
  SnapshotReader r(bytes);
  FieldMap map;
  restore_fields(r, *scheduler, &map);
  return map;
}

/// An ERR checkpoint from the first cycle where a packet is mid-flight,
/// other flows wait in the ActiveList and some flow is idle.
struct ErrCheckpoint {
  ErrCheckpoint() {
    const std::vector<Arrival> script = make_script();
    auto scheduler = fresh("err");
    std::vector<EmittedFlit> out;
    for (at = 1; at < kHorizon; ++at) {
      drive(*scheduler, script, at - 1, at, out);
      SnapshotWriter w;
      save_fields(w, *scheduler);
      bytes = w.bytes();
      map = describe("err", bytes);
      latched = static_cast<std::uint32_t>(value("base.latched_flow"));
      if (value("base.latched") == 0 || list().empty()) continue;
      for (std::uint32_t f = 0; f < kNumFlows; ++f)
        if (value("base.queues[" + std::to_string(f) + "].packets.count") == 0)
          idle = f;
      if (idle != kNumFlows) return;
    }
    ADD_FAILURE() << "the script never reaches the crafting state";
  }

  [[nodiscard]] std::uint64_t value(const std::string& path) const {
    return get(bytes, map, path);
  }
  /// The ActiveList, head first.
  [[nodiscard]] std::vector<std::uint32_t> list() const {
    std::vector<std::uint32_t> flows;
    for (std::uint64_t i = 0; i < value("discipline.active.count"); ++i)
      flows.push_back(static_cast<std::uint32_t>(
          value("discipline.active[" + std::to_string(i) + "]")));
    return flows;
  }
  /// These bytes with the field at `path` set to `v`.
  [[nodiscard]] std::vector<std::uint8_t> with(const std::string& path,
                                               std::uint64_t v) const {
    std::vector<std::uint8_t> p = bytes;
    set(p, map, path, v);
    return p;
  }
  [[nodiscard]] std::vector<std::uint8_t> with_f64(const std::string& path,
                                                   double v) const {
    std::vector<std::uint8_t> p = bytes;
    set_f64(p, map, path, v);
    return p;
  }

  Cycle at = 0;  // the next cycle to run
  std::vector<std::uint8_t> bytes;
  FieldMap map;
  std::uint32_t latched = 0;       // the flow with a packet in flight
  std::uint32_t idle = kNumFlows;  // a flow with an empty queue
};

std::string flow_path(const char* table, std::uint32_t flow,
                      const char* field = "") {
  return std::string(table) + "[" + std::to_string(flow) + "]" + field;
}

/// Restores `bytes` into a fresh `name` scheduler and serves the rest of
/// the script; throws what the restore throws.
void restore_and_run(std::string_view name,
                     const std::vector<std::uint8_t>& bytes, Cycle from) {
  auto scheduler = fresh(name);
  SnapshotReader r(bytes);
  restore_fields(r, *scheduler);
  std::vector<EmittedFlit> out;
  drive(*scheduler, make_script(), from, kHorizon, out);
  EXPECT_FALSE(out.empty());
}

TEST(SchedulerRestoreCheck, UnmodifiedCheckpointRestoresAndRuns) {
  const ErrCheckpoint c;
  EXPECT_NO_THROW(restore_and_run("err", c.bytes, c.at));
}

TEST(SchedulerRestoreCheck, RejectsLatchOnAFlowWithoutPackets) {
  // Before the check, latching flow 0x7FFFFFF0 crashed the next pull
  // (SIGSEGV).
  const ErrCheckpoint c;
  for (const std::uint32_t flow : {kFarFlow, c.idle})
    EXPECT_THROW(
        restore_and_run("err", c.with("base.latched_flow", flow), c.at),
        SnapshotError)
        << flow;
}

TEST(SchedulerRestoreCheck, RejectsProgressPastTheHeadPacket) {
  const ErrCheckpoint c;
  const auto head = static_cast<Flits>(
      c.value(flow_path("base.queues", c.latched, ".packets[0].length")));
  for (const Flits progress : {head, head + 5, Flits{-1}})
    EXPECT_THROW(restore_and_run("err",
                                 c.with(flow_path("base.progress", c.latched),
                                        static_cast<std::uint64_t>(progress)),
                                 c.at),
                 SnapshotError)
        << progress;
  // An idle flow has no head packet to be part-way through.
  EXPECT_THROW(
      restore_and_run("err", c.with(flow_path("base.progress", c.idle), 1),
                      c.at),
      SnapshotError);
}

TEST(SchedulerRestoreCheck, RejectsPacketOfNoFlits) {
  const ErrCheckpoint c;
  for (const Flits length : {Flits{0}, Flits{-3}})
    EXPECT_THROW(
        restore_and_run(
            "err",
            c.with(flow_path("base.queues", c.latched, ".packets[0].length"),
                   static_cast<std::uint64_t>(length)),
            c.at),
        SnapshotError)
        << length;
}

TEST(SchedulerRestoreCheck, RejectsBacklogThatDisagreesWithTheQueues) {
  const ErrCheckpoint c;
  const std::uint64_t backlog = c.value("base.backlog");
  for (const std::uint64_t crafted : {backlog + 1, backlog - 1})
    EXPECT_THROW(restore_and_run("err", c.with("base.backlog", crafted), c.at),
                 SnapshotError)
        << crafted;
}

TEST(SchedulerRestoreCheck, RejectsErrServiceOutOfRangeOrListed) {
  // Before the check, flow 0x7FFFFFF0 in service aborted the next pull
  // (err.cpp assertion, exit 134).
  const ErrCheckpoint c;
  for (const std::uint32_t flow : {kFarFlow, c.list().front()})
    EXPECT_THROW(
        restore_and_run("err", c.with("discipline.current", flow), c.at),
        SnapshotError)
        << flow;
}

TEST(SchedulerRestoreCheck, RejectsErrActiveCountThatDisagreesWithTheList) {
  const ErrCheckpoint c;
  const std::size_t listed = c.list().size();
  for (const std::uint64_t count : {listed, listed + 2})  // in service: + 1
    EXPECT_THROW(
        restore_and_run("err", c.with("discipline.active_count", count), c.at),
        SnapshotError)
        << count;
}

TEST(SchedulerRestoreCheck, RejectsOpenOpportunityWithNoVisitsLeft) {
  const ErrCheckpoint c;
  EXPECT_THROW(
      restore_and_run(
          "err", c.with("discipline.round_robin_visit_count", 0), c.at),
      SnapshotError);
}

TEST(SchedulerRestoreCheck, RejectsErrWeightBelowOne) {
  // Before the check, ERR weight 0 on a queued flow aborted the next
  // opportunity ("ERR allowance must be positive (Lemma 1)", exit 134).
  const ErrCheckpoint c;
  const std::string weight =
      flow_path("discipline.rows", c.list().front(), ".weight");
  for (const double w : {0.0, 0.5, -1.0})
    EXPECT_THROW(restore_and_run("err", c.with_f64(weight, w), c.at),
                 SnapshotError)
        << w;
  // Control: set_weight() accepts 1 and up, and so does the restore.
  EXPECT_NO_THROW(restore_and_run("err", c.with_f64(weight, 2.5), c.at));
}

TEST(SchedulerRestoreCheck, RejectsSurplusBeyondTheNextAllowance) {
  // Before the check, a listed flow with SC 1e9 aborted its next
  // opportunity ("ERR allowance must be positive (Lemma 1)").
  const ErrCheckpoint c;
  const std::string sc = flow_path("discipline.rows", c.list().back(), ".sc");
  for (const double v : {1e9, std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW(restore_and_run("err", c.with_f64(sc, v), c.at),
                 SnapshotError)
        << v;
}

TEST(SchedulerRestoreCheck, RejectsDrrAndSrrServiceOutOfRange) {
  for (const std::string_view name : {"drr", "srr"}) {
    auto scheduler = fresh(name);
    std::vector<EmittedFlit> out;
    drive(*scheduler, make_script(), 0, kSplit, out);
    SnapshotWriter w;
    save_fields(w, *scheduler);
    std::vector<std::uint8_t> p = w.bytes();
    EXPECT_NO_THROW(restore_and_run(name, p, kSplit)) << name;
    const FieldMap map = describe(name, p);
    set(p, map, "discipline.in_opportunity", 1);
    set(p, map, "discipline.current", kFarFlow);
    EXPECT_THROW(restore_and_run(name, p, kSplit), SnapshotError) << name;
  }
}

TEST(SchedulerRestoreCheck, RejectsPerrClassWeightBelowOne) {
  auto scheduler = fresh("perr");
  std::vector<EmittedFlit> out;
  drive(*scheduler, make_script(), 0, kSplit, out);
  SnapshotWriter w;
  save_fields(w, *scheduler);
  std::vector<std::uint8_t> p = w.bytes();
  const FieldMap map = describe("perr", p);
  // Flow 0 is in class 0.
  ASSERT_EQ(get(p, map, "discipline.classes.count"), 2u);
  EXPECT_NO_THROW(restore_and_run("perr", p, kSplit));
  set_f64(p, map, "discipline.classes[0].rows[0].weight", 0.0);
  EXPECT_THROW(restore_and_run("perr", p, kSplit), SnapshotError);
}

std::vector<std::string> all_scheduler_names() {
  std::vector<std::string> names;
  for (const std::string_view name : scheduler_names())
    names.emplace_back(name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllDisciplines, SchedulerSnapshotTest,
                         ::testing::ValuesIn(all_scheduler_names()),
                         [](const auto& param_info) {
                           std::string tag = param_info.param;
                           for (char& c : tag)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return tag;
                         });

}  // namespace
}  // namespace wormsched::core
