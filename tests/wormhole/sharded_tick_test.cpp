// Differential + fuzz coverage for the sharded multi-threaded tick.
//
// NetworkConfig::{shards, threads} promise results bit-identical to a
// single-shard run: same packets, same delivery cycles, same flit counts,
// same latency statistics (down to floating-point summation order), and
// the same auditor verdicts.  This suite drives the promise across shard
// geometries (including shards > routers, degenerate 1x1 and 1xN meshes,
// and torus wrap links that cross shard boundaries), the threads < shards
// oversubscription path, the single-threaded staging path (threads = 1,
// shards > 1), the caller-thread executor a sharded config runs while a
// trace sink or perf counters are attached, and a 200-seed faulted +
// unfaulted fuzz corpus.
#include <gtest/gtest.h>

#include <cstdio>
#include <initializer_list>
#include <optional>
#include <tuple>
#include <vector>

#include "metrics/perf_counters.hpp"
#include "obs/trace_sink.hpp"
#include "validate/faults.hpp"
#include "validate/network_auditor.hpp"
#include "validate/violation.hpp"
#include "wormhole/network.hpp"
#include "wormhole/patterns.hpp"
#include "../common/tick_loop.hpp"

namespace wormsched::wormhole {
namespace {

using validate::AuditLog;
using validate::FaultSpec;

struct ShardedMode {
  std::uint32_t threads = 1;
  std::uint32_t shards = 1;
};

struct FabricRun {
  std::vector<DeliveredPacket> delivered;
  std::uint64_t delivered_flits = 0;
  std::uint64_t generated = 0;
  Cycle end_cycle = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t audit_checks = 0;
  double latency_mean = 0.0;
  double latency_max = 0.0;
};

/// Single-threaded sinks a run may attach (not owned).
struct Sinks {
  obs::TraceSink* trace = nullptr;
  metrics::PerfCounters* perf = nullptr;
};

FabricRun run_fabric(TopologySpec topo, ShardedMode mode, std::uint64_t seed,
                     FaultSpec spec, Cycle inject_until,
                     FlowControl flow_control = FlowControl::kCredit,
                     Sinks sinks = {}) {
  NetworkConfig config;
  config.topo = topo;
  config.router.num_vcs = 2;  // torus-legal everywhere, same in every run
  config.router.flow_control = flow_control;
  config.threads = mode.threads;
  config.shards = mode.shards;
  std::optional<validate::ScheduledFaults> faults;
  if (spec.enabled) {
    spec.seed += seed;
    spec.num_nodes = topo.num_nodes();
    faults.emplace(spec);
    config.faults = &*faults;
  }
  Network net(config);
  AuditLog log(AuditLog::Mode::kCount);
  validate::NetworkAuditor auditor(validate::NetworkAuditorConfig{}, log);
  net.attach_observer(&auditor);
  net.set_trace_sink(sinks.trace);
  net.set_perf_counters(sinks.perf);

  NetworkTrafficSource::Config traffic;
  traffic.packets_per_node_per_cycle = 0.04;
  traffic.inject_until = inject_until;
  traffic.seed = seed;
  traffic.faults = config.faults;
  NetworkTrafficSource source(net, traffic);

  test::TickLoop loop(source, net);
  loop.run_until(traffic.inject_until);
  FabricRun run;
  run.end_cycle = loop.run_until_idle(200'000);
  run.delivered = net.delivered();
  run.delivered_flits = net.delivered_flits();
  run.generated = source.generated();
  run.audit_violations = log.count();
  run.audit_checks = auditor.checks_run();
  run.latency_mean = net.latency_overall().mean();
  run.latency_max = net.latency_overall().max();
  return run;
}

void expect_same_run(const FabricRun& ref, const FabricRun& other,
                     const char* label) {
  EXPECT_EQ(other.audit_violations, ref.audit_violations) << label;
  EXPECT_EQ(ref.generated, other.generated) << label;
  EXPECT_EQ(ref.end_cycle, other.end_cycle) << label;
  EXPECT_EQ(ref.delivered_flits, other.delivered_flits) << label;
  // Exact double equality on purpose: the commit phase replays ejections
  // in serial order, so even the float summation order must match.
  EXPECT_EQ(ref.latency_mean, other.latency_mean) << label;
  EXPECT_EQ(ref.latency_max, other.latency_max) << label;
  ASSERT_EQ(ref.delivered.size(), other.delivered.size()) << label;
  for (std::size_t i = 0; i < ref.delivered.size(); ++i) {
    const DeliveredPacket& a = ref.delivered[i];
    const DeliveredPacket& d = other.delivered[i];
    ASSERT_EQ(a.id.value(), d.id.value()) << label << " packet #" << i;
    ASSERT_EQ(a.flow.value(), d.flow.value()) << label << " packet #" << i;
    ASSERT_EQ(a.source.value(), d.source.value()) << label << " packet #" << i;
    ASSERT_EQ(a.dest.value(), d.dest.value()) << label << " packet #" << i;
    ASSERT_EQ(a.length, d.length) << label << " packet #" << i;
    ASSERT_EQ(a.created, d.created) << label << " packet #" << i;
    ASSERT_EQ(a.delivered, d.delivered) << label << " packet #" << i;
  }
}

void expect_sharded_matches_serial(TopologySpec topo, std::uint64_t seed,
                                   const FaultSpec& spec, Cycle inject_until,
                                   std::initializer_list<ShardedMode> modes) {
  const FabricRun serial =
      run_fabric(topo, ShardedMode{1, 1}, seed, spec, inject_until);
  EXPECT_GT(serial.delivered.size(), 0u);
  EXPECT_EQ(serial.audit_violations, 0u);
  for (const ShardedMode mode : modes) {
    const FabricRun sharded = run_fabric(topo, mode, seed, spec, inject_until);
    char label[64];
    std::snprintf(label, sizeof label, "threads=%u shards=%u", mode.threads,
                  mode.shards);
    expect_same_run(serial, sharded, label);
  }
}

// ---------------------------------------------------------------------------
// Geometry / accessor sanity.

TEST(ShardedTick, ShardCountClampsToRouterCount) {
  NetworkConfig config;
  config.topo = TopologySpec::mesh(4, 4);
  config.shards = 64;  // > 16 routers
  config.threads = 64;
  Network net(config);
  EXPECT_EQ(net.shard_count(), 16u);
  EXPECT_EQ(net.tick_lanes(), 16u);  // threads clamp to shards
}

TEST(ShardedTick, LanesClampToShards) {
  NetworkConfig config;
  config.topo = TopologySpec::mesh(4, 4);
  config.shards = 2;
  config.threads = 8;
  Network net(config);
  EXPECT_EQ(net.shard_count(), 2u);
  EXPECT_EQ(net.tick_lanes(), 2u);
}

TEST(ShardedTick, SingleShardStaysSerial) {
  NetworkConfig config;
  config.topo = TopologySpec::mesh(4, 4);
  config.shards = 1;
  config.threads = 8;
  Network net(config);
  EXPECT_EQ(net.shard_count(), 1u);
  EXPECT_EQ(net.tick_lanes(), 1u);  // no team is built for one shard
}

// A 1x1 mesh: every shard request collapses to one serial shard, and a
// packet whose source is its destination must still flow NIC -> router ->
// ejection.
TEST(ShardedTick, OneByOneMeshDeliversLocally) {
  for (const std::uint32_t shards : {1u, 8u}) {
    NetworkConfig config;
    config.topo = TopologySpec::mesh(1, 1);
    config.shards = shards;
    config.threads = shards;
    Network net(config);
    EXPECT_EQ(net.shard_count(), 1u);
    PacketDescriptor pkt;
    pkt.id = PacketId(1);
    pkt.flow = FlowId(0);
    pkt.source = NodeId(0);
    pkt.dest = NodeId(0);
    pkt.length = 5;
    pkt.created = 0;
    net.inject(0, pkt);
    test::TickLoop loop(net);
    loop.run_until_idle(1'000);
    ASSERT_EQ(net.delivered().size(), 1u) << "shards=" << shards;
    EXPECT_EQ(net.delivered()[0].length, 5u);
    EXPECT_EQ(net.delivered_flits(), 5u);
  }
}

// ---------------------------------------------------------------------------
// Differential: sharded == serial, bit for bit.

TEST(ShardedTick, MeshMatchesSerialAcrossGeometries) {
  // 4x4 mesh, no faults: even split, uneven split (16 % 5 != 0), the
  // threads < shards oversubscription path, the single-threaded staging
  // path, and the shards > routers clamp.
  expect_sharded_matches_serial(TopologySpec::mesh(4, 4), /*seed=*/11,
                                FaultSpec{}, /*inject_until=*/1200,
                                {ShardedMode{2, 2}, ShardedMode{4, 4},
                                 ShardedMode{3, 5}, ShardedMode{1, 4},
                                 ShardedMode{64, 64}});
}

TEST(ShardedTick, FaultedMeshMatchesSerial) {
  FaultSpec spec = FaultSpec::chaos(0);
  expect_sharded_matches_serial(TopologySpec::mesh(4, 4), /*seed=*/3, spec,
                                /*inject_until=*/1200,
                                {ShardedMode{4, 4}, ShardedMode{2, 7}});
}

TEST(ShardedTick, OneByNMeshMatchesSerial) {
  // A 1x8 line: every link is a shard-boundary link once shards > 1.
  expect_sharded_matches_serial(TopologySpec::mesh(1, 8), /*seed=*/5,
                                FaultSpec{}, /*inject_until=*/1500,
                                {ShardedMode{2, 2}, ShardedMode{4, 8}});
}

TEST(ShardedTick, TorusWrapLinksCrossShardBoundaries) {
  // On a 4x4 torus split into 4 row-ish shards, the north/south wrap
  // links connect the first and last shards directly; dateline VC
  // remapping must survive the staged commit.
  expect_sharded_matches_serial(TopologySpec::torus(4, 4), /*seed=*/7,
                                FaultSpec{}, /*inject_until=*/1200,
                                {ShardedMode{4, 4}, ShardedMode{2, 3}});
}

TEST(ShardedTick, FaultedTorusMatchesSerial) {
  FaultSpec spec;
  spec.enabled = true;
  spec.credit_stall_rate = 0.4;
  spec.credit_stall_cycles = 20;
  expect_sharded_matches_serial(TopologySpec::torus(4, 4), /*seed=*/13, spec,
                                /*inject_until=*/1200, {ShardedMode{4, 4}});
}

// ---------------------------------------------------------------------------
// Caller-thread executor: with a trace sink or perf counters attached, a
// shards=4/threads=4 config ticks on the caller thread.  Each run must
// reproduce the single-shard run, and tracing must record the identical
// event stream.

void expect_same_events(const obs::TraceSink& ref, const obs::TraceSink& other,
                        const char* label) {
  EXPECT_EQ(ref.dropped(), 0u) << label << ": ring too small";
  EXPECT_EQ(ref.recorded(), other.recorded()) << label;
  const std::vector<obs::TraceEvent> a = ref.snapshot();
  const std::vector<obs::TraceEvent> b = other.snapshot();
  ASSERT_EQ(a.size(), b.size()) << label;
  const auto fields = [](const obs::TraceEvent& e) {
    return std::tuple(e.cycle, static_cast<int>(e.kind), e.flow, e.node,
                      e.aux, e.id, e.v0, e.v1);
  };
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(fields(a[i]), fields(b[i])) << label << " event #" << i;
}

/// Runs `topo` single-shard untraced, then single-shard and at
/// shards=4/threads=4 traced, then both counted; returns the sharded
/// trace.
obs::TraceSink expect_caller_thread_matches(TopologySpec topo,
                                            FlowControl flow_control,
                                            const FaultSpec& spec,
                                            std::uint64_t seed) {
  constexpr Cycle kInjectUntil = 1200;
  const ShardedMode serial{1, 1};
  const ShardedMode sharded{4, 4};
  obs::TraceSink::Options options;
  options.capacity = std::size_t{1} << 18;
  const FabricRun ref =
      run_fabric(topo, serial, seed, spec, kInjectUntil, flow_control);
  EXPECT_GT(ref.delivered.size(), 0u);
  EXPECT_EQ(ref.audit_violations, 0u);
  EXPECT_GT(ref.audit_checks, 0u);

  obs::TraceSink serial_trace(options);
  const FabricRun traced_serial = run_fabric(
      topo, serial, seed, spec, kInjectUntil, flow_control, {&serial_trace});
  expect_same_run(ref, traced_serial, "traced shards=1");
  obs::TraceSink sharded_trace(options);
  const FabricRun traced = run_fabric(topo, sharded, seed, spec, kInjectUntil,
                                      flow_control, {&sharded_trace});
  expect_same_run(ref, traced, "traced shards=4");
  EXPECT_EQ(ref.audit_checks, traced.audit_checks);
  expect_same_events(serial_trace, sharded_trace, "traced shards=4");

  metrics::PerfCounters serial_perf;
  const FabricRun counted_serial =
      run_fabric(topo, serial, seed, spec, kInjectUntil, flow_control,
                 {nullptr, &serial_perf});
  expect_same_run(ref, counted_serial, "counted shards=1");
  metrics::PerfCounters perf;
  const FabricRun counted = run_fabric(topo, sharded, seed, spec, kInjectUntil,
                                       flow_control, {nullptr, &perf});
  expect_same_run(ref, counted, "counted shards=4");
  EXPECT_EQ(ref.audit_checks, counted.audit_checks);
  // On the caller thread every stage timer opens exactly as often as in
  // the single-shard run; per-shard lanes would open the NIC timer once
  // per shard.
  for (std::size_t i = 0; i < metrics::kNumStages; ++i) {
    const auto stage = static_cast<metrics::Stage>(i);
    EXPECT_EQ(serial_perf.total(stage).calls, perf.total(stage).calls)
        << metrics::stage_name(stage);
  }
  EXPECT_GT(perf.total(metrics::Stage::kNicInject).calls, 0u);
  return sharded_trace;
}

TEST(CallerThreadFallback, FaultedAuditedMeshMatchesSingleShard) {
  const obs::TraceSink trace = expect_caller_thread_matches(
      TopologySpec::mesh(4, 4), FlowControl::kCredit, FaultSpec::chaos(0),
      /*seed=*/17);
  EXPECT_GT(trace.count(obs::EventKind::kFaultCreditHold), 0u);
  EXPECT_GT(trace.count(obs::EventKind::kFaultLinkStall), 0u);
}

TEST(CallerThreadFallback, OnOffFatTreeWithFrozenCyclesMatchesSingleShard) {
  FaultSpec spec;
  spec.enabled = true;
  spec.link_stall_rate = 0.4;
  spec.link_stall_cycles = 6;
  const obs::TraceSink trace = expect_caller_thread_matches(
      TopologySpec::fat_tree(4), FlowControl::kOnOff, spec, /*seed=*/23);
  // On/off flow control with finite buffers freezes injection and the
  // pipelines on a link-stall cycle; these stalls delayed due flits.
  EXPECT_GT(trace.count(obs::EventKind::kFaultLinkStall), 0u);
}

// ---------------------------------------------------------------------------
// 200-seed fuzz corpus: serial vs sharded, rotating fault presets (the
// same rotation the pipeline fuzz block uses) and shard geometries.

FaultSpec preset_for(std::uint64_t seed) {
  FaultSpec spec;
  switch (seed % 5) {
    case 0:  // fault-free
      break;
    case 1:
      spec.enabled = true;
      spec.link_stall_rate = 0.4;
      spec.link_stall_cycles = 6;
      break;
    case 2:
      spec.enabled = true;
      spec.credit_stall_rate = 0.4;
      spec.credit_stall_cycles = 20;
      break;
    case 3:
      spec.enabled = true;
      spec.churn_rate = 0.25;
      spec.burst_rate = 0.2;
      break;
    default:
      spec = FaultSpec::chaos(0);
      break;
  }
  return spec;
}

class ShardedFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedFuzzTest, ShardedAndSerialAgree) {
  const std::uint64_t seed = GetParam();
  const FaultSpec spec = preset_for(seed);
  // Rotate geometry with the seed so the corpus covers even splits,
  // uneven splits, oversubscription, and the serial staging path.
  static constexpr ShardedMode kModes[] = {
      ShardedMode{2, 2}, ShardedMode{4, 4}, ShardedMode{3, 5},
      ShardedMode{1, 4}, ShardedMode{2, 16},
  };
  const ShardedMode mode = kModes[seed % (sizeof kModes / sizeof kModes[0])];
  const FabricRun serial = run_fabric(TopologySpec::mesh(4, 4),
                                      ShardedMode{1, 1}, seed, spec,
                                      /*inject_until=*/400);
  EXPECT_GT(serial.delivered.size(), 0u);
  EXPECT_EQ(serial.audit_violations, 0u);
  const FabricRun sharded = run_fabric(TopologySpec::mesh(4, 4), mode, seed,
                                       spec, /*inject_until=*/400);
  char label[64];
  std::snprintf(label, sizeof label, "seed=%llu threads=%u shards=%u",
                static_cast<unsigned long long>(seed), mode.threads,
                mode.shards);
  expect_same_run(serial, sharded, label);
  // The auditor must have actually audited the sharded run, and must have
  // reached the identical verdict, not merely "no violations".
  EXPECT_GT(sharded.audit_checks, 0u) << label;
  EXPECT_EQ(serial.audit_checks, sharded.audit_checks) << label;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedFuzzTest,
                         ::testing::Range<std::uint64_t>(1000, 1200));

}  // namespace
}  // namespace wormsched::wormhole
