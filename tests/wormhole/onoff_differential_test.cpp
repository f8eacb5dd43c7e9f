// On/off vs credit flow-control differential fuzz.
//
// The two schemes gate the same fabric differently, so per-cycle
// behaviour legitimately diverges — but three properties must hold for
// every (seed, fault schedule) point:
//
//  * conservation — each scheme, audited every cycle, finishes with zero
//    violations and delivers every generated packet (the fabric drains);
//  * scheme-independent outcomes — the delivered packet set (ids,
//    sources, destinations, lengths) is identical across schemes, because
//    flow control decides *when* flits move, never *which* packets exist
//    or where they go;
//  * sharding transparency — within one scheme, a --threads 2 sharded run
//    is bit-identical to the serial run, delivery cycles included.
//
// The 200-seed block rotates the five fault presets across seeds (the
// fuzz idiom of NetworkFuzzAuditTest) on mesh and fat tree.  A
// second suite pits deterministic against adaptive up/down routing on the
// fat tree under incast: both must drain deadlock-free with the same
// packet set, and the harness-level checkpoint differential pins
// restore-equivalence for the on/off + fat-tree pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>
#include <vector>

#include "harness/checkpoint.hpp"
#include "harness/network_sweep.hpp"
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

struct SchemeRun {
  std::vector<DeliveredPacket> delivered;  // in delivery order
  std::uint64_t delivered_flits = 0;
  std::uint64_t generated = 0;
  Cycle end_cycle = 0;
  std::uint64_t audit_violations = 0;
};

struct SchemePoint {
  FlowControl flow_control = FlowControl::kCredit;
  TopologySpec topo = TopologySpec::mesh(3, 3);
  NetworkConfig::Routing routing = NetworkConfig::Routing::kDor;
  bool sharded = false;
  PatternSpec pattern;
  double rate = 0.05;
};

SchemeRun run_point(const SchemePoint& point, std::uint64_t seed,
                    FaultSpec spec, Cycle inject_until = 400) {
  NetworkConfig config;
  config.topo = point.topo;
  config.routing = point.routing;
  config.router.flow_control = point.flow_control;
  if (point.sharded) {
    config.shards = 4;
    config.threads = 2;
  }
  std::optional<validate::ScheduledFaults> faults;
  if (spec.enabled) {
    spec.seed += seed;
    spec.num_nodes = point.topo.num_nodes();
    faults.emplace(spec);
    config.faults = &*faults;
  }
  Network net(config);
  AuditLog log(AuditLog::Mode::kCount);
  validate::NetworkAuditor auditor(validate::NetworkAuditorConfig{}, log);
  net.attach_observer(&auditor);

  NetworkTrafficSource::Config traffic;
  traffic.packets_per_node_per_cycle = point.rate;
  traffic.pattern = point.pattern;
  traffic.inject_until = inject_until;
  traffic.seed = seed;
  traffic.faults = config.faults;
  NetworkTrafficSource source(net, traffic);

  test::TickLoop loop(source, net);
  loop.run_until(traffic.inject_until);
  SchemeRun run;
  run.end_cycle = loop.run_until_idle(200'000);
  run.delivered = net.delivered();
  run.delivered_flits = net.delivered_flits();
  run.generated = source.generated();
  run.audit_violations = log.count();
  return run;
}

/// Scheme-independent identity of one delivered packet.
using PacketKey =
    std::tuple<std::uint64_t, std::uint32_t, std::uint32_t, Flits, Cycle>;

std::vector<PacketKey> packet_set(const SchemeRun& run) {
  std::vector<PacketKey> keys;
  keys.reserve(run.delivered.size());
  for (const DeliveredPacket& p : run.delivered)
    keys.emplace_back(p.id.value(), p.source.value(), p.dest.value(),
                      p.length, p.created);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void expect_drained_clean(const SchemeRun& run, const char* label) {
  EXPECT_EQ(run.audit_violations, 0u) << label;
  EXPECT_GT(run.generated, 0u) << label;
  // Drained: run_until_idle found the fabric empty, not the cycle cap.
  EXPECT_LT(run.end_cycle, 200'000u) << label;
  EXPECT_EQ(run.delivered.size(), run.generated) << label;
}

void expect_bit_identical(const SchemeRun& a, const SchemeRun& b,
                          const char* label) {
  EXPECT_EQ(a.generated, b.generated) << label;
  EXPECT_EQ(a.end_cycle, b.end_cycle) << label;
  EXPECT_EQ(a.delivered_flits, b.delivered_flits) << label;
  ASSERT_EQ(a.delivered.size(), b.delivered.size()) << label;
  for (std::size_t i = 0; i < a.delivered.size(); ++i) {
    ASSERT_EQ(a.delivered[i].id.value(), b.delivered[i].id.value())
        << label << " packet #" << i;
    ASSERT_EQ(a.delivered[i].delivered, b.delivered[i].delivered)
        << label << " packet #" << i;
  }
}

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

void expect_schemes_agree(SchemePoint point, std::uint64_t seed) {
  const FaultSpec spec = preset_for(seed);

  point.flow_control = FlowControl::kCredit;
  point.sharded = false;
  const SchemeRun credit = run_point(point, seed, spec);
  expect_drained_clean(credit, "credit serial");
  point.sharded = true;
  expect_bit_identical(credit, run_point(point, seed, spec),
                       "credit threads=2");

  point.flow_control = FlowControl::kOnOff;
  point.sharded = false;
  const SchemeRun onoff = run_point(point, seed, spec);
  expect_drained_clean(onoff, "onoff serial");
  point.sharded = true;
  expect_bit_identical(onoff, run_point(point, seed, spec),
                       "onoff threads=2");

  // Both drained: the schemes delivered the same packets, whatever the
  // interleavings in between.
  EXPECT_EQ(credit.generated, onoff.generated);
  EXPECT_EQ(credit.delivered_flits, onoff.delivered_flits);
  EXPECT_EQ(packet_set(credit), packet_set(onoff));
}

/// 200-seed fuzz: seeds [0, 150) on the mesh, [150, 200) on the fat tree
/// (4 audited runs per seed keeps the block's runtime proportionate).
class OnOffDifferentialFuzz : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(OnOffDifferentialFuzz, CreditAndOnOffConserveTheSamePackets) {
  const std::uint64_t seed = GetParam();
  SchemePoint point;
  if (seed < 150) {
    point.topo = TopologySpec::mesh(3, 3);
  } else {
    point.topo = TopologySpec::fat_tree(4);
    point.rate = 0.04;
  }
  expect_schemes_agree(point, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnOffDifferentialFuzz,
                         ::testing::Range<std::uint64_t>(0, 200));

/// Fat-tree incast: every endpoint hammers endpoint 0.  Deterministic
/// and adaptive up/down routing must both drain deadlock-free and agree
/// on the delivered packet set (routing picks paths, not packets).
class FatTreeIncastRouting : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FatTreeIncastRouting, AdaptiveAndDeterministicAgreeUnderIncast) {
  const std::uint64_t seed = GetParam();
  SchemePoint point;
  point.topo = TopologySpec::fat_tree(4);
  point.flow_control = FlowControl::kOnOff;
  point.pattern.kind = PatternSpec::Kind::kHotspot;
  point.pattern.hotspot_fraction = 0.7;
  point.pattern.hotspot = NodeId(0);
  point.rate = 0.04;

  point.routing = NetworkConfig::Routing::kDor;
  const SchemeRun det = run_point(point, seed, preset_for(seed));
  expect_drained_clean(det, "deterministic up/down");

  point.routing = NetworkConfig::Routing::kUpDownAdaptive;
  const SchemeRun adaptive = run_point(point, seed, preset_for(seed));
  expect_drained_clean(adaptive, "adaptive up/down");
  point.sharded = true;
  expect_bit_identical(adaptive, run_point(point, seed, preset_for(seed)),
                       "adaptive threads=2");

  EXPECT_EQ(det.generated, adaptive.generated);
  EXPECT_EQ(packet_set(det), packet_set(adaptive));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FatTreeIncastRouting,
                         ::testing::Range<std::uint64_t>(0, 10));

/// Harness-level checkpoint differential for the new pair: an on/off fat
/// tree under adaptive routing, split mid-run and restored, must finish
/// identically to the straight run (latency accumulators included).
TEST(OnOffFatTreeSnapshot, SplitRunMatchesStraightRun) {
  harness::NetworkScenarioConfig config;
  config.network.topo = TopologySpec::fat_tree(4);
  config.network.routing = NetworkConfig::Routing::kUpDownAdaptive;
  config.network.router.flow_control = FlowControl::kOnOff;
  config.traffic.packets_per_node_per_cycle = 0.04;
  config.traffic.pattern.kind = PatternSpec::Kind::kHotspot;
  config.traffic.pattern.hotspot_fraction = 0.7;
  config.traffic.pattern.hotspot = NodeId(0);
  config.traffic.inject_until = 1'000;

  harness::NetworkRun straight(config, 11);
  straight.run_to_completion();
  const harness::NetworkScenarioResult a = straight.finish();

  SnapshotFile file;
  {
    harness::NetworkRun run(config, 11);
    run.advance_to(400);
    file = run.make_snapshot_file();
  }
  harness::NetworkRun resumed(config, file);
  EXPECT_TRUE(resumed.restored());
  resumed.run_to_completion();
  const harness::NetworkScenarioResult b = resumed.finish();

  EXPECT_EQ(a.end_cycle, b.end_cycle);
  EXPECT_EQ(a.generated_packets, b.generated_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.delivered_flits, b.delivered_flits);
  EXPECT_EQ(a.latency.sum(), b.latency.sum());
  EXPECT_EQ(a.p99_latency, b.p99_latency);
}

/// A credit-mode snapshot must not restore into an on/off fabric: the
/// fingerprint carries the flow-control config.
TEST(OnOffFatTreeSnapshot, FlowControlMismatchRejected) {
  harness::NetworkScenarioConfig config;
  config.network.topo = TopologySpec::mesh(3, 3);
  config.traffic.inject_until = 500;
  harness::NetworkRun run(config, 3);
  run.advance_to(200);
  const SnapshotFile file = run.make_snapshot_file();

  harness::NetworkScenarioConfig onoff = config;
  onoff.network.router.flow_control = FlowControl::kOnOff;
  EXPECT_THROW(harness::NetworkRun(onoff, file), SnapshotError);
}

}  // namespace
}  // namespace wormsched::wormhole
