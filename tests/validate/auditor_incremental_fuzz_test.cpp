// Differential fuzz for the two network-auditor modes.  The incremental
// dirty-set auditor promises the same verdicts as the full-rescan oracle:
// on clean runs (fault injection on — faults delay, never drop) both must
// report zero violations over bit-identical simulations, and on runs with
// a planted conservation break both must converge on the same canonical
// violation ids.  The incremental run is also the only configuration that
// switches on CycleDelta collection, so this suite doubles as the
// regression net proving collection never perturbs the simulation.
//
// The suite name contains "FuzzAuditTest", so `ctest -R FuzzAuditTest`
// runs it alongside the ERR fuzz audits.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "validate/faults.hpp"
#include "validate/network_auditor.hpp"
#include "validate/violation.hpp"
#include "wormhole/network.hpp"
#include "wormhole/patterns.hpp"
#include "../common/tick_loop.hpp"

namespace wormsched::validate {
namespace {

using wormhole::DeliveredPacket;
using wormhole::Direction;
using wormhole::Network;
using wormhole::NetworkConfig;
using wormhole::NetworkTrafficSource;

struct AuditedRun {
  std::vector<DeliveredPacket> delivered;
  std::uint64_t delivered_flits = 0;
  Cycle end_cycle = 0;
  std::uint64_t violations = 0;
  std::vector<Violation> kept;
  std::uint64_t checks = 0;
  std::uint64_t full_rescans = 0;
};

AuditedRun run_audited(AuditMode mode, std::uint64_t seed,
                       const FaultSpec& base_spec, Cycle inject_until) {
  NetworkConfig config;  // 4x4 mesh, ERR arbiters
  std::optional<ScheduledFaults> faults;
  if (base_spec.enabled) {
    FaultSpec spec = base_spec;
    spec.seed += seed;
    spec.num_nodes = 16;
    faults.emplace(spec);
    config.faults = &*faults;
  }
  Network net(config);
  AuditLog log(AuditLog::Mode::kCount);
  NetworkAuditor auditor(NetworkAuditorConfig{.mode = mode}, log);
  net.attach_observer(&auditor);

  NetworkTrafficSource::Config traffic;
  traffic.packets_per_node_per_cycle = 0.04;
  traffic.inject_until = inject_until;
  traffic.seed = seed;
  traffic.faults = config.faults;
  NetworkTrafficSource source(net, traffic);

  test::TickLoop loop(source, net);
  loop.run_until(traffic.inject_until);
  AuditedRun run;
  run.end_cycle = loop.run_until_idle(200'000);
  auditor.finish(run.end_cycle, net);
  run.delivered = net.delivered();
  run.delivered_flits = net.delivered_flits();
  run.violations = log.count();
  run.kept = log.kept();
  run.checks = auditor.checks_run();
  run.full_rescans = auditor.full_rescans();
  return run;
}

// The five fault presets FabricDigest pins, rotated across seeds: one seed
// in five runs fault-free, the rest stress a distinct fault class.
FaultSpec preset_for(std::uint64_t seed) {
  FaultSpec spec;
  switch (seed % 5) {
    case 0:
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

class NetworkFuzzAuditTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(NetworkFuzzAuditTest, IncrementalMatchesFullOracle) {
  const std::uint64_t seed = GetParam();
  const FaultSpec spec = preset_for(seed);
  const AuditedRun full =
      run_audited(AuditMode::kFull, seed, spec, /*inject_until=*/500);
  const AuditedRun incremental =
      run_audited(AuditMode::kIncremental, seed, spec, /*inject_until=*/500);

  // Identical verdicts: a clean fabric is clean in both modes, down to
  // the (empty) payload list.
  EXPECT_EQ(full.violations, 0u);
  EXPECT_EQ(incremental.violations, 0u);
  ASSERT_EQ(full.kept.size(), incremental.kept.size());
  EXPECT_GT(incremental.full_rescans, 0u);  // snapshot + finish at least

  // Bit-identical simulation: the incremental run collects a CycleDelta
  // every cycle, the full run does not; any observable difference means
  // collection perturbed the fabric.
  EXPECT_GT(full.delivered.size(), 0u);
  EXPECT_EQ(full.end_cycle, incremental.end_cycle);
  EXPECT_EQ(full.delivered_flits, incremental.delivered_flits);
  ASSERT_EQ(full.delivered.size(), incremental.delivered.size());
  for (std::size_t i = 0; i < full.delivered.size(); ++i) {
    const DeliveredPacket& a = full.delivered[i];
    const DeliveredPacket& b = incremental.delivered[i];
    ASSERT_EQ(a.id.value(), b.id.value()) << "packet #" << i;
    ASSERT_EQ(a.source.value(), b.source.value()) << "packet #" << i;
    ASSERT_EQ(a.dest.value(), b.dest.value()) << "packet #" << i;
    ASSERT_EQ(a.length, b.length) << "packet #" << i;
    ASSERT_EQ(a.created, b.created) << "packet #" << i;
    ASSERT_EQ(a.delivered, b.delivered) << "packet #" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkFuzzAuditTest,
                         ::testing::Range<std::uint64_t>(2000, 2200));

// Planted-fault agreement: inject the same conservation break into both
// modes' fabrics and compare the canonical oracle ids they settle on.
// The incremental auditor escalates to the oracle (and then resyncs, so
// its report *count* legitimately differs from the every-check full
// mode), but the set of canonical `net.*` ids must match.  Ledger-side
// `net.ledger.*` ids are incremental-only forensics and are filtered.
std::set<std::string> canonical_ids(const std::vector<Violation>& kept) {
  std::set<std::string> ids;
  for (const Violation& v : kept)
    if (v.check.rfind("net.ledger.", 0) != 0) ids.insert(v.check);
  return ids;
}

std::set<std::string> run_with_planted_flit(AuditMode mode) {
  Network net(NetworkConfig{});  // 4x4 mesh
  AuditLog log(AuditLog::Mode::kCount);
  NetworkAuditor auditor(NetworkAuditorConfig{.mode = mode}, log);
  net.attach_observer(&auditor);

  NetworkTrafficSource::Config traffic;
  traffic.packets_per_node_per_cycle = 0.04;
  traffic.inject_until = 400;
  traffic.seed = 11;
  NetworkTrafficSource source(net, traffic);

  test::TickLoop loop(source, net);
  loop.run_until(200);
  // A flit from nowhere in router 5's local input, destined to router 5
  // itself.  It bypasses inject(), so the fabric holds (and soon has
  // delivered) one more flit than was ever injected — flit conservation
  // is broken from this cycle forever.  Local input VC class 1 is the
  // safe spot for the plant: local units take part in no credit
  // protocol, and on a mesh the NIC only ever feeds class 0, so the
  // phantom cannot interleave with a real packet's flit stream — the
  // simulation itself keeps running on valid state.
  wormhole::Flit phantom;
  phantom.slot = net.packets().add(wormhole::PacketDescriptor{
      .id = PacketId(1'000'000), .flow = FlowId(0), .source = NodeId(5),
      .dest = NodeId(5), .length = 1, .created = 200});
  phantom.type = wormhole::FlitType::kHeadTail;
  phantom.index = 0;
  net.router(NodeId(5)).accept_flit(Direction::kLocal, 1, phantom);
  loop.run_until(traffic.inject_until);
  const Cycle end = loop.run_until_idle(200'000);
  auditor.finish(end, net);
  EXPECT_FALSE(log.clean());
  return canonical_ids(log.kept());
}

TEST(NetworkFuzzAuditTestPlanted, ModesAgreeOnCanonicalIds) {
  const auto full = run_with_planted_flit(AuditMode::kFull);
  const auto incremental = run_with_planted_flit(AuditMode::kIncremental);
  EXPECT_FALSE(full.empty());
  EXPECT_EQ(full, incremental);
  EXPECT_EQ(full.count("net.conservation.flits"), 1u);
}

}  // namespace
}  // namespace wormsched::validate
