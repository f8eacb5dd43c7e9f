// Network-layer checkpoint/restore tests (docs/TESTING.md).
//
// The fabric differential itself lives in
// tests/harness/restore_differential_test.cpp; this suite covers the
// layer directly below it: Network::save_state/restore_state geometry
// validation (a snapshot must refuse a mismatched fabric with a clear
// SnapshotError, never misread it), traffic-source RNG continuation
// (including snapshots written by sharded runs), and the contract that
// sharding/threading is run-local wiring, not snapshot state.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/archive.hpp"
#include "common/snapshot.hpp"
#include "harness/checkpoint.hpp"
#include "harness/network_sweep.hpp"
#include "wormhole/network.hpp"
#include "wormhole/patterns.hpp"

namespace wormsched::harness {
namespace {

NetworkScenarioConfig base_config() {
  NetworkScenarioConfig config;
  config.network.topo = wormhole::TopologySpec::mesh(3, 3);
  config.traffic.packets_per_node_per_cycle = 0.03;
  config.traffic.lengths = traffic::LengthSpec::uniform(1, 8);
  config.traffic.inject_until = 1'000;
  return config;
}

void expect_identical(const NetworkScenarioResult& a,
                      const NetworkScenarioResult& b) {
  EXPECT_EQ(a.end_cycle, b.end_cycle);
  EXPECT_EQ(a.generated_packets, b.generated_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.delivered_flits, b.delivered_flits);
  // Exact doubles: restored accumulators continue the identical
  // floating-point stream, so == is the contract, not near-equality.
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.sum(), b.latency.sum());
  EXPECT_EQ(a.latency.min(), b.latency.min());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.latency.stddev(), b.latency.stddev());
  EXPECT_EQ(a.p99_latency, b.p99_latency);
}

/// Straight run of `config` under `seed`.
NetworkScenarioResult straight(const NetworkScenarioConfig& config,
                               std::uint64_t seed) {
  NetworkRun run(config, seed);
  run.run_to_completion();
  return run.finish();
}

/// Split run: advance to `split`, snapshot, restore under
/// `restore_config`, continue to completion.
NetworkScenarioResult split_at(const NetworkScenarioConfig& config,
                               std::uint64_t seed, Cycle split,
                               const NetworkScenarioConfig& restore_config) {
  SnapshotFile file;
  {
    NetworkRun run(config, seed);
    run.advance_to(split);
    file = run.make_snapshot_file();
  }
  NetworkRun resumed(restore_config, file);
  EXPECT_TRUE(resumed.restored());
  EXPECT_EQ(resumed.now(), split);
  resumed.run_to_completion();
  return resumed.finish();
}

TEST(NetworkSnapshot, ShardedRestoreOfSerialCheckpointIsIdentical) {
  // Sharding is never serialized: a serial checkpoint restored under
  // shards=4/threads=2 must reproduce the serial run bit-for-bit.
  const NetworkScenarioConfig config = base_config();
  NetworkScenarioConfig sharded = config;
  sharded.network.shards = 4;
  sharded.network.threads = 2;
  const NetworkScenarioResult a = straight(config, 5);
  const NetworkScenarioResult b = split_at(config, 5, 400, sharded);
  expect_identical(a, b);
}

TEST(NetworkSnapshot, SerialRestoreOfShardedCheckpointIsIdentical) {
  NetworkScenarioConfig sharded = base_config();
  sharded.network.shards = 4;
  sharded.network.threads = 2;
  const NetworkScenarioResult a = straight(base_config(), 9);
  const NetworkScenarioResult b = split_at(sharded, 9, 377, base_config());
  expect_identical(a, b);
}

/// The fabric's checkpoint bytes.
std::vector<std::uint8_t> fabric_bytes(const wormhole::Network& net) {
  SnapshotWriter w;
  net.save_state(w);
  return w.take();
}

/// Saves `config` mid-flight at `split`, restores the checkpoint and
/// saves the restored fabric again: the restore rebuilds the packet table
/// from the flit records, and the second save must reproduce the first
/// byte for byte.  Fails the test unless flits are in flight at the save.
void expect_resave_identical(const NetworkScenarioConfig& config,
                             std::uint64_t seed, Cycle split) {
  NetworkRun run(config, seed);
  run.advance_to(split);
  ASSERT_GT(run.network().flit_wire().size(), 0u);
  ASSERT_GT(run.network().packets().size(), 0u);
  const NetworkRun restored(config, run.make_snapshot_file());
  EXPECT_EQ(restored.network().packets().size(),
            run.network().packets().size());
  EXPECT_TRUE(fabric_bytes(restored.network()) ==
              fabric_bytes(run.network()));
}

TEST(NetworkSnapshot, MidFlightMeshResavesByteIdentically) {
  NetworkScenarioConfig config = base_config();
  config.network.topo = wormhole::TopologySpec::mesh(4, 4);
  config.traffic.packets_per_node_per_cycle = 0.08;
  config.faults.enabled = true;
  config.faults.link_stall_rate = 0.1;
  config.faults.link_stall_cycles = 4;
  config.faults.credit_stall_rate = 0.05;
  config.faults.credit_stall_cycles = 16;
  expect_resave_identical(config, 3, 500);
}

TEST(NetworkSnapshot, MidFlightFatTreeResavesByteIdentically) {
  NetworkScenarioConfig config = base_config();
  config.network.topo = wormhole::TopologySpec::fat_tree(4);
  config.network.router.flow_control = wormhole::FlowControl::kOnOff;
  config.network.routing =
      wormhole::NetworkConfig::Routing::kUpDownAdaptive;
  config.traffic.packets_per_node_per_cycle = 0.1;
  expect_resave_identical(config, 7, 600);
}

TEST(NetworkSnapshot, SourceRngContinuesAcrossRestore) {
  // The generated-packet count at every later cycle pins the Bernoulli
  // draw stream: one skipped or repeated draw after restore shifts it.
  const NetworkScenarioConfig config = base_config();
  NetworkRun reference(config, 21);
  reference.advance_to(900);
  const std::uint64_t expected = reference.source().generated();

  SnapshotFile file;
  {
    NetworkRun run(config, 21);
    run.advance_to(250);
    file = run.make_snapshot_file();
  }
  NetworkRun resumed(config, file);
  resumed.advance_to(900);
  EXPECT_EQ(resumed.source().generated(), expected);
}

TEST(NetworkSnapshot, RestoredProvenanceFields) {
  const NetworkScenarioConfig config = base_config();
  NetworkRun run(config, 33);
  run.advance_to(200);
  const SnapshotFile file = run.make_snapshot_file();

  const CheckpointProvenance prov = read_checkpoint_provenance(file);
  EXPECT_EQ(prov.kind, "network");
  EXPECT_EQ(prov.original_seed, 33u);
  EXPECT_EQ(prov.restore_count, 0u);
  EXPECT_EQ(prov.saved_cycle, 200u);

  NetworkRun resumed(config, file);
  EXPECT_EQ(resumed.original_seed(), 33u);
  EXPECT_EQ(resumed.restore_count(), 1u);
  resumed.advance_to(300);
  const CheckpointProvenance again =
      read_checkpoint_provenance(resumed.make_snapshot_file());
  EXPECT_EQ(again.restore_count, 1u);
  EXPECT_EQ(again.original_seed, 33u);
  EXPECT_EQ(again.saved_cycle, 300u);
}

/// --- Geometry / config validation ----------------------------------------

/// Positions a reader at the NNET section of a checkpoint payload.
void seek_network_section(SnapshotReader& r) {
  r.skip_section();  // META
  r.skip_section();  // NCFG
  r.enter_section(kCkptNetworkTag);
}

TEST(NetworkSnapshot, TopologyMismatchThrows) {
  NetworkRun run(base_config(), 1);
  run.advance_to(300);
  const std::vector<std::uint8_t> payload = run.checkpoint_payload();

  wormhole::NetworkConfig bigger;
  bigger.topo = wormhole::TopologySpec::mesh(4, 4);
  wormhole::Network net(bigger);
  SnapshotReader r(payload);
  seek_network_section(r);
  EXPECT_THROW(restore_fields(r, net), SnapshotError);
}

TEST(NetworkSnapshot, RouterConfigMismatchThrows) {
  NetworkRun run(base_config(), 1);
  run.advance_to(300);
  const std::vector<std::uint8_t> payload = run.checkpoint_payload();

  wormhole::NetworkConfig more_vcs;
  more_vcs.topo = wormhole::TopologySpec::mesh(3, 3);
  more_vcs.router.num_vcs = 4;
  wormhole::Network net(more_vcs);
  SnapshotReader r(payload);
  seek_network_section(r);
  EXPECT_THROW(restore_fields(r, net), SnapshotError);
}

TEST(NetworkSnapshot, RunRestoreRejectsMismatchedGeometry) {
  // The whole-run restore path surfaces the same validation.
  NetworkRun run(base_config(), 1);
  run.advance_to(300);
  const SnapshotFile file = run.make_snapshot_file();

  NetworkScenarioConfig wrong = base_config();
  wrong.network.topo = wormhole::TopologySpec::mesh(4, 4);
  EXPECT_THROW(NetworkRun(wrong, file), SnapshotError);
}

TEST(NetworkSnapshot, ScenarioCheckpointRejectedByNetworkRestore) {
  // Kind confusion: a standalone-scheduler checkpoint must not restore
  // as a fabric.
  ScenarioSpec spec;
  spec.workload_text = "bern:0.01:u1-8*2";
  spec.config.horizon = 500;
  ScenarioRun scenario(spec);
  scenario.advance_to(200);
  const SnapshotFile file = scenario.make_snapshot_file();
  EXPECT_THROW(NetworkRun(base_config(), file), SnapshotError);
  EXPECT_NO_THROW(ScenarioRun(spec, file));
}

TEST(NetworkSnapshot, CorruptedSectionPayloadNeverMisreads) {
  // Flip a byte inside the NNET section: the restore must either throw
  // SnapshotError or produce a structurally valid network — it must
  // never crash or read out of bounds (ASan leg enforces the latter).
  NetworkRun run(base_config(), 3);
  run.advance_to(500);
  std::vector<std::uint8_t> payload = run.checkpoint_payload();
  // Corrupt a byte in the middle of the payload (inside network state).
  payload[payload.size() / 2] ^= 0x5A;

  NetworkScenarioConfig config = base_config();
  wormhole::Network net(config.network);
  SnapshotReader r(payload);
  try {
    seek_network_section(r);
    restore_fields(r, net);
  } catch (const SnapshotError&) {
    // Expected for most mutation sites; acceptable for all.
  }
}

}  // namespace
}  // namespace wormsched::harness
