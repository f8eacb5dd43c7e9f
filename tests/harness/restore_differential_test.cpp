// Restore-equivalence differential harness — the checkpoint feature's
// headline test (docs/TESTING.md).
//
// Claim under test: running N cycles straight is indistinguishable from
// running k cycles, checkpointing, restoring (in a new runner, possibly
// with different run-local wiring such as thread count), and continuing
// to N.  "Indistinguishable" is exact: flit-for-flit delivery counts,
// bit-identical double statistics (restored accumulators continue the
// same floating-point stream), and identical auditor verdicts.
//
// The seed corpus spans 200 fabric runs across five configurations —
// plain, faulted, audited, faulted+audited, and sharded (threads > 1) —
// each split at a seed-dependent cycle so checkpoint boundaries fall at
// arbitrary points of injection and drain, plus a standalone-scheduler
// corpus over weighted and fault-perturbed workloads.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "harness/checkpoint.hpp"
#include "harness/network_sweep.hpp"
#include "traffic/binary_trace.hpp"
#include "traffic/trace_synth.hpp"
#include "validate/violation.hpp"
#include "wormhole/network.hpp"

namespace wormsched::harness {
namespace {

constexpr std::uint64_t kSeedsPerConfig = 40;  // x5 configs = 200 seeds

NetworkScenarioConfig plain_config() {
  NetworkScenarioConfig config;
  config.network.topo = wormhole::TopologySpec::mesh(3, 3);
  config.traffic.packets_per_node_per_cycle = 0.03;
  config.traffic.lengths = traffic::LengthSpec::uniform(1, 8);
  config.traffic.inject_until = 800;
  return config;
}

NetworkScenarioConfig faulted_config() {
  NetworkScenarioConfig config = plain_config();
  config.faults.enabled = true;
  config.faults.seed = 400;
  config.faults.window = 64;
  config.faults.link_stall_rate = 0.05;
  config.faults.credit_stall_rate = 0.05;
  config.faults.churn_rate = 0.10;
  config.faults.burst_rate = 0.05;
  return config;
}

NetworkScenarioConfig audited_config() {
  NetworkScenarioConfig config = plain_config();
  config.audit = true;
  return config;
}

NetworkScenarioConfig faulted_audited_config() {
  NetworkScenarioConfig config = faulted_config();
  config.audit = true;
  return config;
}

NetworkScenarioConfig sharded_config() {
  NetworkScenarioConfig config = plain_config();
  config.network.shards = 4;
  config.network.threads = 2;
  return config;
}

/// Seed-dependent split point: boundaries must land at arbitrary cycles
/// of injection *and* drain, not a favoured phase.
Cycle split_cycle(std::uint64_t seed) { return 100 + (seed * 37) % 900; }

void expect_identical(const NetworkScenarioResult& a,
                      const NetworkScenarioResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.end_cycle, b.end_cycle) << label;
  EXPECT_EQ(a.generated_packets, b.generated_packets) << label;
  EXPECT_EQ(a.delivered_packets, b.delivered_packets) << label;
  EXPECT_EQ(a.delivered_flits, b.delivered_flits) << label;
  EXPECT_EQ(a.latency.count(), b.latency.count()) << label;
  // EXPECT_EQ on doubles, not DOUBLE_EQ: bit-identity is the contract.
  EXPECT_EQ(a.latency.mean(), b.latency.mean()) << label;
  EXPECT_EQ(a.latency.sum(), b.latency.sum()) << label;
  EXPECT_EQ(a.latency.min(), b.latency.min()) << label;
  EXPECT_EQ(a.latency.max(), b.latency.max()) << label;
  EXPECT_EQ(a.latency.stddev(), b.latency.stddev()) << label;
  EXPECT_EQ(a.p99_latency, b.p99_latency) << label;
  // Identical auditor verdict.  Check/opportunity *counts* legitimately
  // differ (a restored run's auditors attach fresh at the restore
  // cycle); the verdict — how many invariant violations — may not.
  EXPECT_EQ(a.audit_violations, b.audit_violations) << label;
}

NetworkScenarioResult run_straight(const NetworkScenarioConfig& config,
                                   std::uint64_t seed) {
  NetworkRun run(config, seed);
  run.run_to_completion();
  return run.finish();
}

NetworkScenarioResult run_split(const NetworkScenarioConfig& config,
                                std::uint64_t seed, Cycle split,
                                const NetworkScenarioConfig& restore_config) {
  SnapshotFile file;
  {
    NetworkRun run(config, seed);
    run.advance_to(split);
    file = run.make_snapshot_file();
  }
  NetworkRun resumed(restore_config, file);
  resumed.run_to_completion();
  return resumed.finish();
}

void run_corpus(const NetworkScenarioConfig& config,
                const NetworkScenarioConfig& restore_config,
                std::uint64_t base_seed, const std::string& label) {
  for (std::uint64_t k = 0; k < kSeedsPerConfig; ++k) {
    const std::uint64_t seed = base_seed + k;
    // Audited runs use external count-mode logs so an (unexpected)
    // violation becomes a comparable count, not a Debug abort.
    NetworkScenarioConfig straight_config = config;
    NetworkScenarioConfig seg_config = config;
    NetworkScenarioConfig res_config = restore_config;
    validate::AuditLog straight_log(validate::AuditLog::Mode::kCount);
    validate::AuditLog split_log(validate::AuditLog::Mode::kCount);
    if (config.audit) {
      straight_config.audit_log = &straight_log;
      seg_config.audit_log = &split_log;
      res_config.audit_log = &split_log;
    }
    const NetworkScenarioResult a = run_straight(straight_config, seed);
    const NetworkScenarioResult b =
        run_split(seg_config, seed, split_cycle(seed), res_config);
    expect_identical(a, b, label + " seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) return;  // one seed's dump is enough
  }
}

TEST(RestoreDifferential, Plain200SeedCorpusPart) {
  run_corpus(plain_config(), plain_config(), 1000, "plain");
}

TEST(RestoreDifferential, Faulted) {
  run_corpus(faulted_config(), faulted_config(), 2000, "faulted");
}

TEST(RestoreDifferential, Audited) {
  run_corpus(audited_config(), audited_config(), 3000, "audited");
}

TEST(RestoreDifferential, FaultedAudited) {
  run_corpus(faulted_audited_config(), faulted_audited_config(), 4000,
             "faulted+audited");
}

TEST(RestoreDifferential, ShardedThreads2) {
  // Saved sharded, restored sharded — and the serial straight run is the
  // reference, so this additionally pins sharded == serial.
  run_corpus(sharded_config(), sharded_config(), 5000, "sharded");
}

TEST(RestoreDifferential, RestoreUnderDifferentThreadCount) {
  // A checkpoint written serially restores under threads=4 (and one
  // written sharded restores serially) with identical results: sharding
  // is run-local wiring, never snapshot state.
  NetworkScenarioConfig four = plain_config();
  four.network.shards = 4;
  four.network.threads = 4;
  for (std::uint64_t seed = 6000; seed < 6010; ++seed) {
    const NetworkScenarioResult a = run_straight(plain_config(), seed);
    const NetworkScenarioResult b =
        run_split(plain_config(), seed, split_cycle(seed), four);
    const NetworkScenarioResult c =
        run_split(four, seed, split_cycle(seed), plain_config());
    expect_identical(a, b, "serial->threads4 seed " + std::to_string(seed));
    expect_identical(a, c, "threads4->serial seed " + std::to_string(seed));
  }
}

TEST(RestoreDifferential, CheckpointChainMatchesStraight) {
  // checkpoint -> restore -> checkpoint -> restore: segmentation composes.
  const NetworkScenarioConfig config = faulted_config();
  for (std::uint64_t seed = 7000; seed < 7010; ++seed) {
    const NetworkScenarioResult a = run_straight(config, seed);

    SnapshotFile first;
    {
      NetworkRun run(config, seed);
      run.advance_to(200);
      first = run.make_snapshot_file();
    }
    SnapshotFile second;
    {
      NetworkRun run(config, first);
      run.advance_to(550);
      second = run.make_snapshot_file();
    }
    NetworkRun last(config, second);
    EXPECT_EQ(last.restore_count(), 2u);
    last.run_to_completion();
    expect_identical(a, last.finish(), "chain seed " + std::to_string(seed));
  }
}

/// --- Trace-driven corpus ---------------------------------------------------

/// A multi-tenant trace with incast bursts, written to a file of this
/// process's own (a restore reloads it from the recorded path).
std::shared_ptr<const ReplayTrace> incast_trace() {
  static const std::shared_ptr<const ReplayTrace> trace = [] {
    traffic::SynthSpec spec;
    spec.num_flows = 48;
    spec.horizon = 1200;
    spec.load = 2.0;
    spec.incast_every = 300;
    spec.incast_fanin = 12;
    traffic::BinaryTraceWriter writer(spec.num_flows);
    traffic::synthesize_trace(
        spec, 5, [&](const traffic::TraceEntry& e) { writer.append(e); });
    const std::string path = testing::TempDir() + "restore_differential_" +
                             std::to_string(::getpid()) + ".wst";
    traffic::write_binary_trace_bytes(path, writer.finish());
    return load_replay_trace(path);
  }();
  return trace;
}

/// One run's outputs the trace differential compares: its result with
/// the audit counts of every segment summed, and its delivered log.
struct TraceRunRecord {
  NetworkScenarioResult result;
  std::vector<wormhole::DeliveredPacket> delivered;
  std::uint64_t audit_checks = 0;
  std::uint64_t audit_opportunities = 0;

  void add_segment(NetworkRun& run) {
    const auto& log = run.network().delivered();
    delivered.insert(delivered.end(), log.begin(), log.end());
    result = run.finish();
    audit_checks += result.audit_checks;
    audit_opportunities += result.audit_opportunities;
  }
};

void expect_identical(const TraceRunRecord& a, const TraceRunRecord& b,
                      const std::string& label) {
  expect_identical(a.result, b.result, label);
  ASSERT_EQ(a.delivered.size(), b.delivered.size()) << label;
  for (std::size_t i = 0; i < a.delivered.size(); ++i) {
    const wormhole::DeliveredPacket& x = a.delivered[i];
    const wormhole::DeliveredPacket& y = b.delivered[i];
    EXPECT_TRUE(x.id == y.id && x.flow == y.flow && x.source == y.source &&
                x.dest == y.dest && x.length == y.length &&
                x.created == y.created && x.delivered == y.delivered)
        << label << " delivered[" << i << "]";
  }
  EXPECT_EQ(a.audit_opportunities, b.audit_opportunities) << label;
}

TEST(RestoreDifferentialTrace, FaultedAuditedSplitsMatchStraight) {
  // Checkpoints mid-injection, at the last arrival and mid-drain, serial
  // and at two threads; each restore reloads the trace from its recorded
  // path and must continue flit for flit as the straight run did.
  for (const std::uint32_t threads : {1u, 2u}) {
    NetworkScenarioConfig config = faulted_audited_config();
    config.trace_in = incast_trace();
    config.network.threads = threads;
    config.network.shards = threads;
    const std::string label = "threads " + std::to_string(threads);
    constexpr std::uint64_t kSeed = 8;

    TraceRunRecord straight;
    Cycle last_arrival = 0;
    {
      NetworkRun run(config, kSeed);
      last_arrival = run.config().traffic.inject_until - 1;
      run.run_to_completion();
      straight.add_segment(run);
    }
    const Cycle end = straight.result.end_cycle;
    ASSERT_GT(end, last_arrival + 2) << label;
    EXPECT_GT(straight.result.generated_packets, 150u) << label;
    EXPECT_GT(straight.audit_opportunities, 0u) << label;

    NetworkScenarioConfig restore_config = config;
    restore_config.trace_in = nullptr;
    for (const Cycle k : {last_arrival / 2, last_arrival,
                          last_arrival + (end - last_arrival) / 2}) {
      TraceRunRecord split;
      SnapshotFile file;
      {
        NetworkRun run(config, kSeed);
        run.advance_to(k);
        ASSERT_EQ(run.now(), k) << label;
        file = run.make_snapshot_file();
        split.add_segment(run);
      }
      NetworkRun resumed(restore_config, file);
      ASSERT_NE(resumed.config().trace_in, nullptr);
      EXPECT_EQ(resumed.config().trace_in->crc, config.trace_in->crc);
      resumed.run_to_completion();
      split.add_segment(resumed);
      // Each segment's auditor checks its own cycles, and each finish()
      // adds the closing check.
      EXPECT_EQ(split.audit_checks, straight.audit_checks + 1)
          << label << " split at " << k;
      expect_identical(straight, split,
                       label + " split at " + std::to_string(k));
    }
  }
  std::remove(incast_trace()->path.c_str());
}

/// --- Standalone-scheduler (ScenarioRun) corpus ---------------------------

void expect_identical(const ScenarioResult& a, const ScenarioResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.end_cycle, b.end_cycle) << label;
  EXPECT_EQ(a.scheduler_name, b.scheduler_name) << label;
  ASSERT_EQ(a.num_flows(), b.num_flows()) << label;
  EXPECT_EQ(a.service_log.grand_total(), b.service_log.grand_total()) << label;
  for (std::size_t i = 0; i < a.num_flows(); ++i) {
    const FlowId flow(static_cast<FlowId::rep_type>(i));
    EXPECT_EQ(a.service_log.total(flow), b.service_log.total(flow))
        << label << " flow " << i;
  }
  EXPECT_EQ(a.delays.overall().count(), b.delays.overall().count()) << label;
  EXPECT_EQ(a.delays.overall().mean(), b.delays.overall().mean()) << label;
  EXPECT_EQ(a.delays.overall().sum(), b.delays.overall().sum()) << label;
  EXPECT_EQ(a.delays.overall().max(), b.delays.overall().max()) << label;
  EXPECT_EQ(a.service_starts, b.service_starts) << label;
  EXPECT_EQ(a.max_served_packet, b.max_served_packet) << label;
  EXPECT_EQ(a.residual_backlog, b.residual_backlog) << label;
  EXPECT_EQ(a.audit_violations, b.audit_violations) << label;
}

ScenarioSpec scenario_spec(const std::string& scheduler, std::uint64_t seed,
                           bool faulted) {
  ScenarioSpec spec;
  spec.scheduler = scheduler;
  // Weighted workload: the :2.5 weight and *2 replication come from the
  // workload grammar, so restored weights must survive via the snapshot.
  spec.workload_text = "bern:0.02:u1-8:2.5*2;bern:0.03:u1-16;bern:0.01:e0.2-1-64";
  spec.config.horizon = 3000;
  spec.config.drain = true;
  spec.config.seed = seed;
  if (faulted) {
    spec.faults.enabled = true;
    spec.faults.seed = seed + 17;
    spec.faults.churn_rate = 0.05;
    spec.faults.burst_rate = 0.05;
    spec.faults.trace_jitter_max = 8;
  }
  return spec;
}

void run_scenario_corpus(const std::string& scheduler, bool faulted,
                         std::uint64_t base_seed) {
  for (std::uint64_t seed = base_seed; seed < base_seed + 10; ++seed) {
    const ScenarioSpec spec = scenario_spec(scheduler, seed, faulted);
    ScenarioResult a = [&] {
      ScenarioRun run(spec);
      run.run_to_completion();
      return run.finish();
    }();

    const Cycle split = 200 + (seed * 53) % 2600;
    SnapshotFile file;
    {
      ScenarioRun run(spec);
      run.advance_to(split);
      file = run.make_snapshot_file();
    }
    ScenarioRun resumed(spec, file);
    EXPECT_TRUE(resumed.restored());
    resumed.run_to_completion();
    ScenarioResult b = resumed.finish();
    expect_identical(a, b, scheduler + (faulted ? " faulted" : "") +
                               " seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(RestoreDifferentialScenario, ErrWeighted) {
  run_scenario_corpus("err", /*faulted=*/false, 100);
}

TEST(RestoreDifferentialScenario, ErrFaulted) {
  run_scenario_corpus("err", /*faulted=*/true, 200);
}

TEST(RestoreDifferentialScenario, DrrWeighted) {
  run_scenario_corpus("drr", /*faulted=*/false, 300);
}

TEST(RestoreDifferentialScenario, WfqWeighted) {
  run_scenario_corpus("wfq", /*faulted=*/false, 400);
}

TEST(RestoreDifferentialScenario, RestoreIgnoresDivergentWiringSpec) {
  // The restore ctor takes sim-defining inputs from the checkpoint, not
  // from the caller's spec: a caller passing a different scheduler or
  // horizon still reproduces the saved run.
  const ScenarioSpec spec = scenario_spec("err", 42, /*faulted=*/false);
  ScenarioResult a = [&] {
    ScenarioRun run(spec);
    run.run_to_completion();
    return run.finish();
  }();

  SnapshotFile file;
  {
    ScenarioRun run(spec);
    run.advance_to(1000);
    file = run.make_snapshot_file();
  }
  ScenarioSpec divergent;
  divergent.scheduler = "drr";          // overridden by the checkpoint
  divergent.workload_text = "bern:0.5:c1";  // likewise
  divergent.config.horizon = 10;        // likewise
  ScenarioRun resumed(divergent, file);
  EXPECT_EQ(resumed.spec().scheduler, "err");
  resumed.run_to_completion();
  expect_identical(a, resumed.finish(), "divergent wiring");
}

}  // namespace
}  // namespace wormsched::harness
