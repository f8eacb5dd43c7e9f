// Tests for the network conservation auditor: audited fabric runs (with
// and without fault injection) must come back violation-free, and the
// sampling cadence must follow check_every while the observer hook still
// fires every cycle.
#include <gtest/gtest.h>

#include "harness/network_sweep.hpp"
#include "validate/faults.hpp"
#include "validate/network_auditor.hpp"
#include "validate/violation.hpp"
#include "wormhole/network.hpp"
#include "../common/tick_loop.hpp"

namespace wormsched::validate {
namespace {

harness::NetworkScenarioConfig audited_scenario() {
  harness::NetworkScenarioConfig config;
  config.traffic.packets_per_node_per_cycle = 0.03;
  config.traffic.inject_until = 2000;
  config.audit = true;
  return config;
}

TEST(NetworkAuditorTest, CleanActiveSetRun) {
  const auto result = harness::run_network_scenario(audited_scenario(), 1);
  EXPECT_GT(result.delivered_packets, 0u);
  EXPECT_GT(result.audit_checks, 0u);
  EXPECT_GT(result.audit_opportunities, 0u);
  EXPECT_EQ(result.audit_violations, 0u);
}

TEST(NetworkAuditorTest, CleanFaultedRun) {
  harness::NetworkScenarioConfig config = audited_scenario();
  config.faults = FaultSpec::chaos(5);
  const auto result = harness::run_network_scenario(config, 1);
  // Faults delay flits and credits but never drop them, so conservation
  // must survive stalled links and quarantined credits.
  EXPECT_GT(result.delivered_packets, 0u);
  EXPECT_GT(result.audit_checks, 0u);
  EXPECT_EQ(result.audit_violations, 0u);
}

TEST(NetworkAuditorTest, ChecksEveryCycleByDefault) {
  wormhole::Network net(wormhole::NetworkConfig{});
  AuditLog log(AuditLog::Mode::kCount);
  NetworkAuditor auditor(NetworkAuditorConfig{}, log);
  net.attach_observer(&auditor);
  net.inject(0, wormhole::PacketDescriptor{.id = PacketId(0), .flow = FlowId(0),
                                           .source = NodeId(0),
                                           .dest = NodeId(15), .length = 4});
  test::TickLoop loop(net);
  loop.run_until(100);
  EXPECT_EQ(auditor.checks_run(), 100u);
  EXPECT_TRUE(log.clean());
}

TEST(NetworkAuditorTest, SamplingCadenceHonorsCheckEvery) {
  wormhole::Network net(wormhole::NetworkConfig{});
  AuditLog log(AuditLog::Mode::kCount);
  NetworkAuditor auditor(
      NetworkAuditorConfig{.mode = AuditMode::kFull, .check_every = 4}, log);
  net.attach_observer(&auditor);
  net.inject(0, wormhole::PacketDescriptor{.id = PacketId(0), .flow = FlowId(0),
                                           .source = NodeId(0),
                                           .dest = NodeId(15), .length = 4});
  test::TickLoop loop(net);
  loop.run_until(200);
  // Cycles 0, 4, ..., 196: the hook fires every cycle, the O(fabric)
  // conservation walk only on the sampled ones.
  EXPECT_EQ(auditor.checks_run(), 50u);
  EXPECT_TRUE(log.clean());
}

TEST(NetworkAuditorTest, FinishFlushesTailWindow) {
  // Regression: with check_every > 1 a violation arising after the last
  // sampled cycle used to escape the run entirely — nothing ever checked
  // the tail window.  finish() closes it.
  wormhole::Network net(wormhole::NetworkConfig{});
  AuditLog log(AuditLog::Mode::kCount);
  NetworkAuditor auditor(
      NetworkAuditorConfig{.mode = AuditMode::kFull, .check_every = 4}, log);
  net.attach_observer(&auditor);
  net.inject(0, wormhole::PacketDescriptor{.id = PacketId(0), .flow = FlowId(0),
                                           .source = NodeId(0),
                                           .dest = NodeId(15), .length = 4});
  test::TickLoop loop(net);
  loop.run_until(97);  // checks at 0, 4, ..., 96

  // Plant a flit that was never injected: flit conservation is broken
  // from here on, but cycles 97-98 fall between samples.
  wormhole::Flit phantom;
  phantom.type = wormhole::FlitType::kHeadTail;
  phantom.slot = net.packets().add(wormhole::PacketDescriptor{
      .id = PacketId(1'000'000), .flow = FlowId(0), .source = NodeId(3),
      .dest = NodeId(3)});
  net.router(NodeId(3)).accept_flit(wormhole::Direction::kLocal, 0, phantom);
  loop.run_until(99);
  ASSERT_TRUE(log.clean()) << "tail cycles must not have been sampled yet";

  auditor.finish(99, net);
  EXPECT_FALSE(log.clean());
  // Idempotent: a second flush adds nothing.
  const std::uint64_t after_first = log.count();
  auditor.finish(99, net);
  EXPECT_EQ(log.count(), after_first);
}

TEST(NetworkAuditorTest, IncrementalFinishRunsFinalCrosscheck) {
  wormhole::Network net(wormhole::NetworkConfig{});
  AuditLog log(AuditLog::Mode::kCount);
  NetworkAuditor auditor(NetworkAuditorConfig{.check_every = 8}, log);
  net.attach_observer(&auditor);
  net.inject(0, wormhole::PacketDescriptor{.id = PacketId(0), .flow = FlowId(0),
                                           .source = NodeId(0),
                                           .dest = NodeId(15), .length = 4});
  test::TickLoop loop(net);
  loop.run_until(97);
  const std::uint64_t rescans_before = auditor.full_rescans();
  auditor.finish(97, net);
  EXPECT_GT(auditor.full_rescans(), rescans_before);
  EXPECT_TRUE(log.clean());
}

}  // namespace
}  // namespace wormsched::validate
