#include "wormhole/network.hpp"

#include <gtest/gtest.h>

#include "wormhole/patterns.hpp"
#include "../common/tick_loop.hpp"

namespace wormsched::wormhole {
namespace {

// What a flit-hop moves: a flit names its packet by slot (flit.hpp and
// shard.hpp assert the 16- and 32-byte bounds).
static_assert(sizeof(Flit) == 12);
static_assert(sizeof(Network::WireFlit) == 32);

PacketDescriptor make_packet(std::uint64_t id, std::uint32_t src,
                             std::uint32_t dest, Flits len, Cycle created) {
  PacketDescriptor p;
  p.id = PacketId(id);
  p.flow = FlowId(src);
  p.source = NodeId(src);
  p.dest = NodeId(dest);
  p.length = len;
  p.created = created;
  return p;
}

Cycle run_to_idle(Network& net, Cycle cap = 200000) {
  test::TickLoop loop(net);
  return loop.run_until_idle(cap);
}

TEST(Network, PacketTableHoldsOnlyPacketsInTheFabric) {
  // Every packet is filed at inject() and released at its tail's
  // ejection, so a drained fabric holds none, and the table grows only to
  // the packets held at once.
  NetworkConfig config;
  config.topo = TopologySpec::mesh(4, 4);
  Network net(config);
  test::TickLoop loop(net);
  std::uint64_t id = 0;
  for (Cycle t = 0; t < 2'000; t += 20) {
    for (std::uint32_t n = 0; n < 16; ++n)
      net.inject(t, make_packet(id++, n, 15 - n, 4, t));
    EXPECT_EQ(net.packets().size(), net.injected_packets() -
                                        net.delivered_packets());
    loop.run_until(t + 20);
  }
  loop.run_until_idle(100'000);
  EXPECT_EQ(net.delivered_packets(), id);
  EXPECT_EQ(net.packets().size(), 0u);
  EXPECT_LT(net.packets().capacity(), id / 4);
}

TEST(Network, DeliversSinglePacketAcrossMesh) {
  NetworkConfig config;
  config.topo = TopologySpec::mesh(4, 4);
  Network net(config);
  net.inject(0, make_packet(1, 0, 15, 8, 0));
  const Cycle end = run_to_idle(net);
  ASSERT_EQ(net.delivered().size(), 1u);
  const DeliveredPacket& p = net.delivered()[0];
  EXPECT_EQ(p.source, NodeId(0));
  EXPECT_EQ(p.dest, NodeId(15));
  EXPECT_EQ(p.length, 8);
  // 6 link traversals take the head to the far corner by cycle 6 at the
  // earliest; the tail (flit 8) ejects 7 cycles later.
  EXPECT_GE(p.delivered - p.created, 13u);
  EXPECT_LT(end, 200u);
}

TEST(Network, LocalDelivery) {
  NetworkConfig config;
  config.topo = TopologySpec::mesh(2, 2);
  Network net(config);
  net.inject(0, make_packet(1, 1, 1, 3, 0));  // dest == source
  run_to_idle(net);
  ASSERT_EQ(net.delivered().size(), 1u);
  EXPECT_EQ(net.delivered()[0].dest, NodeId(1));
}

TEST(Network, ConservationUnderUniformLoad) {
  NetworkConfig config;
  config.topo = TopologySpec::mesh(4, 4);
  Network net(config);
  NetworkTrafficSource::Config traffic_config;
  traffic_config.packets_per_node_per_cycle = 0.01;
  traffic_config.inject_until = 3000;
  traffic_config.lengths = traffic::LengthSpec::uniform(1, 12);
  NetworkTrafficSource source(net, traffic_config);
  test::TickLoop loop(source, net);
  loop.run_until(3000);
  loop.run_until_idle(100000);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.delivered().size(), source.generated());
  EXPECT_EQ(net.injected_packets(), source.generated());
  // Flit-level conservation: every flit of every packet was ejected,
  // none duplicated.
  Flits delivered_lengths = 0;
  for (const auto& p : net.delivered()) delivered_lengths += p.length;
  EXPECT_EQ(static_cast<std::uint64_t>(delivered_lengths),
            net.delivered_flits());
}

TEST(Network, TorusDeliversWithDateline) {
  NetworkConfig config;
  config.topo = TopologySpec::torus(4, 4);
  config.router.num_vcs = 2;
  Network net(config);
  // Exercise wrap links explicitly: corner-to-corner both dimensions.
  net.inject(0, make_packet(1, 0, 15, 6, 0));   // wraps west+north way
  net.inject(0, make_packet(2, 15, 0, 6, 0));
  net.inject(0, make_packet(3, 3, 0, 6, 0));    // X wrap
  run_to_idle(net);
  EXPECT_EQ(net.delivered().size(), 3u);
}

TEST(Network, TorusSaturationNoDeadlock) {
  // Heavy uniform load on a torus: the dateline VCs must prevent deadlock
  // and the network must fully drain after injection stops.
  NetworkConfig config;
  config.topo = TopologySpec::torus(4, 4);
  config.router.num_vcs = 2;
  config.router.buffer_depth = 4;
  Network net(config);
  NetworkTrafficSource::Config traffic_config;
  traffic_config.packets_per_node_per_cycle = 0.05;  // well past saturation
  traffic_config.inject_until = 2000;
  traffic_config.lengths = traffic::LengthSpec::uniform(1, 8);
  traffic_config.seed = 5;
  NetworkTrafficSource source(net, traffic_config);
  test::TickLoop loop(source, net);
  loop.run_until(2000);
  const Cycle end = loop.run_until_idle(500000);
  EXPECT_TRUE(net.idle()) << "possible deadlock: stopped at " << end;
  EXPECT_EQ(net.delivered().size(), source.generated());
}

TEST(Network, MeshSaturationNoDeadlockAllArbiters) {
  for (const char* arbiter : {"err-cycles", "err-flits", "rr", "fcfs"}) {
    SCOPED_TRACE(arbiter);
    NetworkConfig config;
    config.topo = TopologySpec::mesh(3, 3);
    config.router.arbiter = arbiter;
    config.router.buffer_depth = 4;
    Network net(config);
    NetworkTrafficSource::Config traffic_config;
    traffic_config.packets_per_node_per_cycle = 0.08;
    traffic_config.inject_until = 1500;
    traffic_config.lengths = traffic::LengthSpec::uniform(1, 8);
    NetworkTrafficSource source(net, traffic_config);
    test::TickLoop loop(source, net);
    loop.run_until(1500);
    loop.run_until_idle(300000);
    EXPECT_TRUE(net.idle());
    EXPECT_EQ(net.delivered().size(), source.generated());
  }
}

TEST(Network, IdleIsConstantTimeCounterCheck) {
  // idle() must be true exactly when nothing is buffered, bound, queued
  // or in flight — checked across inject / drain phase boundaries.
  NetworkConfig config;
  config.topo = TopologySpec::mesh(4, 4);
  Network net(config);
  EXPECT_TRUE(net.idle());
  net.inject(0, make_packet(1, 0, 15, 4, 0));
  EXPECT_FALSE(net.idle());  // NIC backlog counts as busy
  run_to_idle(net);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.delivered().size(), 1u);
}

TEST(Network, LatencyGrowsWithDistance) {
  NetworkConfig config;
  config.topo = TopologySpec::mesh(8, 1);
  Network net(config);
  net.inject(0, make_packet(1, 0, 1, 4, 0));
  net.inject(0, make_packet(2, 0, 7, 4, 0));
  run_to_idle(net);
  ASSERT_EQ(net.delivered().size(), 2u);
  Cycle near = 0, far = 0;
  for (const auto& p : net.delivered()) {
    if (p.dest == NodeId(1)) near = p.delivered - p.created;
    if (p.dest == NodeId(7)) far = p.delivered - p.created;
  }
  EXPECT_GT(far, near);
}

TEST(Network, PerFlowAccounting) {
  NetworkConfig config;
  config.topo = TopologySpec::mesh(2, 2);
  Network net(config);
  net.inject(0, make_packet(1, 0, 3, 5, 0));
  net.inject(0, make_packet(2, 1, 2, 7, 0));
  run_to_idle(net);
  const auto flits = net.delivered_flits_by_flow(4);
  EXPECT_EQ(flits[0], 5);
  EXPECT_EQ(flits[1], 7);
  EXPECT_EQ(flits[2], 0);
  EXPECT_EQ(net.latency_by_source(NodeId(0)).count(), 1u);
  EXPECT_EQ(net.latency_overall().count(), 2u);
}

TEST(Patterns, DestinationsAreValidAndNotSelf) {
  Topology topo(TopologySpec::mesh(4, 4));
  Rng rng(9);
  for (const auto kind :
       {PatternSpec::Kind::kUniform, PatternSpec::Kind::kTranspose,
        PatternSpec::Kind::kBitComplement, PatternSpec::Kind::kHotspot,
        PatternSpec::Kind::kNeighbor}) {
    PatternSpec pattern;
    pattern.kind = kind;
    pattern.hotspot = NodeId(5);
    for (std::uint32_t src = 0; src < 16; ++src) {
      for (int k = 0; k < 8; ++k) {
        const NodeId dest =
            pick_destination(topo, pattern, NodeId(src), rng);
        EXPECT_LT(dest.value(), 16u);
        EXPECT_NE(dest, NodeId(src));
      }
    }
  }
}

TEST(Patterns, TransposeSwapsCoordinates) {
  Topology topo(TopologySpec::mesh(4, 4));
  Rng rng(1);
  PatternSpec pattern;
  pattern.kind = PatternSpec::Kind::kTranspose;
  // (1, 2) = node 9 -> (2, 1) = node 6.
  EXPECT_EQ(pick_destination(topo, pattern, NodeId(9), rng), NodeId(6));
}

TEST(Patterns, HotspotConcentratesTraffic) {
  Topology topo(TopologySpec::mesh(4, 4));
  Rng rng(2);
  PatternSpec pattern;
  pattern.kind = PatternSpec::Kind::kHotspot;
  pattern.hotspot = NodeId(10);
  pattern.hotspot_fraction = 0.8;
  int to_hotspot = 0;
  const int n = 4000;
  for (int k = 0; k < n; ++k)
    if (pick_destination(topo, pattern, NodeId(0), rng) == NodeId(10))
      ++to_hotspot;
  EXPECT_GT(static_cast<double>(to_hotspot) / n, 0.75);
}

}  // namespace
}  // namespace wormsched::wormhole
