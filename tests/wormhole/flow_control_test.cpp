// On/off (threshold) flow control at the router level, the infinite
// buffer model, and the config-validation death tests (buffer_depth 0,
// malformed watermarks, signals into a credit-only environment).
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "wormhole/network.hpp"
#include "wormhole/router.hpp"

namespace wormsched::wormhole {
namespace {

struct SentSignal {
  Direction in;
  std::uint32_t cls;
  bool on;
};

/// Scripted env that records signals; credit-only envs use the base
/// class's aborting send_signal (see the death test).
class OnOffEnv final : public RouterEnv {
 public:
  void send_flit(NodeId, Direction out, const Flit& flit) override {
    sent.push_back(out);
    (void)flit;
  }
  void eject(NodeId, const Flit&, Cycle) override { ++ejected; }
  void send_credit(NodeId, Direction, std::uint32_t) override { ++credits; }
  void send_signal(NodeId, Direction in, std::uint32_t cls,
                   bool on) override {
    signals.push_back(SentSignal{in, cls, on});
  }
  RouteDecision route(NodeId, const Flit&, Direction,
                      std::uint32_t) override {
    return RouteDecision{Direction::kEast, 0, false};
  }

  std::vector<Direction> sent;
  std::vector<SentSignal> signals;
  int ejected = 0;
  int credits = 0;
};

/// The fabric the router under test sits in: its flits run from node 1
/// to node 0.
constexpr std::uint32_t kNodes = 2;

Flit make_flit(std::uint64_t packet, Flits index, Flits length) {
  Flit f;
  f.packet = PacketId(packet);
  f.flow = FlowId(0);
  f.source = NodeId(1);
  f.dest = NodeId(0);
  f.index = index;
  const bool head = index == 0;
  const bool tail = index + 1 == length;
  f.type = head && tail ? FlitType::kHeadTail
           : head       ? FlitType::kHead
           : tail       ? FlitType::kTail
                        : FlitType::kBody;
  return f;
}

RouterConfig onoff_config() {
  RouterConfig config;
  config.num_vcs = 2;
  config.buffer_depth = 4;
  config.arbiter = "err-cycles";
  config.flow_control = FlowControl::kOnOff;
  config.on_high = 2;
  config.on_low = 1;
  return config;
}

TEST(OnOffRouter, RaisesOffAtHighWatermarkRestoresAtLow) {
  OnOffEnv env;
  Router r(NodeId(0), onoff_config(), kNodes);
  // Downstream parks our east output so the input backs up.
  r.accept_signal(Direction::kEast, 0, false);
  for (Flits i = 0; i < 3; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(1, i, 3));
  r.tick(0, env);
  EXPECT_TRUE(env.sent.empty());  // peer is off: nothing may leave
  ASSERT_EQ(env.signals.size(), 1u);  // occupancy 3 >= on_high 2
  EXPECT_EQ(env.signals[0].in, Direction::kWest);
  EXPECT_FALSE(env.signals[0].on);
  EXPECT_TRUE(r.off_sent(Direction::kWest, 0));

  r.tick(1, env);
  EXPECT_EQ(env.signals.size(), 1u);  // off is edge-triggered, not re-sent

  // Downstream restores us; the worm drains one flit per cycle and the
  // "on" fires when occupancy falls to on_low.
  r.accept_signal(Direction::kEast, 0, true);
  for (Cycle t = 2; t < 8 && !r.drained(); ++t) r.tick(t, env);
  EXPECT_FALSE(r.off_sent(Direction::kWest, 0));
  ASSERT_EQ(env.signals.size(), 2u);
  EXPECT_TRUE(env.signals[1].on);
  EXPECT_EQ(env.signals[1].in, Direction::kWest);
  EXPECT_EQ(env.sent.size(), 3u);
  // Threshold flow control never returns credits.
  EXPECT_EQ(env.credits, 0);
}

TEST(OnOffRouter, ParkedOutputHoldsEvenWithBufferSpace) {
  OnOffEnv env;
  Router r(NodeId(0), onoff_config(), kNodes);
  r.accept_signal(Direction::kEast, 0, false);
  r.accept_flit(Direction::kWest, 0, make_flit(2, 0, 1));
  for (Cycle t = 0; t < 4; ++t) r.tick(t, env);
  EXPECT_TRUE(env.sent.empty());
  r.accept_signal(Direction::kEast, 0, true);
  r.tick(4, env);
  ASSERT_EQ(env.sent.size(), 1u);
  EXPECT_EQ(env.sent[0], Direction::kEast);
  // A single buffered flit never crossed on_high: no off was raised.
  EXPECT_TRUE(env.signals.empty());
}

TEST(OnOffRouter, InfiniteBuffersAcceptBeyondDepthWithoutBackpressure) {
  OnOffEnv env;
  RouterConfig config = onoff_config();
  config.buffer_model = BufferModel::kInfinite;
  config.flow_control = FlowControl::kCredit;  // irrelevant when infinite
  config.on_high = config.on_low = 0;
  Router r(NodeId(0), config, kNodes);
  // 10 flits into a depth-4 buffer: legal, the model is unbounded.
  for (Flits i = 0; i < 10; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(3, i, 10));
  for (Cycle t = 0; t < 12; ++t) r.tick(t, env);
  EXPECT_EQ(env.sent.size(), 10u);
  // No backpressure traffic of either kind.
  EXPECT_EQ(env.credits, 0);
  EXPECT_TRUE(env.signals.empty());
}

TEST(OnOffNetwork, AutoWatermarksResolveFromLinkLatency) {
  NetworkConfig config;
  config.topo = TopologySpec::mesh(2, 2);
  config.router.flow_control = FlowControl::kOnOff;
  config.router.buffer_depth = 8;
  // link_latency 1: headroom 3*1 - 2 = 1, so high = 7, low = 4.
  Network net(config);
  EXPECT_EQ(net.config().router.on_high, 7u);
  EXPECT_EQ(net.config().router.on_low, 4u);
}

using FlowControlDeathTest = ::testing::Test;

TEST(FlowControlDeathTest, BufferDepthZeroAbortsRouter) {
  RouterConfig config = onoff_config();
  config.buffer_depth = 0;
  EXPECT_DEATH(Router(NodeId(0), config, kNodes),
               "buffer_depth 0 deadlocks every flow-control scheme");
}

TEST(FlowControlDeathTest, BufferDepthZeroAbortsNetwork) {
  NetworkConfig config;
  config.router.buffer_depth = 0;
  EXPECT_DEATH(Network{config},
               "buffer_depth 0 deadlocks every flow-control scheme");
}

TEST(FlowControlDeathTest, MalformedWatermarksAbort) {
  RouterConfig config = onoff_config();
  config.on_low = 3;
  config.on_high = 2;  // low > high
  EXPECT_DEATH(Router(NodeId(0), config, kNodes),
               "1 <= on_low <= on_high <= buffer_depth");
  config.on_low = 1;
  config.on_high = 5;  // high > depth (4)
  EXPECT_DEATH(Router(NodeId(0), config, kNodes),
               "1 <= on_low <= on_high <= buffer_depth");
}

TEST(FlowControlDeathTest, CreditOnlyEnvRejectsSignals) {
  // An env that never overrides send_signal (the credit-era interface)
  // must abort loudly if an on/off router tries to signal through it.
  class CreditOnlyEnv final : public RouterEnv {
   public:
    void send_flit(NodeId, Direction, const Flit&) override {}
    void eject(NodeId, const Flit&, Cycle) override {}
    void send_credit(NodeId, Direction, std::uint32_t) override {}
    RouteDecision route(NodeId, const Flit&, Direction,
                        std::uint32_t) override {
      return RouteDecision{Direction::kEast, 0, false};
    }
  };
  CreditOnlyEnv env;
  Router r(NodeId(0), onoff_config(), kNodes);
  r.accept_signal(Direction::kEast, 0, false);
  for (Flits i = 0; i < 3; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(4, i, 3));
  EXPECT_DEATH(r.tick(0, env), "router env does not carry on/off signals");
}

TEST(FlowControlDeathTest, SignalsOutsideOnOffModeAbort) {
  RouterConfig config = onoff_config();
  config.flow_control = FlowControl::kCredit;
  Router r(NodeId(0), config, kNodes);
  EXPECT_DEATH(r.accept_signal(Direction::kEast, 0, false),
               "on/off signal outside on/off flow control");
}

}  // namespace
}  // namespace wormsched::wormhole
