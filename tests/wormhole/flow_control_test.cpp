// On/off (threshold) flow control at the router level, the hysteresis
// walk over changed units against a full rescan, the infinite buffer
// model, and the config-validation death tests (buffer_depth 0,
// malformed watermarks, signals into a credit-only environment).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/archive.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
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
  void send_flit(NodeId, Direction out, const Flit& flit) {
    sent.push_back(out);
    (void)flit;
  }
  void eject(NodeId, const Flit&, Cycle) { ++ejected; }
  void send_credit(NodeId, Direction, std::uint32_t) { ++credits; }
  void send_signal(NodeId, Direction in, std::uint32_t cls, bool on) {
    signals.push_back(SentSignal{in, cls, on});
  }
  RouteDecision route(NodeId, const Flit&, Direction, std::uint32_t) {
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

/// A flit of packet slot `packet` (no test here reads the packet table).
Flit make_flit(std::uint64_t packet, Flits index, Flits length) {
  Flit f;
  f.slot = static_cast<PacketSlot>(packet);
  f.index = static_cast<std::uint32_t>(index);
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

// --- Hysteresis over changed units -----------------------------------------

/// Drives one on/off router with `config` through random arrivals on five
/// non-local input units, departures through the east output (parked and
/// released at random), frozen cycles (arrivals land, the router does not
/// tick) and two save/restore round trips, and checks every tick's
/// signals against a scan of every unit that the test computes itself.
/// Returns the ticks whose signals were re-fired with no flit moving.
int check_hysteresis_against_rescan(const RouterConfig& config) {
  struct Unit {
    Direction in;
    std::uint32_t cls;
    Flits next_index = 0;
    std::uint64_t packet = 0;
  };
  std::vector<Unit> units = {{Direction::kNorth, 0}, {Direction::kNorth, 1},
                             {Direction::kWest, 0},  {Direction::kWest, 1},
                             {Direction::kSouth, 0}};
  constexpr Flits kLength = 3;
  PacketTable packets;
  OnOffEnv env;
  auto r = std::make_unique<Router>(NodeId(0), config, kNodes);
  Rng rng(11);
  // The scan the router's mask walk must reproduce: per non-local unit,
  // in ascending unit order, off at >= on_high, on at <= on_low.
  std::vector<bool> off(r->num_units(), false);
  int refires = 0;
  std::size_t signals_seen = 0;
  std::uint64_t next_id = 0;
  for (Cycle t = 0; t < 600; ++t) {
    bool moved = false;
    for (Unit& u : units) {
      if (!rng.bernoulli(0.35) ||
          r->input_buffer_size(u.in, u.cls) >= config.buffer_depth)
        continue;
      if (u.next_index == 0)
        u.packet = packets.add(PacketDescriptor{
            PacketId(next_id++), FlowId(0), NodeId(1), NodeId(0), kLength,
            t});
      Flit f = make_flit(u.packet, u.next_index, kLength);
      f.vc_class = static_cast<std::uint8_t>(u.cls);
      r->accept_flit(u.in, u.cls, f);
      u.next_index = (u.next_index + 1) % kLength;
      moved = true;
    }
    if (rng.bernoulli(0.2))
      r->accept_signal(Direction::kEast, 0, rng.bernoulli(0.5));
    if (t == 200 || t == 400) {
      SnapshotWriter w;
      Archive save(w);
      r->fields(save, packets);
      auto restored = std::make_unique<Router>(NodeId(0), config, kNodes);
      SnapshotReader in(w.bytes());
      Archive load(in);
      restored->fields(load, packets);
      packets.finish_restore();
      r = std::move(restored);
    }
    if (rng.bernoulli(0.1)) continue;  // a frozen cycle
    const std::size_t sent_before = env.sent.size();
    r->tick(t, env);
    moved |= env.sent.size() != sent_before;
    std::vector<SentSignal> expected;
    for (std::uint32_t g = config.num_vcs; g < r->num_units(); ++g) {
      const Direction d = r->unit_direction(g);
      const std::uint32_t cls = r->unit_class(g);
      const std::size_t occ = r->input_buffer_size(d, cls);
      if (!off[g] && occ >= config.on_high) {
        off[g] = true;
        expected.push_back(SentSignal{d, cls, false});
      } else if (off[g] && occ <= config.on_low) {
        off[g] = false;
        expected.push_back(SentSignal{d, cls, true});
      }
    }
    EXPECT_EQ(env.signals.size() - signals_seen, expected.size()) << t;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (signals_seen + i >= env.signals.size()) break;
      const SentSignal& got = env.signals[signals_seen + i];
      EXPECT_EQ(got.in, expected[i].in) << t;
      EXPECT_EQ(got.cls, expected[i].cls) << t;
      EXPECT_EQ(got.on, expected[i].on) << t;
    }
    if (!moved && !expected.empty()) ++refires;
    signals_seen = env.signals.size();
  }
  EXPECT_GT(signals_seen, 20u);
  return refires;
}

TEST(OnOffHysteresis, EqualWatermarksMatchAFullRescan) {
  // on_low == on_high: a unit sitting at the watermark fires every tick,
  // off and on in turn, even when no flit moves.
  RouterConfig config = onoff_config();
  config.buffer_depth = 8;
  config.on_low = config.on_high = 3;
  EXPECT_GT(check_hysteresis_against_rescan(config), 0);
}

TEST(OnOffHysteresis, AutoWatermarksMatchAFullRescan) {
  NetworkConfig fabric;
  fabric.router = onoff_config();
  fabric.router.buffer_depth = 8;
  fabric.router.on_high = fabric.router.on_low = 0;  // auto
  const RouterConfig config = Network(fabric).config().router;
  ASSERT_LT(config.on_low, config.on_high);
  check_hysteresis_against_rescan(config);
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
  // An env that never defines send_signal (the credit-era interface)
  // must abort loudly if an on/off router tries to signal through it.
  class CreditOnlyEnv final : public RouterEnv {
   public:
    void send_flit(NodeId, Direction, const Flit&) {}
    void eject(NodeId, const Flit&, Cycle) {}
    void send_credit(NodeId, Direction, std::uint32_t) {}
    RouteDecision route(NodeId, const Flit&, Direction, std::uint32_t) {
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
