// Router pipeline unit tests with a scripted env: credit handling,
// output-queue contiguity, worm bubbles, VC-class stamping and credit
// returns, independent of the Network plumbing; how long a worm holds its
// output, tick by tick; and the paper's fairness claims for saturated
// inputs contending for one output whose downstream withholds credits.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/archive.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "core/err.hpp"
#include "wormhole/arbiter.hpp"
#include "wormhole/router.hpp"
#include "../common/field_map.hpp"

namespace wormsched::wormhole {
namespace {

struct SentFlit {
  Direction out;
  Flit flit;
};
struct SentCredit {
  Direction in;
  std::uint32_t cls;
};

class ScriptedEnv final : public RouterEnv {
 public:
  void send_flit(NodeId, Direction out, const Flit& flit) {
    sent.push_back(SentFlit{out, flit});
  }
  void eject(NodeId, const Flit& flit, Cycle) { ejected.push_back(flit); }
  void send_credit(NodeId, Direction in, std::uint32_t cls) {
    credits.push_back(SentCredit{in, cls});
  }
  RouteDecision route(NodeId, const Flit& flit, Direction,
                      std::uint32_t in_class) {
    RouteDecision d = route_for(flit);
    if (keep_class) d.out_class = in_class;
    return d;
  }

  /// The downstream behind the east class-0 output, for tests that call
  /// it once per cycle: it frees one of the flits it holds and returns
  /// that credit, except that while a worm from input port p owns the
  /// output it withholds the credit with probability withhold[p].
  void downstream_cycle(Router& r) {
    const PortArbiter& output = r.arbiter(Direction::kEast, 0);
    const double p =
        output.bound()
            ? withhold[static_cast<std::size_t>(
                  r.unit_direction(output.owner().value()))]
            : 0.0;
    if (r.output_credits(Direction::kEast, 0) < r.config().buffer_depth &&
        !downstream_rng.bernoulli(p))
      r.accept_credit(Direction::kEast, 0);
  }

  std::function<RouteDecision(const Flit&)> route_for =
      [](const Flit&) { return RouteDecision{Direction::kEast, 0, false}; };
  bool keep_class = false;
  std::array<double, kNumDirections> withhold{};
  Rng downstream_rng{17};

  std::vector<SentFlit> sent;
  std::vector<Flit> ejected;
  std::vector<SentCredit> credits;
};

/// The fabric the router under test sits in: its flits run from node 1
/// to node 0.
constexpr std::uint32_t kNodes = 2;

/// The packets of the tests' flits, filed as a network files them.
/// Packet p sits in slot p (the table is filled up to it on first use),
/// except in a router restored from bytes, whose flits name the slots the
/// restore filed.
PacketTable& packets() {
  static PacketTable table;
  return table;
}

/// The id of the packet `flit` belongs to.
PacketId packet_of(const Flit& flit) { return packets()[flit.slot].id; }

Flit make_flit(std::uint32_t packet, Flits index, Flits length) {
  PacketTable& table = packets();
  while (table.capacity() <= packet) {
    const auto slot = static_cast<std::uint32_t>(table.capacity());
    table.add(PacketDescriptor{PacketId(slot), FlowId(0), NodeId(1),
                               NodeId(0), 1, 0});
  }
  Flit f;
  f.slot = packet;
  f.index = static_cast<std::uint32_t>(index);
  const bool head = index == 0;
  const bool tail = index + 1 == length;
  f.type = head && tail ? FlitType::kHeadTail
           : head       ? FlitType::kHead
           : tail       ? FlitType::kTail
                        : FlitType::kBody;
  return f;
}

RouterConfig small_config(std::uint32_t buffer_depth = 8) {
  RouterConfig config;
  config.num_vcs = 2;
  config.buffer_depth = buffer_depth;
  config.arbiter = "err-cycles";
  return config;
}

TEST(Router, ForwardsWholePacketInOrder) {
  ScriptedEnv env;
  Router r(NodeId(0), small_config(), kNodes);
  for (Flits i = 0; i < 3; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(7, i, 3));
  for (Cycle t = 0; t < 6; ++t) r.tick(t, env);
  ASSERT_EQ(env.sent.size(), 3u);
  for (Flits i = 0; i < 3; ++i) {
    EXPECT_EQ(env.sent[static_cast<std::size_t>(i)].out, Direction::kEast);
    EXPECT_EQ(Flits{env.sent[static_cast<std::size_t>(i)].flit.index}, i);
  }
  EXPECT_TRUE(r.drained());
  EXPECT_EQ(r.forwarded_flits(), 3u);
}

TEST(Router, LocalPortEjects) {
  ScriptedEnv env;
  env.route_for = [](const Flit&) {
    return RouteDecision{Direction::kLocal, 0, false};
  };
  Router r(NodeId(0), small_config(), kNodes);
  r.accept_flit(Direction::kNorth, 1, make_flit(9, 0, 1));
  r.tick(0, env);
  ASSERT_EQ(env.ejected.size(), 1u);
  EXPECT_TRUE(env.sent.empty());
}

TEST(Router, RespectsCreditLimit) {
  // buffer_depth = 4 credits on the east output; a 6-flit worm must stall
  // after 4 flits until credits return.  The input is fed incrementally
  // (as the upstream credit loop would) to stay within its own buffer.
  ScriptedEnv env;
  Router r(NodeId(0), small_config(4), kNodes);
  for (Flits i = 0; i < 4; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(1, i, 6));
  for (Cycle t = 0; t < 6; ++t) r.tick(t, env);
  EXPECT_EQ(env.sent.size(), 4u);  // output credits exhausted
  r.accept_flit(Direction::kWest, 0, make_flit(1, 4, 6));
  r.accept_flit(Direction::kWest, 0, make_flit(1, 5, 6));
  for (Cycle t = 6; t < 10; ++t) r.tick(t, env);
  EXPECT_EQ(env.sent.size(), 4u);  // still no credits
  EXPECT_FALSE(r.drained());
  r.accept_credit(Direction::kEast, 0);
  r.accept_credit(Direction::kEast, 0);
  for (Cycle t = 10; t < 14; ++t) r.tick(t, env);
  EXPECT_EQ(env.sent.size(), 6u);
  EXPECT_TRUE(r.drained());
}

TEST(Router, ReturnsCreditUpstreamPerForwardedFlit) {
  ScriptedEnv env;
  Router r(NodeId(0), small_config(), kNodes);
  for (Flits i = 0; i < 2; ++i)
    r.accept_flit(Direction::kSouth, 1, make_flit(2, i, 2));
  for (Cycle t = 0; t < 4; ++t) r.tick(t, env);
  ASSERT_EQ(env.credits.size(), 2u);
  EXPECT_EQ(env.credits[0].in, Direction::kSouth);
  EXPECT_EQ(env.credits[0].cls, 1u);
}

TEST(Router, NoCreditReturnForLocalInjection) {
  ScriptedEnv env;
  Router r(NodeId(0), small_config(), kNodes);
  r.accept_flit(Direction::kLocal, 0, make_flit(3, 0, 1));
  r.tick(0, env);
  EXPECT_TRUE(env.credits.empty());
  EXPECT_EQ(env.sent.size(), 1u);
}

TEST(Router, OutputQueuePacketsNeverInterleave) {
  // Two inputs race for the same output VC with multi-flit worms; the
  // output sequence must be packet-contiguous (the wormhole invariant).
  ScriptedEnv env;
  Router r(NodeId(0), small_config(), kNodes);
  for (Flits i = 0; i < 4; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(10, i, 4));
  for (Flits i = 0; i < 4; ++i)
    r.accept_flit(Direction::kNorth, 0, make_flit(11, i, 4));
  for (Cycle t = 0; t < 12; ++t) r.tick(t, env);
  ASSERT_EQ(env.sent.size(), 8u);
  EXPECT_EQ(packet_of(env.sent[0].flit), packet_of(env.sent[3].flit));
  EXPECT_EQ(packet_of(env.sent[4].flit), packet_of(env.sent[7].flit));
  EXPECT_NE(packet_of(env.sent[0].flit), packet_of(env.sent[4].flit));
}

TEST(Router, WormBubbleDoesNotLeakOtherPackets) {
  // The head arrives alone; the body lags.  While the worm has a bubble,
  // a competing packet on another input must NOT slip into the bound
  // output queue.
  ScriptedEnv env;
  Router r(NodeId(0), small_config(), kNodes);
  r.accept_flit(Direction::kWest, 0, make_flit(20, 0, 3));  // head only
  for (Flits i = 0; i < 2; ++i)
    r.accept_flit(Direction::kNorth, 0, make_flit(21, i, 2));
  for (Cycle t = 0; t < 3; ++t) r.tick(t, env);
  // Head forwarded; bubble; competitor waits.
  ASSERT_EQ(env.sent.size(), 1u);
  EXPECT_EQ(packet_of(env.sent[0].flit), PacketId(20));
  // Body + tail arrive; worm completes; then the competitor runs.
  r.accept_flit(Direction::kWest, 0, make_flit(20, 1, 3));
  r.accept_flit(Direction::kWest, 0, make_flit(20, 2, 3));
  for (Cycle t = 3; t < 10; ++t) r.tick(t, env);
  ASSERT_EQ(env.sent.size(), 5u);
  EXPECT_EQ(packet_of(env.sent[2].flit), PacketId(20));
  EXPECT_EQ(packet_of(env.sent[3].flit), PacketId(21));
}

TEST(Router, StampsOutputVcClass) {
  // Route decision sends the packet out on class 1 (dateline); forwarded
  // flits must carry the new class.
  ScriptedEnv env;
  env.route_for = [](const Flit&) {
    return RouteDecision{Direction::kEast, 1, true};
  };
  Router r(NodeId(0), small_config(), kNodes);
  for (Flits i = 0; i < 2; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(30, i, 2));
  for (Cycle t = 0; t < 4; ++t) r.tick(t, env);
  ASSERT_EQ(env.sent.size(), 2u);
  EXPECT_EQ(env.sent[0].flit.vc_class, 1u);
  EXPECT_EQ(env.sent[1].flit.vc_class, 1u);
}

TEST(Router, TwoVcClassesShareOnePortOneFlitPerCycle) {
  ScriptedEnv env;
  env.keep_class = true;  // class 0 stays 0, class 1 stays 1
  Router r(NodeId(0), small_config(), kNodes);
  for (Flits i = 0; i < 3; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(40, i, 3));
  for (Flits i = 0; i < 3; ++i)
    r.accept_flit(Direction::kWest, 1, make_flit(41, i, 3));
  for (Cycle t = 0; t < 6; ++t) r.tick(t, env);
  ASSERT_EQ(env.sent.size(), 6u);  // exactly one flit per cycle
  // Both VCs progress (flit-level interleaving across VCs is legal).
  bool saw40 = false;
  bool saw41 = false;
  for (std::size_t i = 0; i < 4; ++i) {
    saw40 |= packet_of(env.sent[i].flit) == PacketId(40);
    saw41 |= packet_of(env.sent[i].flit) == PacketId(41);
  }
  EXPECT_TRUE(saw40);
  EXPECT_TRUE(saw41);
}

TEST(Router, PortStatsAccounting) {
  ScriptedEnv env;
  Router r(NodeId(0), small_config(), kNodes);
  for (Flits i = 0; i < 3; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(60, i, 3));
  for (Cycle t = 0; t < 6; ++t) r.tick(t, env);
  const auto& east = r.port_stats(Direction::kEast);
  EXPECT_EQ(east.flits, 3u);
  EXPECT_EQ(east.grants, 1u);
  EXPECT_GE(east.busy, 3u);
  EXPECT_EQ(east.starved, east.busy - 3u);
  const auto& west = r.port_stats(Direction::kWest);
  EXPECT_EQ(west.flits, 0u);
  EXPECT_EQ(west.grants, 0u);
}

TEST(Router, StarvationCountsCreditStalls) {
  ScriptedEnv env;
  Router r(NodeId(0), small_config(4), kNodes);
  for (Flits i = 0; i < 4; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(61, i, 6));
  for (Cycle t = 0; t < 10; ++t) r.tick(t, env);
  const auto& east = r.port_stats(Direction::kEast);
  EXPECT_EQ(east.flits, 4u);      // out of credits after 4
  EXPECT_GE(east.starved, 5u);    // bound but stuck for the rest
}

TEST(Router, PendingMasksTrackPipelineState) {
  ScriptedEnv env;
  Router r(NodeId(0), small_config(), kNodes);
  EXPECT_EQ(r.routable_inputs_mask(), 0u);
  EXPECT_EQ(r.requesting_outputs_mask(), 0u);
  EXPECT_EQ(r.bound_outputs_mask(), 0u);

  // A fresh head makes its input unit routable.
  r.accept_flit(Direction::kWest, 0, make_flit(70, 0, 2));
  const std::uint64_t west0 = std::uint64_t{1}
                              << r.unit(Direction::kWest, 0);
  const std::uint64_t east0 = std::uint64_t{1}
                              << r.unit(Direction::kEast, 0);
  EXPECT_EQ(r.routable_inputs_mask(), west0);

  // RC consumes the routable bit; VA consumes the request and binds the
  // east output, all within one tick.
  r.tick(0, env);
  EXPECT_EQ(r.routable_inputs_mask(), 0u);
  EXPECT_EQ(r.requesting_outputs_mask(), 0u);
  EXPECT_EQ(r.bound_outputs_mask(), east0);
  EXPECT_TRUE(r.output_bound(Direction::kEast, 0));

  // A body flit on a routed VC must NOT re-raise the routable bit.
  r.accept_flit(Direction::kWest, 0, make_flit(70, 1, 2));
  EXPECT_EQ(r.routable_inputs_mask(), 0u);

  // Tail leaves: binding dissolves, all masks drain to zero.
  for (Cycle t = 1; t < 4; ++t) r.tick(t, env);
  EXPECT_TRUE(r.drained());
  EXPECT_EQ(r.routable_inputs_mask(), 0u);
  EXPECT_EQ(r.requesting_outputs_mask(), 0u);
  EXPECT_EQ(r.bound_outputs_mask(), 0u);
}

TEST(Router, RequestingMaskStaysSetWhileBacklogged) {
  // Two packets from different inputs want the same output: after the
  // first wins VA, the loser's pending head must keep the output's
  // requesting bit up so the sparse pipeline revisits it on release.
  ScriptedEnv env;
  Router r(NodeId(0), small_config(), kNodes);
  r.accept_flit(Direction::kWest, 0, make_flit(71, 0, 1));
  r.accept_flit(Direction::kNorth, 0, make_flit(72, 0, 1));
  const std::uint64_t east0 = std::uint64_t{1}
                              << r.unit(Direction::kEast, 0);
  r.tick(0, env);
  // The winner's single-flit worm moved and released within the tick, so
  // the binding is gone — but the loser's pending head must keep the
  // output's requesting bit up.
  EXPECT_EQ(env.sent.size(), 1u);
  EXPECT_EQ(r.bound_outputs_mask(), 0u);
  EXPECT_EQ(r.requesting_outputs_mask(), east0);
  for (Cycle t = 1; t < 5; ++t) r.tick(t, env);
  EXPECT_TRUE(r.drained());
  EXPECT_EQ(r.requesting_outputs_mask(), 0u);
  EXPECT_EQ(env.sent.size(), 2u);
}

TEST(Router, TailHandlingReRequestsNextHeadBeforeRelease) {
  // Back-to-back packets in one input VC: the continuation re-request
  // must keep the packets flowing with no idle cycle between them, and
  // the requesting/bound masks must stay live across the boundary.
  ScriptedEnv env;
  Router r(NodeId(0), small_config(), kNodes);
  for (Flits i = 0; i < 2; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(80, i, 2));
  for (Flits i = 0; i < 2; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(81, i, 2));
  Cycle sent3_at = 0;
  for (Cycle t = 0; t < 8; ++t) {
    r.tick(t, env);
    if (env.sent.size() == 3 && sent3_at == 0) sent3_at = t;
  }
  ASSERT_EQ(env.sent.size(), 4u);
  EXPECT_EQ(packet_of(env.sent[1].flit), PacketId(80));
  EXPECT_EQ(packet_of(env.sent[2].flit), PacketId(81));
  // Head of packet 81 moves on the cycle right after packet 80's tail:
  // tick 1 sends the tail (flit 2 of the run), tick 2 the next head.
  EXPECT_EQ(sent3_at, 2u);
}

// --- One output's occupancy, tick by tick -----------------------------------

/// Ticks `r` over [from, to), calling `before_tick(t)` ahead of tick t, and
/// returns the input port that held the east class-0 output on each tick
/// it was held: from the grant tick through the tick the tail left, as the
/// router charges occupancy.  Grants (VA) precede releases (SA) within a
/// tick, so a tick has at most one holder; packets must be at least two
/// flits long, so a tail never leaves on its grant tick.
std::vector<Direction> east_holders(
    Router& r, ScriptedEnv& env, Cycle from, Cycle to,
    const std::function<void(Cycle)>& before_tick = [](Cycle) {}) {
  const PortArbiter& output = r.arbiter(Direction::kEast, 0);
  std::vector<Direction> holders;
  for (Cycle t = from; t < to; ++t) {
    before_tick(t);
    const bool was_bound = output.bound();
    const Direction held_by =
        was_bound ? r.unit_direction(output.owner().value()) : Direction{};
    const std::size_t sent = env.sent.size();
    r.tick(t, env);
    if (output.bound()) {
      holders.push_back(r.unit_direction(output.owner().value()));
    } else if (env.sent.size() != sent && is_tail(env.sent.back().flit.type)) {
      EXPECT_TRUE(was_bound) << "tail left on its grant tick " << t;
      holders.push_back(held_by);
    }
  }
  return holders;
}

TEST(RouterOccupancy, DeliversSinglePacket) {
  // With credits to spare, a 5-flit packet from the NIC holds the output
  // for exactly its length.
  ScriptedEnv env;
  Router r(NodeId(0), small_config(), kNodes);
  for (Flits i = 0; i < 5; ++i)
    r.accept_flit(Direction::kLocal, 0, make_flit(12, i, 5));
  EXPECT_EQ(east_holders(r, env, 0, 10),
            std::vector<Direction>(5, Direction::kLocal));
  EXPECT_TRUE(r.drained());
  ASSERT_EQ(env.sent.size(), 5u);
  EXPECT_EQ(packet_of(env.sent.back().flit), PacketId(12));
  EXPECT_EQ(r.port_stats(Direction::kEast).grants, 1u);
}

TEST(RouterOccupancy, PacketsNeverInterleave) {
  // Wormhole rule: once granted, a packet owns the output until its tail.
  // Two inputs' 4-flit worms race under round robin; each holds the
  // output for four consecutive ticks, one after the other.
  ScriptedEnv env;
  RouterConfig config = small_config();
  config.arbiter = "rr";
  Router r(NodeId(0), config, kNodes);
  for (Flits i = 0; i < 4; ++i) {
    r.accept_flit(Direction::kWest, 0, make_flit(13, i, 4));
    r.accept_flit(Direction::kLocal, 0, make_flit(14, i, 4));
  }
  const std::vector<Direction> holders = east_holders(r, env, 0, 12);
  ASSERT_EQ(holders.size(), 8u);
  EXPECT_EQ(std::count(holders.begin(), holders.begin() + 4, holders[0]), 4);
  EXPECT_EQ(std::count(holders.begin() + 4, holders.end(), holders[4]), 4);
  EXPECT_NE(holders[0], holders[4]);
  EXPECT_TRUE(r.drained());
}

TEST(RouterOccupancy, StallsExtendOccupancyBeyondLength) {
  // The paper's point: a 6-flit worm behind a downstream that frees no
  // slot on two of every four cycles holds the output past its length.
  // With 2 credits, flits 0-3 leave on ticks 0-3, the output starves on
  // ticks 4-5, and flits 4-5 leave on ticks 6-7.
  ScriptedEnv env;
  Router r(NodeId(0), small_config(2), kNodes);
  const std::uint32_t depth = r.config().buffer_depth;
  Flits fed = 0;
  const auto feed_and_drain = [&](Cycle t) {
    while (fed < 6 && r.input_buffer_size(Direction::kWest, 0) < depth)
      r.accept_flit(Direction::kWest, 0, make_flit(15, fed++, 6));
    if (t % 4 >= 2 && r.output_credits(Direction::kEast, 0) < depth)
      r.accept_credit(Direction::kEast, 0);
  };
  const std::vector<Direction> holders =
      east_holders(r, env, 0, 40, feed_and_drain);
  EXPECT_TRUE(r.drained());
  EXPECT_EQ(env.sent.size(), 6u);
  EXPECT_EQ(holders, std::vector<Direction>(8, Direction::kWest));
  EXPECT_EQ(r.port_stats(Direction::kEast).starved, 2u);
}

// --- Saturated inputs contending for one output ----------------------------

/// Inputs kept full of packets bound for the east output, which the
/// env's downstream drains.  Input i arrives on kPorts[i] and its packets
/// are filed as packet 100 + i; counts flits and output occupancy per
/// input, occupancy as the router charges it (grant tick through the
/// tick the tail leaves).
struct Contest {
  static constexpr std::array<Direction, 3> kPorts = {
      Direction::kWest, Direction::kLocal, Direction::kNorth};

  Contest(const std::string& arbiter,
          std::vector<std::function<Flits()>> lengths)
      : router(NodeId(0), config_for(arbiter), kNodes),
        next_length(std::move(lengths)),
        fed(next_length.size()),
        flits(next_length.size()),
        occupancy(next_length.size()) {}

  static RouterConfig config_for(const std::string& arbiter) {
    RouterConfig config = small_config();
    config.arbiter = arbiter;
    return config;
  }

  [[nodiscard]] std::size_t input_of(const Flit& flit) const {
    return static_cast<std::size_t>(packet_of(flit).value() - 100);
  }

  void run(Cycle cycles) {
    for (Cycle t = 0; t < cycles; ++t) {
      for (std::size_t i = 0; i < next_length.size(); ++i) {
        Fed& in = fed[i];
        while (router.input_buffer_size(kPorts[i], 0) <
               router.config().buffer_depth) {
          if (in.index == in.length) {
            in.length = next_length[i]();
            in.index = 0;
          }
          router.accept_flit(
              kPorts[i], 0,
              make_flit(static_cast<std::uint32_t>(100 + i), in.index++,
                        in.length));
        }
      }
      env.downstream_cycle(router);
      const std::size_t before = env.sent.size();
      router.tick(t, env);
      for (std::size_t k = before; k < env.sent.size(); ++k) {
        const Flit& flit = env.sent[k].flit;
        ++flits[input_of(flit)];
        if (!is_tail(flit.type)) continue;
        ++occupancy[input_of(flit)];
        longest_hold = std::max(longest_hold, hold + 1);
        hold = 0;
      }
      const PortArbiter& output = router.arbiter(Direction::kEast, 0);
      if (!output.bound()) continue;
      const Direction owner = router.unit_direction(output.owner().value());
      ++occupancy[static_cast<std::size_t>(
          std::find(kPorts.begin(), kPorts.end(), owner) - kPorts.begin())];
      ++hold;
    }
  }

  /// Share of input 0 in `counts`, which hold two inputs.
  [[nodiscard]] static double share0(
      const std::vector<std::uint64_t>& counts) {
    return static_cast<double>(counts[0]) /
           static_cast<double>(counts[0] + counts[1]);
  }

  struct Fed {
    Flits length = 0;
    Flits index = 0;
  };

  ScriptedEnv env;
  Router router;
  std::vector<std::function<Flits()>> next_length;
  std::vector<Fed> fed;
  std::vector<std::uint64_t> flits;
  std::vector<std::uint64_t> occupancy;
  /// The longest single-packet occupancy seen: the paper's m in the
  /// occupancy domain.
  std::uint64_t longest_hold = 0;
  std::uint64_t hold = 0;  // the current packet's ticks before its tail's
};

std::function<Flits()> constant(Flits length) {
  return [length] { return length; };
}

TEST(RouterContest, ErrCyclesEqualizesOccupancyUnderRandomStalls) {
  // The downstream withholds 30% of credits whoever owns the output, so
  // a packet's occupancy is unpredictable; ERR-cycles still balances
  // occupancy between 12- and 3-flit packets.
  Contest c("err-cycles", {constant(12), constant(3)});
  c.env.withhold.fill(0.3);
  c.run(3000);
  EXPECT_NEAR(static_cast<double>(c.occupancy[0]) /
                  static_cast<double>(c.occupancy[1]),
              1.0, 0.1);
}

TEST(RouterContest, ErrCyclesKeepsFlitsCloseAcrossUnequalLengths) {
  Contest c("err-cycles", {constant(16), constant(2)});
  c.run(1600);
  EXPECT_NEAR(static_cast<double>(c.flits[0]),
              static_cast<double>(c.flits[1]), 3.0 * 16);
}

TEST(RouterContest, Theorem3HoldsInTheOccupancyDomain) {
  // With occupancy charging, FM < 3m holds with m measured in cycles of
  // output occupancy of the longest packet, although stalls randomize
  // each packet's occupancy and the arbiter never knows it in advance.
  Rng rng(31);
  const auto drawn = [&rng] { return Flits{rng.uniform_int(1, 12)}; };
  Contest c("err-cycles", {drawn, drawn, drawn});
  c.env.withhold.fill(0.25);
  c.run(4000);
  ASSERT_GT(c.longest_hold, 0u);
  const auto [lo, hi] =
      std::minmax_element(c.occupancy.begin(), c.occupancy.end());
  EXPECT_LT(*hi - *lo, 3 * c.longest_hold);
}

TEST(RouterContest, AStalledInputSharesOccupancyUnderErrCyclesFlitsUnderRr) {
  // A4 panel 1: only input 0's worms meet a congested downstream, which
  // withholds half of its credits while they own the output.
  Contest err("err-cycles", {constant(4), constant(4)});
  err.env.withhold[static_cast<std::size_t>(Direction::kWest)] = 0.5;
  err.run(20'000);
  EXPECT_NEAR(Contest::share0(err.occupancy), 0.5, 0.02);
  EXPECT_LT(Contest::share0(err.flits), 0.45);

  Contest rr("rr", {constant(4), constant(4)});
  rr.env.withhold[static_cast<std::size_t>(Direction::kWest)] = 0.5;
  rr.run(20'000);
  EXPECT_NEAR(Contest::share0(rr.flits), 0.5, 0.02);
  EXPECT_GT(Contest::share0(rr.occupancy), 0.55);
}

// --- Occupancy charging at release ----------------------------------------

/// Appends the ERR charge of every completed service opportunity on the
/// east class-0 output to `log`.  The scenarios below offer one packet per
/// opportunity, so each entry is one packet's charge.
void record_charges(Router& r, std::vector<double>& log) {
  auto& err = dynamic_cast<ErrArbiter&>(r.arbiter(Direction::kEast, 0));
  err.policy().set_opportunity_listener(
      [&log](const core::ErrOpportunity& o) { log.push_back(o.sent); });
}

/// The checkpoint bytes of `r`.
std::vector<std::uint8_t> save_router(Router& r) {
  SnapshotWriter w;
  Archive a(w);
  r.fields(a, packets());
  return w.take();
}

/// Restores `r` from `bytes`, filing its flits' packets (and, with `map`,
/// recording every field read).  A restore that threw leaves its id
/// index behind, so each one starts by dropping it.
void restore_router(const std::vector<std::uint8_t>& bytes, Router& r,
                    FieldMap* map = nullptr) {
  packets().finish_restore();
  SnapshotReader in(bytes);
  Archive a(in, map);
  r.fields(a, packets());
  packets().finish_restore();
}

/// Saves `r` and returns a fresh router restored from the bytes.
std::unique_ptr<Router> save_and_restore(Router& r) {
  auto restored = std::make_unique<Router>(r.id(), r.config(), kNodes);
  restore_router(save_router(r), *restored);
  return restored;
}

/// A 6-flit worm through a 4-credit east output: flits 0-3 leave on ticks
/// 0-3, the output starves on ticks 4-6, and flits 4-5 leave on ticks 7-8
/// once two credits return — the output is bound on ticks 0-8.  With
/// `split_after` set, the router is saved after that tick and the run
/// continues on a fresh router restored from the bytes.  Returns the
/// packet's charge.
double stalled_worm_charge(const std::string& arbiter,
                           std::optional<Cycle> split_after) {
  RouterConfig config = small_config(4);
  config.arbiter = arbiter;
  ScriptedEnv env;
  auto r = std::make_unique<Router>(NodeId(0), config, kNodes);
  std::vector<double> charges;
  record_charges(*r, charges);
  for (Flits i = 0; i < 4; ++i)
    r->accept_flit(Direction::kWest, 0, make_flit(1, i, 6));
  for (Cycle t = 0; t < 9; ++t) {
    if (t == 4) {
      r->accept_flit(Direction::kWest, 0, make_flit(1, 4, 6));
      r->accept_flit(Direction::kWest, 0, make_flit(1, 5, 6));
    }
    if (t == 7) {
      r->accept_credit(Direction::kEast, 0);
      r->accept_credit(Direction::kEast, 0);
    }
    r->tick(t, env);
    if (split_after == t) {
      r = save_and_restore(*r);
      record_charges(*r, charges);
    }
  }
  EXPECT_EQ(env.sent.size(), 6u);
  EXPECT_TRUE(r->drained());
  EXPECT_EQ(charges.size(), 1u);
  return charges.empty() ? 0.0 : charges.front();
}

TEST(RouterCharging, SingleFlitPacketsChargeTheirBoundTicks) {
  // One credit on the east output.  Packet 1 is granted and leaves on
  // tick 0; packet 2 is granted on tick 1 but waits for a credit until
  // tick 4; packet 3 again leaves on its grant tick.
  ScriptedEnv env;
  Router r(NodeId(0), small_config(1), kNodes);
  std::vector<double> charges;
  record_charges(r, charges);
  r.accept_flit(Direction::kWest, 0, make_flit(1, 0, 1));
  r.tick(0, env);
  r.accept_flit(Direction::kWest, 0, make_flit(2, 0, 1));
  for (Cycle t = 1; t < 4; ++t) r.tick(t, env);
  EXPECT_TRUE(r.output_bound(Direction::kEast, 0));
  r.accept_credit(Direction::kEast, 0);
  r.tick(4, env);
  r.accept_credit(Direction::kEast, 0);
  r.accept_flit(Direction::kWest, 0, make_flit(3, 0, 1));
  r.tick(5, env);
  EXPECT_EQ(env.sent.size(), 3u);
  EXPECT_EQ(charges, (std::vector<double>{1.0, 4.0, 1.0}));
}

TEST(RouterCharging, StalledWormChargesEveryBoundTick) {
  EXPECT_EQ(stalled_worm_charge("err-cycles", std::nullopt), 9.0);
}

TEST(RouterCharging, SaveRestoreMidPacketKeepsTheCharge) {
  // Every split point inside the worm, while it moves and while it
  // starves: the saved arbiter carries the ticks so far, the restored
  // router counts the rest.
  for (Cycle split = 0; split < 8; ++split) {
    EXPECT_EQ(stalled_worm_charge("err-cycles", split), 9.0) << split;
  }
}

TEST(RouterCharging, ErrFlitsStillChargesPerFlit) {
  EXPECT_EQ(stalled_worm_charge("err-flits", std::nullopt), 6.0);
  EXPECT_EQ(stalled_worm_charge("err-flits", Cycle{5}), 6.0);
}

// --- Restore consistency checks -----------------------------------------------

/// The saved bytes of a router mid-run, with their field map: the west
/// worm owns the east output, the north worm waits for it, flits are
/// buffered on both.
struct BusyRouterBytes {
  BusyRouterBytes() {
    ScriptedEnv env;
    Router r(NodeId(0), small_config(4), kNodes);
    for (Flits i = 0; i < 4; ++i) {
      r.accept_flit(Direction::kWest, 0, make_flit(1, i, 4));
      r.accept_flit(Direction::kNorth, 0, make_flit(2, i, 4));
    }
    for (Cycle t = 0; t < 2; ++t) r.tick(t, env);
    EXPECT_NE(r.bound_outputs_mask(), 0u);
    EXPECT_NE(r.requesting_outputs_mask(), 0u);
    units = r.num_units();
    bytes = save_router(r);
    Router described(NodeId(0), small_config(4), kNodes);
    restore_router(bytes, described, &map);
    // The east SA pointer advanced past class 0.
    EXPECT_EQ(value(east_sa_pointer()), 1u);
  }

  [[nodiscard]] static std::string east_sa_pointer() {
    return "sa_pointer[" +
           std::to_string(static_cast<std::uint32_t>(Direction::kEast)) + "]";
  }
  [[nodiscard]] std::uint64_t value(const std::string& path) const {
    return test::get(bytes, map, path);
  }
  void set(const std::string& path, std::uint64_t v) {
    test::set(bytes, map, path, v);
  }

  std::uint32_t units = 0;
  std::vector<std::uint8_t> bytes;
  FieldMap map;
};

void restore_bytes(const std::vector<std::uint8_t>& bytes) {
  Router r(NodeId(0), small_config(4), kNodes);
  restore_router(bytes, r);
}

TEST(RouterRestoreCheck, UnmodifiedBytesRestore) {
  const BusyRouterBytes saved;
  EXPECT_NO_THROW(restore_bytes(saved.bytes));
}

TEST(RouterRestoreCheck, RejectsMaskBitBeyondTheUnits) {
  BusyRouterBytes saved;
  ASSERT_LT(saved.units, 63u);
  saved.set("routable_inputs",
            saved.value("routable_inputs") | std::uint64_t{1} << 63);
  EXPECT_THROW(restore_bytes(saved.bytes), SnapshotError);
}

TEST(RouterRestoreCheck, RejectsMaskThatDisagreesWithTheFlags) {
  // The east output is bound; a bound mask without its bit contradicts
  // the restored OutputVc flag.
  BusyRouterBytes saved;
  ASSERT_NE(saved.value("bound_outputs_mask"), 0u);
  saved.set("bound_outputs_mask", 0);
  EXPECT_THROW(restore_bytes(saved.bytes), SnapshotError);
}

TEST(RouterRestoreCheck, RejectsSaPointerEqualToNumVcs) {
  BusyRouterBytes saved;
  saved.set(BusyRouterBytes::east_sa_pointer(), small_config().num_vcs);
  EXPECT_THROW(restore_bytes(saved.bytes), SnapshotError);
}

TEST(RouterDeath, BufferOverflowCaught) {
  Router r(NodeId(0), small_config(4), kNodes);
  for (Flits i = 0; i < 4; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(50, i, 8));
  EXPECT_DEATH(r.accept_flit(Direction::kWest, 0, make_flit(50, 4, 8)),
               "overflow");
}

TEST(RouterDeath, CreditOverflowCaught) {
  Router r(NodeId(0), small_config(), kNodes);
  EXPECT_DEATH(r.accept_credit(Direction::kEast, 0), "credit overflow");
}

}  // namespace
}  // namespace wormsched::wormhole
