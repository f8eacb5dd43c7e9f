// Router pipeline unit tests with a scripted RouterEnv: credit handling,
// output-queue contiguity, worm bubbles, VC-class stamping and credit
// returns, independent of the Network plumbing.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "core/err.hpp"
#include "wormhole/arbiter.hpp"
#include "wormhole/router.hpp"

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
  void send_flit(NodeId, Direction out, const Flit& flit) override {
    sent.push_back(SentFlit{out, flit});
  }
  void eject(NodeId, const Flit& flit, Cycle) override {
    ejected.push_back(flit);
  }
  void send_credit(NodeId, Direction in, std::uint32_t cls) override {
    credits.push_back(SentCredit{in, cls});
  }
  RouteDecision route(NodeId, const Flit& flit, Direction, //
                      std::uint32_t in_class) override {
    RouteDecision d = route_for(flit);
    if (keep_class) d.out_class = in_class;
    return d;
  }

  std::function<RouteDecision(const Flit&)> route_for =
      [](const Flit&) { return RouteDecision{Direction::kEast, 0, false}; };
  bool keep_class = false;

  std::vector<SentFlit> sent;
  std::vector<Flit> ejected;
  std::vector<SentCredit> credits;
};

Flit make_flit(std::uint64_t packet, Flits index, Flits length,
               std::uint32_t dest = 0) {
  Flit f;
  f.packet = PacketId(packet);
  f.flow = FlowId(0);
  f.source = NodeId(1);
  f.dest = NodeId(dest);
  f.index = index;
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
  Router r(NodeId(0), small_config());
  for (Flits i = 0; i < 3; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(7, i, 3));
  for (Cycle t = 0; t < 6; ++t) r.tick(t, env);
  ASSERT_EQ(env.sent.size(), 3u);
  for (Flits i = 0; i < 3; ++i) {
    EXPECT_EQ(env.sent[static_cast<std::size_t>(i)].out, Direction::kEast);
    EXPECT_EQ(env.sent[static_cast<std::size_t>(i)].flit.index, i);
  }
  EXPECT_TRUE(r.drained());
  EXPECT_EQ(r.forwarded_flits(), 3u);
}

TEST(Router, LocalPortEjects) {
  ScriptedEnv env;
  env.route_for = [](const Flit&) {
    return RouteDecision{Direction::kLocal, 0, false};
  };
  Router r(NodeId(0), small_config());
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
  Router r(NodeId(0), small_config(4));
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
  Router r(NodeId(0), small_config());
  for (Flits i = 0; i < 2; ++i)
    r.accept_flit(Direction::kSouth, 1, make_flit(2, i, 2));
  for (Cycle t = 0; t < 4; ++t) r.tick(t, env);
  ASSERT_EQ(env.credits.size(), 2u);
  EXPECT_EQ(env.credits[0].in, Direction::kSouth);
  EXPECT_EQ(env.credits[0].cls, 1u);
}

TEST(Router, NoCreditReturnForLocalInjection) {
  ScriptedEnv env;
  Router r(NodeId(0), small_config());
  r.accept_flit(Direction::kLocal, 0, make_flit(3, 0, 1));
  r.tick(0, env);
  EXPECT_TRUE(env.credits.empty());
  EXPECT_EQ(env.sent.size(), 1u);
}

TEST(Router, OutputQueuePacketsNeverInterleave) {
  // Two inputs race for the same output VC with multi-flit worms; the
  // output sequence must be packet-contiguous (the wormhole invariant).
  ScriptedEnv env;
  Router r(NodeId(0), small_config());
  for (Flits i = 0; i < 4; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(10, i, 4));
  for (Flits i = 0; i < 4; ++i)
    r.accept_flit(Direction::kNorth, 0, make_flit(11, i, 4));
  for (Cycle t = 0; t < 12; ++t) r.tick(t, env);
  ASSERT_EQ(env.sent.size(), 8u);
  EXPECT_EQ(env.sent[0].flit.packet, env.sent[3].flit.packet);
  EXPECT_EQ(env.sent[4].flit.packet, env.sent[7].flit.packet);
  EXPECT_NE(env.sent[0].flit.packet, env.sent[4].flit.packet);
}

TEST(Router, WormBubbleDoesNotLeakOtherPackets) {
  // The head arrives alone; the body lags.  While the worm has a bubble,
  // a competing packet on another input must NOT slip into the bound
  // output queue.
  ScriptedEnv env;
  Router r(NodeId(0), small_config());
  r.accept_flit(Direction::kWest, 0, make_flit(20, 0, 3));  // head only
  for (Flits i = 0; i < 2; ++i)
    r.accept_flit(Direction::kNorth, 0, make_flit(21, i, 2));
  for (Cycle t = 0; t < 3; ++t) r.tick(t, env);
  // Head forwarded; bubble; competitor waits.
  ASSERT_EQ(env.sent.size(), 1u);
  EXPECT_EQ(env.sent[0].flit.packet, PacketId(20));
  // Body + tail arrive; worm completes; then the competitor runs.
  r.accept_flit(Direction::kWest, 0, make_flit(20, 1, 3));
  r.accept_flit(Direction::kWest, 0, make_flit(20, 2, 3));
  for (Cycle t = 3; t < 10; ++t) r.tick(t, env);
  ASSERT_EQ(env.sent.size(), 5u);
  EXPECT_EQ(env.sent[2].flit.packet, PacketId(20));
  EXPECT_EQ(env.sent[3].flit.packet, PacketId(21));
}

TEST(Router, StampsOutputVcClass) {
  // Route decision sends the packet out on class 1 (dateline); forwarded
  // flits must carry the new class.
  ScriptedEnv env;
  env.route_for = [](const Flit&) {
    return RouteDecision{Direction::kEast, 1, true};
  };
  Router r(NodeId(0), small_config());
  for (Flits i = 0; i < 2; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(30, i, 2));
  for (Cycle t = 0; t < 4; ++t) r.tick(t, env);
  ASSERT_EQ(env.sent.size(), 2u);
  EXPECT_EQ(env.sent[0].flit.vc_class, VcId(1));
  EXPECT_EQ(env.sent[1].flit.vc_class, VcId(1));
}

TEST(Router, TwoVcClassesShareOnePortOneFlitPerCycle) {
  ScriptedEnv env;
  env.keep_class = true;  // class 0 stays 0, class 1 stays 1
  Router r(NodeId(0), small_config());
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
    saw40 |= env.sent[i].flit.packet == PacketId(40);
    saw41 |= env.sent[i].flit.packet == PacketId(41);
  }
  EXPECT_TRUE(saw40);
  EXPECT_TRUE(saw41);
}

TEST(Router, PortStatsAccounting) {
  ScriptedEnv env;
  Router r(NodeId(0), small_config());
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
  Router r(NodeId(0), small_config(4));
  for (Flits i = 0; i < 4; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(61, i, 6));
  for (Cycle t = 0; t < 10; ++t) r.tick(t, env);
  const auto& east = r.port_stats(Direction::kEast);
  EXPECT_EQ(east.flits, 4u);      // out of credits after 4
  EXPECT_GE(east.starved, 5u);    // bound but stuck for the rest
}

TEST(Router, PendingMasksTrackPipelineState) {
  ScriptedEnv env;
  Router r(NodeId(0), small_config());
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
  Router r(NodeId(0), small_config());
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

TEST(Router, SparseAndDensePipelinesAreFlitIdentical) {
  // Same stimulus, both pipelines, compared event-for-event.  The dense
  // pipeline reads only the per-unit flags, so a mask-maintenance bug in
  // the sparse walk shows up as a sequence divergence here.
  const auto drive = [](bool dense_pipeline) {
    ScriptedEnv env;
    env.keep_class = true;
    RouterConfig config = small_config(4);
    config.dense_pipeline = dense_pipeline;
    Router r(NodeId(0), config);
    std::uint64_t next_packet = 100;
    Cycle now = 0;
    // Phased stimulus: competing multi-flit worms on three inputs and two
    // VC classes, a worm bubble, credit exhaustion and late credits.
    for (Flits i = 0; i < 4; ++i)
      r.accept_flit(Direction::kWest, 0, make_flit(next_packet, i, 4));
    ++next_packet;
    for (Flits i = 0; i < 4; ++i)
      r.accept_flit(Direction::kNorth, 0, make_flit(next_packet, i, 4));
    ++next_packet;
    for (Flits i = 0; i < 2; ++i)
      r.accept_flit(Direction::kWest, 1, make_flit(next_packet, i, 2));
    ++next_packet;
    for (; now < 6; ++now) r.tick(now, env);
    r.accept_flit(Direction::kSouth, 0, make_flit(next_packet, 0, 3));
    for (; now < 9; ++now) r.tick(now, env);
    r.accept_flit(Direction::kSouth, 0, make_flit(next_packet, 1, 3));
    r.accept_flit(Direction::kSouth, 0, make_flit(next_packet, 2, 3));
    ++next_packet;
    // Late credits, twice: return exactly what the east output consumed
    // so far (the credit protocol forbids over-returning), drain a while,
    // then top it up again so the backlogged worms finish.
    for (std::uint32_t c = r.output_credits(Direction::kEast, 0); c < 4; ++c)
      r.accept_credit(Direction::kEast, 0);
    for (; now < 20; ++now) r.tick(now, env);
    for (std::uint32_t c = r.output_credits(Direction::kEast, 0); c < 4; ++c)
      r.accept_credit(Direction::kEast, 0);
    for (; now < 30; ++now) r.tick(now, env);
    EXPECT_TRUE(r.drained());
    return env;
  };
  const ScriptedEnv sparse = drive(false);
  const ScriptedEnv dense = drive(true);
  ASSERT_EQ(sparse.sent.size(), dense.sent.size());
  for (std::size_t i = 0; i < sparse.sent.size(); ++i) {
    EXPECT_EQ(sparse.sent[i].out, dense.sent[i].out) << i;
    EXPECT_EQ(sparse.sent[i].flit.packet, dense.sent[i].flit.packet) << i;
    EXPECT_EQ(sparse.sent[i].flit.index, dense.sent[i].flit.index) << i;
    EXPECT_EQ(sparse.sent[i].flit.vc_class, dense.sent[i].flit.vc_class) << i;
  }
  ASSERT_EQ(sparse.credits.size(), dense.credits.size());
  for (std::size_t i = 0; i < sparse.credits.size(); ++i) {
    EXPECT_EQ(sparse.credits[i].in, dense.credits[i].in) << i;
    EXPECT_EQ(sparse.credits[i].cls, dense.credits[i].cls) << i;
  }
}

TEST(Router, TailHandlingReRequestsNextHeadBeforeRelease) {
  // Back-to-back packets in one input VC: the continuation re-request
  // must keep the packets flowing with no idle cycle between them, and
  // the requesting/bound masks must stay live across the boundary.
  ScriptedEnv env;
  Router r(NodeId(0), small_config());
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
  EXPECT_EQ(env.sent[1].flit.packet, PacketId(80));
  EXPECT_EQ(env.sent[2].flit.packet, PacketId(81));
  // Head of packet 81 moves on the cycle right after packet 80's tail:
  // tick 1 sends the tail (flit 2 of the run), tick 2 the next head.
  EXPECT_EQ(sent3_at, 2u);
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

/// Saves `r` and returns a fresh router restored from the bytes.
std::unique_ptr<Router> save_and_restore(const Router& r) {
  SnapshotWriter w;
  r.save_state(w);
  auto restored = std::make_unique<Router>(r.id(), r.config());
  SnapshotReader in(w.bytes());
  restored->restore_state(in);
  return restored;
}

/// A 6-flit worm through a 4-credit east output: flits 0-3 leave on ticks
/// 0-3, the output starves on ticks 4-6, and flits 4-5 leave on ticks 7-8
/// once two credits return — the output is bound on ticks 0-8.  With
/// `split_after` set, the router is saved after that tick and the run
/// continues on a fresh router restored from the bytes.  Returns the
/// packet's charge.
double stalled_worm_charge(const std::string& arbiter, bool dense_pipeline,
                           std::optional<Cycle> split_after) {
  RouterConfig config = small_config(4);
  config.arbiter = arbiter;
  config.dense_pipeline = dense_pipeline;
  ScriptedEnv env;
  auto r = std::make_unique<Router>(NodeId(0), config);
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
  Router r(NodeId(0), small_config(1));
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
  EXPECT_EQ(stalled_worm_charge("err-cycles", false, std::nullopt), 9.0);
  EXPECT_EQ(stalled_worm_charge("err-cycles", true, std::nullopt), 9.0);
}

TEST(RouterCharging, SaveRestoreMidPacketKeepsTheCharge) {
  // Every split point inside the worm, while it moves and while it
  // starves: the saved arbiter carries the ticks so far, the restored
  // router counts the rest.
  for (Cycle split = 0; split < 8; ++split) {
    EXPECT_EQ(stalled_worm_charge("err-cycles", false, split), 9.0) << split;
    EXPECT_EQ(stalled_worm_charge("err-cycles", true, split), 9.0) << split;
  }
}

TEST(RouterCharging, ErrFlitsStillChargesPerFlit) {
  EXPECT_EQ(stalled_worm_charge("err-flits", false, std::nullopt), 6.0);
  EXPECT_EQ(stalled_worm_charge("err-flits", true, std::nullopt), 6.0);
  EXPECT_EQ(stalled_worm_charge("err-flits", false, Cycle{5}), 6.0);
}

// --- Restore consistency checks -----------------------------------------------

std::uint64_t get_u64(const std::vector<std::uint8_t>& p, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(p[at + i]) << (8 * i);
  return v;
}

void put_u64(std::vector<std::uint8_t>& p, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i)
    p[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& p, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(p[at + i]) << (8 * i);
  return v;
}

void put_u32(std::vector<std::uint8_t>& p, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i)
    p[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// The saved bytes of a router mid-run: the west worm owns the east
/// output, the north worm waits for it, flits are buffered on both.
/// Router::save_state ends with the SA pointers (one u32 per port), the
/// port stats (four u64 per port), forwarded (u64), buffered flits and
/// bound outputs (u32 each) and the routable, requesting and bound masks
/// (u64 each); the offsets below count back from the end.
struct BusyRouterBytes {
  static constexpr std::size_t kBoundMaskFromEnd = 8;
  static constexpr std::size_t kRoutableMaskFromEnd = 24;
  static constexpr std::size_t kSaPointersFromEnd =
      3 * 8 + 2 * 4 + 8 + kNumDirections * 4 * 8 + kNumDirections * 4;

  BusyRouterBytes() {
    ScriptedEnv env;
    Router r(NodeId(0), small_config(4));
    for (Flits i = 0; i < 4; ++i) {
      r.accept_flit(Direction::kWest, 0, make_flit(1, i, 4));
      r.accept_flit(Direction::kNorth, 0, make_flit(2, i, 4));
    }
    for (Cycle t = 0; t < 2; ++t) r.tick(t, env);
    EXPECT_NE(r.bound_outputs_mask(), 0u);
    EXPECT_NE(r.requesting_outputs_mask(), 0u);
    units = r.num_units();
    SnapshotWriter w;
    r.save_state(w);
    bytes = w.bytes();
    // The offsets land where the crafting expects: the live masks, and
    // the east SA pointer advanced past class 0.
    EXPECT_EQ(get_u64(bytes, from_end(kBoundMaskFromEnd)),
              r.bound_outputs_mask());
    EXPECT_EQ(get_u64(bytes, from_end(kRoutableMaskFromEnd)),
              r.routable_inputs_mask());
    EXPECT_EQ(get_u32(bytes, from_end(kSaPointersFromEnd) +
                                 4 * static_cast<std::size_t>(
                                         Direction::kEast)),
              1u);
  }

  [[nodiscard]] std::size_t from_end(std::size_t n) const {
    return bytes.size() - n;
  }

  std::uint32_t units = 0;
  std::vector<std::uint8_t> bytes;
};

void restore_bytes(const std::vector<std::uint8_t>& bytes) {
  Router r(NodeId(0), small_config(4));
  SnapshotReader in(bytes);
  r.restore_state(in);
}

TEST(RouterRestoreCheck, UnmodifiedBytesRestore) {
  const BusyRouterBytes saved;
  EXPECT_NO_THROW(restore_bytes(saved.bytes));
}

TEST(RouterRestoreCheck, RejectsMaskBitBeyondTheUnits) {
  BusyRouterBytes saved;
  const std::size_t at = saved.from_end(BusyRouterBytes::kRoutableMaskFromEnd);
  put_u64(saved.bytes, at, get_u64(saved.bytes, at) | std::uint64_t{1} << 63);
  ASSERT_LT(saved.units, 63u);
  EXPECT_THROW(restore_bytes(saved.bytes), SnapshotError);
}

TEST(RouterRestoreCheck, RejectsMaskThatDisagreesWithTheFlags) {
  // The east output is bound; a bound mask without its bit contradicts
  // the restored OutputVc flag.
  BusyRouterBytes saved;
  put_u64(saved.bytes, saved.from_end(BusyRouterBytes::kBoundMaskFromEnd), 0);
  EXPECT_THROW(restore_bytes(saved.bytes), SnapshotError);
}

TEST(RouterRestoreCheck, RejectsSaPointerEqualToNumVcs) {
  BusyRouterBytes saved;
  const std::uint32_t east = static_cast<std::uint32_t>(Direction::kEast);
  put_u32(saved.bytes,
          saved.from_end(BusyRouterBytes::kSaPointersFromEnd) + 4 * east,
          small_config().num_vcs);
  EXPECT_THROW(restore_bytes(saved.bytes), SnapshotError);
}

TEST(RouterDeath, BufferOverflowCaught) {
  Router r(NodeId(0), small_config(4));
  for (Flits i = 0; i < 4; ++i)
    r.accept_flit(Direction::kWest, 0, make_flit(50, i, 8));
  EXPECT_DEATH(r.accept_flit(Direction::kWest, 0, make_flit(50, 4, 8)),
               "overflow");
}

TEST(RouterDeath, CreditOverflowCaught) {
  Router r(NodeId(0), small_config());
  EXPECT_DEATH(r.accept_credit(Direction::kEast, 0), "credit overflow");
}

}  // namespace
}  // namespace wormsched::wormhole
