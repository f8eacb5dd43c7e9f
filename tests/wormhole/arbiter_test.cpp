#include "wormhole/arbiter.hpp"

#include <gtest/gtest.h>

namespace wormsched::wormhole {
namespace {

TEST(ArbiterFactory, CreatesAllKinds) {
  EXPECT_EQ(make_arbiter("err", 4)->name(), "ERR-cycles");
  EXPECT_EQ(make_arbiter("err-cycles", 4)->name(), "ERR-cycles");
  EXPECT_EQ(make_arbiter("err-flits", 4)->name(), "ERR-flits");
  EXPECT_EQ(make_arbiter("rr", 4)->name(), "RR");
  EXPECT_EQ(make_arbiter("fcfs", 4)->name(), "FCFS");
  EXPECT_EQ(make_arbiter("bogus", 4), nullptr);
}

TEST(PortArbiter, GrantConsumesPendingHead) {
  auto arb = make_arbiter("rr", 2);
  EXPECT_FALSE(arb->grant(0).has_value());
  arb->request(FlowId(1));
  EXPECT_EQ(arb->pending(FlowId(1)), 1u);
  const auto owner = arb->grant(1);
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(*owner, FlowId(1));
  EXPECT_EQ(arb->pending(FlowId(1)), 0u);
  EXPECT_TRUE(arb->bound());
  arb->release();
  EXPECT_FALSE(arb->bound());
}

TEST(RrArbiter, RotatesAmongRequesters) {
  auto arb = make_arbiter("rr", 3);
  for (std::uint32_t f = 0; f < 3; ++f) {
    arb->request(FlowId(f));
    arb->request(FlowId(f));
  }
  std::vector<std::uint32_t> grants;
  for (int k = 0; k < 6; ++k) {
    const auto owner = arb->grant(0);
    ASSERT_TRUE(owner);
    grants.push_back(owner->value());
    arb->release();
  }
  EXPECT_EQ(grants, (std::vector<std::uint32_t>{0, 1, 2, 0, 1, 2}));
}

TEST(FcfsArbiter, GrantsInRequestOrder) {
  auto arb = make_arbiter("fcfs", 3);
  arb->request(FlowId(2));
  arb->request(FlowId(0));
  arb->request(FlowId(2));
  std::vector<std::uint32_t> grants;
  for (int k = 0; k < 3; ++k) {
    grants.push_back(arb->grant(0)->value());
    arb->release();
  }
  EXPECT_EQ(grants, (std::vector<std::uint32_t>{2, 0, 2}));
}

TEST(ErrArbiter, ContinuesFlowWithinAllowance) {
  // Requester 0 overshoots in round 1; in round 2 requester 1 has a large
  // allowance and keeps the output across consecutive packets.
  ErrArbiter arb(2, PortArbiter::Charging::kCycles);
  for (int k = 0; k < 6; ++k) arb.request(FlowId(0));
  for (int k = 0; k < 20; ++k) arb.request(FlowId(1));

  auto serve = [&arb](std::uint64_t cycles) {
    const auto owner = arb.grant(0);
    EXPECT_TRUE(owner.has_value());
    for (std::uint64_t c = 0; c < cycles; ++c) arb.charge_cycles(1);
    const auto flow = *owner;
    arb.release();
    return flow;
  };
  // Round 1: A=1 each.  Flow 0's packet holds 10 cycles (SC 9); flow 1's
  // holds 1 cycle (SC 0).
  EXPECT_EQ(serve(10), FlowId(0));
  EXPECT_EQ(serve(1), FlowId(1));
  // Round 2: A_0 = 1, A_1 = 10 -> flow 0 one packet, flow 1 ten 1-cycle
  // packets back to back.
  EXPECT_EQ(serve(10), FlowId(0));
  for (int k = 0; k < 10; ++k) EXPECT_EQ(serve(1), FlowId(1)) << k;
  EXPECT_EQ(serve(10), FlowId(0));
}

TEST(ErrArbiter, CycleVsFlitAccountingDiverge) {
  // Two packets, equal flit counts, but requester 0's packets stall the
  // output 4x longer.  Cycle accounting charges the stall; flit accounting
  // does not.
  ErrArbiter cycles(2, PortArbiter::Charging::kCycles);
  ErrArbiter flits(2, PortArbiter::Charging::kFlits);
  for (ErrArbiter* arb : {&cycles, &flits}) {
    arb->request(FlowId(0));
    arb->request(FlowId(1));
    // Flow 0: 2 flits over 8 cycles (stalled).  Flow 1: 2 flits, 2 cycles.
    (void)arb->grant(0);
    for (int c = 0; c < 8; ++c) arb->charge_cycles(1);
    arb->charge_flit();
    arb->charge_flit();
    arb->release();
    (void)arb->grant(0);
    arb->charge_cycles(1);
    arb->charge_cycles(1);
    arb->charge_flit();
    arb->charge_flit();
    arb->release();
  }
  // Occupancy accounting: flow 0 owes 7, flow 1 owes 1.
  EXPECT_DOUBLE_EQ(cycles.policy().surplus_count(FlowId(0)), 0.0);  // idle reset
  // Both drained, SCs reset; compare through MaxSC of the round instead.
  EXPECT_DOUBLE_EQ(cycles.policy().max_sc(), 7.0);
  EXPECT_DOUBLE_EQ(flits.policy().max_sc(), 1.0);
}

TEST(ErrArbiter, IdleSystemGrantsNothing) {
  ErrArbiter arb(2, PortArbiter::Charging::kCycles);
  EXPECT_FALSE(arb.grant(0).has_value());
}

TEST(PortArbiter, PendingTotalTracksRequestsAndGrants) {
  // pending_total is the lazy-arbitration gate: the router skips grant()
  // entirely for outputs where it reads zero, so it must match the sum of
  // per-requester pending counts at every step.
  for (const char* kind : {"err-cycles", "err-flits", "rr", "fcfs"}) {
    auto arb = make_arbiter(kind, 3);
    EXPECT_EQ(arb->pending_total(), 0u) << kind;
    arb->request(FlowId(0));
    arb->request(FlowId(2));
    arb->request(FlowId(2));
    EXPECT_EQ(arb->pending_total(), 3u) << kind;
    const auto serve_one = [&arb](Cycle now) {
      (void)arb->grant(now);
      arb->charge_cycles(1);  // every owner is charged before release
      arb->charge_flit();
      arb->release();
    };
    (void)arb->grant(0);
    EXPECT_EQ(arb->pending_total(), 2u) << kind;
    arb->charge_cycles(1);
    arb->charge_flit();
    arb->release();
    serve_one(1);
    EXPECT_EQ(arb->pending_total(), 1u) << kind;
    serve_one(2);
    EXPECT_EQ(arb->pending_total(), 0u) << kind;
    // Drained: a further grant must be a no-op with nothing pending.
    EXPECT_FALSE(arb->grant(3).has_value()) << kind;
    EXPECT_EQ(arb->pending_total(), 0u) << kind;
  }
}

TEST(PortArbiter, ZeroPendingTotalMeansGrantIsANoOp) {
  // The soundness condition behind the lazy skip, checked per discipline:
  // with pending_total() == 0 and the output unbound, grant() returns
  // nullopt and later behavior is as if it was never called.
  for (const char* kind : {"err-cycles", "rr", "fcfs"}) {
    auto probed = make_arbiter(kind, 2);
    auto control = make_arbiter(kind, 2);
    // Exercise a full grant/release cycle first so internal round state
    // (ERR opportunities, RR ring position) is live, then drain.
    for (auto* arb : {probed.get(), control.get()}) {
      arb->request(FlowId(1));
      (void)arb->grant(0);
      arb->charge_cycles(1);
      arb->release();
    }
    // Probe only one of the two...
    for (int k = 0; k < 5; ++k) EXPECT_FALSE(probed->grant(1).has_value());
    // ...then run both through the same future and expect identical grants.
    for (auto* arb : {probed.get(), control.get()}) {
      arb->request(FlowId(0));
      arb->request(FlowId(1));
    }
    std::vector<std::uint32_t> probed_order;
    std::vector<std::uint32_t> control_order;
    for (int k = 0; k < 2; ++k) {
      probed_order.push_back(probed->grant(2)->value());
      probed->charge_cycles(1);
      probed->release();
      control_order.push_back(control->grant(2)->value());
      control->charge_cycles(1);
      control->release();
    }
    EXPECT_EQ(probed_order, control_order) << kind;
  }
}

TEST(ErrArbiter, ContinuationReRequestKeepsPendingTotalPositive) {
  // The router raises the next head's request *before* release so ERR
  // sees the backlog; across that sequence pending_total must never
  // undercount (the sparse pipeline would otherwise drop the output from
  // its requesting mask while a continuation is still owed).
  ErrArbiter arb(2, PortArbiter::Charging::kCycles);
  for (int k = 0; k < 3; ++k) arb.request(FlowId(0));
  EXPECT_EQ(arb.pending_total(), 3u);
  (void)arb.grant(0);
  EXPECT_EQ(arb.pending_total(), 2u);
  arb.charge_cycles(1);
  arb.request(FlowId(0));  // tail handling re-request, pre-release
  EXPECT_EQ(arb.pending_total(), 3u);
  arb.release();
  EXPECT_EQ(arb.pending_total(), 3u);
  // The open opportunity continues with the same flow.
  const auto owner = arb.grant(1);
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(*owner, FlowId(0));
  EXPECT_EQ(arb.pending_total(), 2u);
}

TEST(PortArbiterDeath, ReleaseWithoutOwnerAborts) {
  auto arb = make_arbiter("rr", 2);
  EXPECT_DEATH(arb->release(), "no owner");
}

TEST(PortArbiterDeath, DoubleGrantAborts) {
  auto arb = make_arbiter("rr", 2);
  arb->request(FlowId(0));
  (void)arb->grant(0);
  EXPECT_DEATH((void)arb->grant(1), "still owned");
}

}  // namespace
}  // namespace wormsched::wormhole
