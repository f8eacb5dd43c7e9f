// Tests for the composable observer layer: ObserverMux attachment rules
// and dispatch order, the wants_delta() gating of CycleDelta collection,
// and the delta's event algebra — per-cycle movements must reconcile
// exactly with the fabric's own counters, and the touched list must name
// every router whose auditable state changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "wormhole/network.hpp"
#include "wormhole/observer.hpp"
#include "../common/tick_loop.hpp"

namespace wormsched::wormhole {
namespace {

/// Minimal observer: counts calls, optionally wants the delta, and can
/// record per-cycle event totals for the reconciliation checks.
class Probe final : public NetworkObserver {
 public:
  explicit Probe(bool wants = false) : wants_(wants) {}

  void on_cycle_end(Cycle now, const Network& network,
                    const CycleDelta& delta) override {
    ++calls_;
    last_cycle_ = now;
    flits_to_wire_ += delta.flits_to_wire.size();
    flits_from_wire_ += delta.flits_from_wire.size();
    injections_ += delta.injections.size();
    ejections_ += delta.ejections.size();
    enqueued_ += delta.enqueued_flits;
    // Touched-set contract: every event names a router in the touched
    // list (dedup happens network-side), and on delta-collecting runs a
    // liveness flip without any event is still listed.
    for (const auto& e : delta.flits_from_wire)
      EXPECT_TRUE(touched_contains(delta, e.node));
    for (const std::uint32_t n : delta.injections)
      EXPECT_TRUE(touched_contains(delta, n));
    if (order_log_ != nullptr) order_log_->push_back(this);
    (void)network;
  }
  [[nodiscard]] bool wants_delta() const override { return wants_; }

  void log_order_to(std::vector<const Probe*>* log) { order_log_ = log; }

  [[nodiscard]] static bool touched_contains(const CycleDelta& delta,
                                             std::uint32_t node) {
    for (const std::uint32_t n : delta.touched)
      if (n == node) return true;
    return false;
  }

  std::uint64_t calls_ = 0;
  Cycle last_cycle_ = 0;
  std::uint64_t flits_to_wire_ = 0;
  std::uint64_t flits_from_wire_ = 0;
  std::uint64_t injections_ = 0;
  std::uint64_t ejections_ = 0;
  Flits enqueued_ = 0;

 private:
  bool wants_ = false;
  std::vector<const Probe*>* order_log_ = nullptr;
};

PacketDescriptor packet(std::uint64_t id, std::uint32_t src, std::uint32_t dst,
                        Flits length) {
  return PacketDescriptor{.id = PacketId(id), .flow = FlowId(src),
                          .source = NodeId(src), .dest = NodeId(dst),
                          .length = length};
}

TEST(ObserverMux, MultipleObserversAllNotifiedInAttachmentOrder) {
  Network net(NetworkConfig{});
  Probe a, b, c;
  std::vector<const Probe*> order;
  a.log_order_to(&order);
  b.log_order_to(&order);
  c.log_order_to(&order);
  net.attach_observer(&a);
  net.attach_observer(&b);
  net.attach_observer(&c);
  EXPECT_EQ(net.observers().size(), 3u);

  net.tick(0);
  EXPECT_EQ(a.calls_, 1u);
  EXPECT_EQ(b.calls_, 1u);
  EXPECT_EQ(c.calls_, 1u);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], &a);
  EXPECT_EQ(order[1], &b);
  EXPECT_EQ(order[2], &c);
}

TEST(ObserverMux, DetachIsExactAndOrderPreserving) {
  Network net(NetworkConfig{});
  Probe a, b;
  net.attach_observer(&a);
  net.attach_observer(&b);
  net.detach_observer(&a);
  EXPECT_EQ(net.observers().size(), 1u);
  net.tick(0);
  EXPECT_EQ(a.calls_, 0u);
  EXPECT_EQ(b.calls_, 1u);
  // Detaching something never attached is a harmless no-op.
  net.detach_observer(&a);
  EXPECT_EQ(net.observers().size(), 1u);
}

TEST(ObserverMux, DeltaCollectionFollowsWantsDelta) {
  Network net(NetworkConfig{});
  EXPECT_FALSE(net.collecting_delta());

  Probe passive(/*wants=*/false);
  net.attach_observer(&passive);
  EXPECT_FALSE(net.collecting_delta()) << "passive observers keep it off";

  Probe auditor_like(/*wants=*/true);
  net.attach_observer(&auditor_like);
  EXPECT_TRUE(net.collecting_delta()) << "any wanting observer turns it on";

  net.detach_observer(&auditor_like);
  EXPECT_FALSE(net.collecting_delta()) << "off again once none wants it";
  net.detach_observer(&passive);
  EXPECT_TRUE(net.observers().empty());
}

TEST(ObserverMux, PassiveObserverSeesPopulatedDeltaWhenAnotherWantsIt) {
  Network net(NetworkConfig{});
  Probe passive(/*wants=*/false);
  Probe wanting(/*wants=*/true);
  net.attach_observer(&passive);
  net.attach_observer(&wanting);

  net.inject(0, packet(0, 0, 15, 4));
  test::TickLoop loop(net);
  loop.run_until_idle(10'000);

  // Both observers were handed the same delta object.
  EXPECT_EQ(passive.injections_, wanting.injections_);
  EXPECT_GT(passive.injections_, 0u);
  EXPECT_EQ(passive.ejections_, wanting.ejections_);
}

TEST(ObserverMux, DeltaEventsReconcileWithFabricCounters) {
  Network net(NetworkConfig{});
  Probe probe(/*wants=*/true);
  net.attach_observer(&probe);

  net.inject(0, packet(0, 0, 15, 4));
  net.inject(0, packet(1, 5, 10, 3));
  test::TickLoop loop(net);
  const Cycle end = loop.run_until_idle(10'000);
  EXPECT_GT(end, 0u);

  // Event totals over the whole run must equal the fabric's counters:
  // every queued flit was announced, every NIC hand-off and ejection has
  // one event, and the two wire directions balance on a drained fabric.
  EXPECT_EQ(probe.enqueued_, net.injected_flits());
  EXPECT_EQ(probe.injections_, net.injected_flits());
  EXPECT_EQ(probe.ejections_, net.delivered_flits());
  EXPECT_EQ(probe.flits_to_wire_, probe.flits_from_wire_);
}

}  // namespace
}  // namespace wormsched::wormhole
