// Unit tests for the deterministic fault injector: every answer must be a
// pure function of (spec, cycle, node) — that purity is what lets the
// serial and sharded network ticks observe identical fault schedules —
// and the quarantine-release contract (non-decreasing release cycles)
// must hold or the network's FIFO quarantine breaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/archive.hpp"
#include "common/snapshot.hpp"
#include "traffic/workload.hpp"
#include "validate/faults.hpp"
#include "wormhole/network.hpp"
#include "wormhole/patterns.hpp"

namespace wormsched::validate {
namespace {

FaultSpec all_on(std::uint64_t seed) {
  FaultSpec spec = FaultSpec::chaos(seed);
  spec.num_nodes = 16;
  return spec;
}

TEST(FaultsTest, ChaosSpecEnablesEveryFaultClass) {
  const FaultSpec spec = FaultSpec::chaos(7);
  EXPECT_TRUE(spec.enabled);
  EXPECT_GT(spec.link_stall_rate, 0.0);
  EXPECT_GT(spec.credit_stall_rate, 0.0);
  EXPECT_GT(spec.churn_rate, 0.0);
  EXPECT_GT(spec.burst_rate, 0.0);
  EXPECT_FALSE(spec.describe().empty());
}

TEST(FaultsTest, AnswersAreDeterministicInTheSpec) {
  const ScheduledFaults a(all_on(42));
  const ScheduledFaults b(all_on(42));
  for (Cycle t = 0; t < 1000; ++t) {
    ASSERT_EQ(a.link_stalled(t), b.link_stalled(t)) << "cycle " << t;
    for (std::uint32_t n = 0; n < 16; ++n) {
      const NodeId node(n);
      ASSERT_EQ(a.credit_hold_cycles(t, node), b.credit_hold_cycles(t, node));
      ASSERT_EQ(a.injection_multiplier(t, node),
                b.injection_multiplier(t, node));
      ASSERT_EQ(a.burst_destination(t, node), b.burst_destination(t, node));
    }
  }
}

TEST(FaultsTest, AnswersArePureAcrossRepeatedQueries) {
  const ScheduledFaults f(all_on(9));
  // Query out of order and repeatedly: a stateful implementation (cursor,
  // cached epoch) would diverge between interleavings.
  const std::vector<Cycle> cycles = {500, 3, 500, 64, 63, 3, 1000, 500};
  std::vector<Cycle> first;
  for (const Cycle t : cycles)
    first.push_back(f.credit_hold_cycles(t, NodeId(5)));
  for (std::size_t i = 0; i < cycles.size(); ++i)
    EXPECT_EQ(f.credit_hold_cycles(cycles[i], NodeId(5)), first[i]);
  EXPECT_EQ(first[0], first[2]);
  EXPECT_EQ(first[0], first[7]);
}

TEST(FaultsTest, DifferentSeedsGiveDifferentSchedules) {
  const ScheduledFaults a(all_on(1));
  const ScheduledFaults b(all_on(2));
  bool differs = false;
  for (Cycle t = 0; t < 4096 && !differs; ++t) {
    if (a.link_stalled(t) != b.link_stalled(t) ||
        a.credit_hold_cycles(t, NodeId(0)) !=
            b.credit_hold_cycles(t, NodeId(0)))
      differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultsTest, StallLengthsAreClampedToTheWindow) {
  FaultSpec spec = all_on(3);
  spec.window = 32;
  spec.link_stall_cycles = 1000;    // longer than the epoch
  spec.credit_stall_cycles = 1000;  // longer than the epoch
  spec.link_stall_rate = 1.0;
  spec.credit_stall_rate = 1.0;
  const ScheduledFaults f(spec);
  for (Cycle t = 0; t < 512; ++t) {
    const Cycle hold = f.credit_hold_cycles(t, NodeId(1));
    EXPECT_LE(hold, spec.window) << "cycle " << t;
  }
  // Clamped to the epoch, the release lands exactly on the next epoch
  // boundary — never later, so releases stay monotone across epochs.
  EXPECT_EQ(f.credit_hold_cycles(spec.window - 1, NodeId(1)), 1u);
}

TEST(FaultsTest, QuarantineReleaseCyclesAreMonotone) {
  FaultSpec spec = all_on(11);
  spec.credit_stall_rate = 1.0;
  const ScheduledFaults f(spec);
  for (std::uint32_t n = 0; n < 8; ++n) {
    Cycle last_release = 0;
    for (Cycle t = 0; t < 1024; ++t) {
      const Cycle hold = f.credit_hold_cycles(t, NodeId(n));
      if (hold == 0) continue;
      const Cycle release = t + hold;
      // Non-decreasing release per node keeps the network's quarantine a
      // FIFO (the FaultModel contract).
      EXPECT_GE(release, last_release) << "node " << n << " cycle " << t;
      last_release = release;
    }
  }
}

TEST(FaultsTest, ZeroRatesProduceNoFaults) {
  FaultSpec spec;
  spec.enabled = true;
  spec.num_nodes = 16;  // all rates left at 0
  const ScheduledFaults f(spec);
  for (Cycle t = 0; t < 512; ++t) {
    EXPECT_FALSE(f.link_stalled(t));
    for (std::uint32_t n = 0; n < 16; ++n) {
      EXPECT_EQ(f.credit_hold_cycles(t, NodeId(n)), 0u);
      EXPECT_DOUBLE_EQ(f.injection_multiplier(t, NodeId(n)), 1.0);
      EXPECT_FALSE(f.burst_destination(t, NodeId(n)).has_value());
    }
  }
}

TEST(FaultsTest, BurstDestinationsStayInRange) {
  FaultSpec spec = all_on(5);
  spec.burst_rate = 1.0;
  spec.num_nodes = 7;
  const ScheduledFaults f(spec);
  bool saw_burst = false;
  for (Cycle t = 0; t < 2048; t += 13) {
    for (std::uint32_t n = 0; n < 7; ++n) {
      const auto dest = f.burst_destination(t, NodeId(n));
      if (!dest.has_value()) continue;
      saw_burst = true;
      EXPECT_LT(dest->value(), 7u);
    }
  }
  EXPECT_TRUE(saw_burst);

  // Without a fabric size there is nothing to redirect to.
  spec.num_nodes = 0;
  const ScheduledFaults g(spec);
  for (Cycle t = 0; t < 256; ++t)
    EXPECT_FALSE(g.burst_destination(t, NodeId(0)).has_value());
}

traffic::Trace sample_trace() {
  traffic::WorkloadSpec spec;
  for (int i = 0; i < 3; ++i) {
    traffic::FlowSpec f;
    f.arrival = traffic::ArrivalSpec::bernoulli(0.05);
    f.length = traffic::LengthSpec::uniform(1, 8);
    spec.flows.push_back(f);
  }
  return traffic::generate_trace(spec, 4000, 17);
}

TEST(FaultsTest, ApplyTraceFaultsIsDeterministic) {
  const traffic::Trace input = sample_trace();
  const FaultSpec spec = FaultSpec::chaos(23);
  const traffic::Trace a = apply_trace_faults(spec, input);
  const traffic::Trace b = apply_trace_faults(spec, input);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].cycle, b.entries[i].cycle);
    EXPECT_EQ(a.entries[i].flow.value(), b.entries[i].flow.value());
    EXPECT_EQ(a.entries[i].length, b.entries[i].length);
  }
}

TEST(FaultsTest, ApplyTraceFaultsKeepsTheTraceSorted) {
  const traffic::Trace out =
      apply_trace_faults(FaultSpec::chaos(29), sample_trace());
  ASSERT_FALSE(out.entries.empty());
  for (std::size_t i = 1; i < out.entries.size(); ++i)
    EXPECT_GE(out.entries[i].cycle, out.entries[i - 1].cycle);
}

TEST(FaultsTest, ApplyTraceFaultsActuallyPerturbs) {
  const traffic::Trace input = sample_trace();
  const traffic::Trace out = apply_trace_faults(FaultSpec::chaos(31), input);
  bool changed = out.entries.size() != input.entries.size();
  for (std::size_t i = 0; !changed && i < input.entries.size(); ++i)
    changed = out.entries[i].cycle != input.entries[i].cycle ||
              out.entries[i].flow.value() != input.entries[i].flow.value();
  EXPECT_TRUE(changed);
}

// --- Stall hooks against the hash-first formulas ----------------------------

// The schedule hash, restated here so the reference formulas below share
// no code with the implementation they check.
std::uint64_t ref_mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double ref_u01(const FaultSpec& spec, std::uint64_t kind, std::uint64_t epoch,
               std::uint64_t node) {
  const std::uint64_t h =
      ref_mix(ref_mix(ref_mix(spec.seed ^ kind) ^ epoch) ^ node);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Hash the epoch first, then test the window offset (kind 1 = link, 2 =
// credit; stall lengths clipped to the window as the ctor does).
bool ref_link_stalled(const FaultSpec& spec, Cycle now) {
  if (!spec.enabled || spec.link_stall_rate <= 0.0) return false;
  const std::uint64_t epoch = now / spec.window;
  if (ref_u01(spec, 1, epoch, 0) >= spec.link_stall_rate) return false;
  return now % spec.window < std::min(spec.link_stall_cycles, spec.window);
}

Cycle ref_credit_hold_cycles(const FaultSpec& spec, Cycle now, NodeId node) {
  if (!spec.enabled || spec.credit_stall_rate <= 0.0) return 0;
  const std::uint64_t epoch = now / spec.window;
  if (ref_u01(spec, 2, epoch, node.value()) >= spec.credit_stall_rate)
    return 0;
  const Cycle stall = std::min(spec.credit_stall_cycles, spec.window);
  const Cycle offset = now % spec.window;
  if (offset >= stall) return 0;
  return stall - offset;
}

TEST(FaultsTest, OffsetFirstStallHooksMatchHashFirstFormulas) {
  for (const Cycle window : {Cycle{1}, Cycle{3}, Cycle{16}, Cycle{64}}) {
    for (const Cycle stall : {Cycle{0}, Cycle{1}, Cycle{4}, Cycle{16},
                              Cycle{100}}) {
      for (const double rate : {0.0, 0.1, 0.5, 1.0}) {
        for (const std::uint64_t seed : {1u, 7u}) {
          FaultSpec spec = all_on(seed);
          spec.window = window;
          spec.link_stall_cycles = stall;
          spec.credit_stall_cycles = stall;
          spec.link_stall_rate = rate;
          spec.credit_stall_rate = rate;
          const ScheduledFaults f(spec);
          for (Cycle t = 0; t < 1500; ++t) {
            ASSERT_EQ(f.link_stalled(t), ref_link_stalled(spec, t))
                << "window " << window << " stall " << stall << " rate "
                << rate << " seed " << seed << " cycle " << t;
            for (std::uint32_t n = 0; n < 6; ++n)
              ASSERT_EQ(f.credit_hold_cycles(t, NodeId(n)),
                        ref_credit_hold_cycles(spec, t, NodeId(n)))
                  << "window " << window << " stall " << stall << " rate "
                  << rate << " seed " << seed << " cycle " << t << " node "
                  << n;
          }
        }
      }
    }
  }
}

// --- Injection epochs ------------------------------------------------------

TEST(FaultsTest, InjectionAnswersAreConstantWithinAnEpoch) {
  FaultSpec spec = all_on(13);
  spec.window = 16;
  spec.churn_rate = 0.3;
  spec.burst_rate = 0.3;
  const ScheduledFaults f(spec);
  for (Cycle t = 1; t < 2000; ++t) {
    EXPECT_EQ(f.injection_epoch(t), t / spec.window);
    if (f.injection_epoch(t) != f.injection_epoch(t - 1)) continue;
    for (std::uint32_t n = 0; n < 16; ++n) {
      const NodeId node(n);
      ASSERT_EQ(f.injection_multiplier(t, node),
                f.injection_multiplier(t - 1, node));
      ASSERT_EQ(f.burst_destination(t, node),
                f.burst_destination(t - 1, node));
    }
  }
}

/// ScheduledFaults with the FaultModel's default injection_epoch (every
/// cycle its own epoch), so a traffic source asks every node every cycle.
class PerCycleEpochs final : public wormhole::FaultModel {
 public:
  explicit PerCycleEpochs(const ScheduledFaults& inner) : inner_(inner) {}

  [[nodiscard]] bool link_stalled(Cycle now) const override {
    return inner_.link_stalled(now);
  }
  [[nodiscard]] Cycle credit_hold_cycles(Cycle now,
                                         NodeId node) const override {
    return inner_.credit_hold_cycles(now, node);
  }
  [[nodiscard]] double injection_multiplier(Cycle now,
                                            NodeId node) const override {
    return inner_.injection_multiplier(now, node);
  }
  [[nodiscard]] std::optional<NodeId> burst_destination(
      Cycle now, NodeId src) const override {
    return inner_.burst_destination(now, src);
  }

 private:
  const ScheduledFaults& inner_;
};

/// The packet stream a traffic source generates over `cycles` under
/// `faults`: only the source ticks, so every packet stays queued at its
/// NIC and the saved network (plus the source's RNG) is the whole stream.
std::vector<std::uint8_t> source_stream(const wormhole::FaultModel* faults,
                                        Cycle cycles) {
  wormhole::NetworkConfig net_config;
  net_config.topo = wormhole::TopologySpec::mesh(4, 4);
  wormhole::Network net(net_config);
  wormhole::NetworkTrafficSource::Config config;
  config.packets_per_node_per_cycle = 0.2;
  config.seed = 5;
  config.faults = faults;
  wormhole::NetworkTrafficSource source(net, config);
  for (Cycle t = 0; t < cycles; ++t) source.tick(t);
  EXPECT_GT(source.generated(), 0u);
  SnapshotWriter w;
  save_fields(w, net);
  save_fields(w, source);
  return w.bytes();
}

TEST(FaultsTest, EpochCachedSourceMatchesPerCycleQueries) {
  FaultSpec spec = all_on(17);
  spec.window = 8;
  spec.churn_rate = 0.3;
  spec.burst_rate = 0.3;
  const ScheduledFaults faults(spec);
  const PerCycleEpochs per_cycle(faults);
  const Cycle cycles = 200 * spec.window;
  const std::vector<std::uint8_t> cached = source_stream(&faults, cycles);
  EXPECT_TRUE(cached == source_stream(&per_cycle, cycles));
  // The faults do shape the stream, so the comparison has teeth.
  EXPECT_FALSE(cached == source_stream(nullptr, cycles));
}

TEST(FaultsTest, DisabledSpecPassesTraceThrough) {
  const traffic::Trace input = sample_trace();
  const traffic::Trace out = apply_trace_faults(FaultSpec{}, input);
  ASSERT_EQ(out.entries.size(), input.entries.size());
  for (std::size_t i = 0; i < input.entries.size(); ++i) {
    EXPECT_EQ(out.entries[i].cycle, input.entries[i].cycle);
    EXPECT_EQ(out.entries[i].flow.value(), input.entries[i].flow.value());
    EXPECT_EQ(out.entries[i].length, input.entries[i].length);
  }
}

}  // namespace
}  // namespace wormsched::validate
