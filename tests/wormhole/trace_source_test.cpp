// TraceTrafficSource: trace-driven injection into the wormhole fabric.
//
// The trace carries when/who/how-much; the pattern supplies where-to.
// The suite checks conservation (every entry injected, every flit
// delivered), determinism, the mid-run save/restore differential (a
// restored replay finishes identically to the uninterrupted one), and
// the streaming per-flow delivered-flit accumulator against a scan of
// the delivered log.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/archive.hpp"
#include "common/snapshot.hpp"
#include "traffic/trace_synth.hpp"
#include "wormhole/network.hpp"
#include "wormhole/patterns.hpp"
#include "../common/tick_loop.hpp"

namespace wormsched::wormhole {
namespace {

/// 16 flows over mesh4x4: flow ids map 1:1 onto source nodes.
traffic::Trace make_trace(std::uint64_t seed) {
  traffic::SynthSpec spec;
  spec.num_flows = 16;
  spec.horizon = 2'000;
  spec.load = 0.3;  // the fabric, not the trace, should be the bottleneck
  spec.mice_max_length = 8;
  spec.elephant_min_length = 12;
  spec.elephant_max_length = 24;
  return traffic::synthesize_trace(spec, seed);
}

NetworkConfig mesh4x4(bool record_delivered = true) {
  NetworkConfig config;
  config.topo = TopologySpec::mesh(4, 4);
  config.record_delivered = record_delivered;
  return config;
}

struct ReplayResult {
  Cycle end = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t delivered_flits = 0;
};

ReplayResult replay(Network& net, TraceTrafficSource& source) {
  test::TickLoop loop(source, net);
  ReplayResult r;
  r.end = loop.run_until_idle(200'000);
  r.generated = source.generated();
  r.delivered_packets = net.delivered_packets();
  r.delivered_flits = net.delivered_flits();
  return r;
}

TEST(TraceTrafficSource, InjectsEveryEntryAndConservesFlits) {
  const traffic::Trace trace = make_trace(5);
  ASSERT_FALSE(trace.entries.empty());
  Network net(mesh4x4());
  TraceTrafficSource::Config config;
  config.trace = &trace;
  TraceTrafficSource source(net, config);
  EXPECT_EQ(source.inject_until(), trace.entries.back().cycle + 1);

  const ReplayResult r = replay(net, source);
  EXPECT_EQ(r.generated, trace.entries.size());
  EXPECT_EQ(r.delivered_packets, trace.entries.size());
  EXPECT_EQ(r.delivered_flits,
            static_cast<std::uint64_t>(trace.total_flits()));
  EXPECT_TRUE(source.idle());
}

TEST(TraceTrafficSource, RejectsPacketsLongerThanAFlitIndexAddresses) {
  // A flit indexes its packet in 32 bits: a longer packet is bad input
  // (exit 2 from the CLI), not an abort at injection.
  traffic::Trace trace;
  trace.entries.push_back({0, FlowId(0), kMaxPacketFlits + 1});
  Network net(mesh4x4());
  TraceTrafficSource::Config config;
  config.trace = &trace;
  EXPECT_THROW(TraceTrafficSource(net, config), std::invalid_argument);
  trace.entries[0].length = kMaxPacketFlits;
  EXPECT_NO_THROW(TraceTrafficSource(net, config));
}

TEST(TraceTrafficSource, ReplayIsDeterministic) {
  const traffic::Trace trace = make_trace(6);
  ReplayResult runs[2];
  for (auto& r : runs) {
    Network net(mesh4x4());
    TraceTrafficSource::Config config;
    config.trace = &trace;
    TraceTrafficSource source(net, config);
    r = replay(net, source);
  }
  EXPECT_EQ(runs[0].end, runs[1].end);
  EXPECT_EQ(runs[0].delivered_flits, runs[1].delivered_flits);
  EXPECT_EQ(runs[0].delivered_packets, runs[1].delivered_packets);
}

TEST(TraceTrafficSource, MidRunRestoreFinishesIdentically) {
  const traffic::Trace trace = make_trace(7);
  // Reference: the uninterrupted replay.
  Network ref_net(mesh4x4());
  TraceTrafficSource::Config config;
  config.trace = &trace;
  TraceTrafficSource ref_source(ref_net, config);
  const ReplayResult expected = replay(ref_net, ref_source);

  // Interrupted run: stop mid-injection, snapshot source + fabric.
  Network net_a(mesh4x4());
  TraceTrafficSource source_a(net_a, config);
  test::TickLoop loop_a(source_a, net_a);
  const Cycle mid = trace.entries[trace.entries.size() / 2].cycle + 1;
  loop_a.run_until(mid);
  ASSERT_FALSE(source_a.idle()) << "cut point must leave entries pending";
  SnapshotWriter w;
  save_fields(w, source_a);
  save_fields(w, net_a);

  // Fresh objects restored from the snapshot finish the run.
  Network net_b(mesh4x4());
  TraceTrafficSource source_b(net_b, config);
  SnapshotReader r(w.bytes().data(), w.bytes().size());
  restore_fields(r, source_b);
  restore_fields(r, net_b);
  test::TickLoop loop_b(source_b, net_b);
  loop_b.run_until(mid);  // advances the clock without ticking work
  const Cycle end = loop_b.run_until_idle(200'000);

  EXPECT_EQ(end, expected.end);
  EXPECT_EQ(source_b.generated(), expected.generated);
  // Latency stats reset at the restore point (derived observability
  // state), but the traffic itself must complete identically.
  EXPECT_EQ(net_b.delivered_packets() - net_a.delivered_packets(),
            expected.delivered_packets - net_a.delivered_packets());
  EXPECT_EQ(net_b.delivered_flits(), expected.delivered_flits);
}

TEST(TraceTrafficSource, RestoreRejectsCursorPastTheTrace) {
  const traffic::Trace trace = make_trace(8);
  Network net(mesh4x4());
  TraceTrafficSource::Config config;
  config.trace = &trace;
  TraceTrafficSource source(net, config);
  SnapshotWriter w;
  save_fields(w, source);

  // Restoring over a shorter trace must fail the cursor bound check.
  traffic::Trace shorter = trace;
  shorter.entries.resize(1);
  // Advance the original source past entry 1 first.
  test::TickLoop loop(source, net);
  loop.run_until_idle(200'000);
  SnapshotWriter done;
  save_fields(done, source);

  TraceTrafficSource::Config short_config;
  short_config.trace = &shorter;
  Network net2(mesh4x4());
  TraceTrafficSource source2(net2, short_config);
  SnapshotReader r(done.bytes().data(), done.bytes().size());
  EXPECT_THROW(restore_fields(r, source2), SnapshotError);
}

TEST(TraceTrafficSource, StreamingPerFlowTotalsMatchDeliveredLogScan) {
  const traffic::Trace trace = make_trace(9);
  Network net(mesh4x4());
  TraceTrafficSource::Config config;
  config.trace = &trace;
  TraceTrafficSource source(net, config);
  (void)replay(net, source);

  // The accumulator (fed at tail ejection) against the ground truth the
  // delivered log holds.
  const std::vector<Flits> streamed = net.delivered_flits_by_flow(16);
  std::vector<Flits> scanned(16, 0);
  for (const DeliveredPacket& p : net.delivered())
    scanned[p.flow.index()] += p.length;
  EXPECT_EQ(streamed, scanned);
}

TEST(TraceTrafficSource, PerFlowTotalsWorkWithRecordDeliveredOff) {
  const traffic::Trace trace = make_trace(9);
  // Same seed as above: the accumulator must not depend on the log.
  Network logged(mesh4x4(/*record_delivered=*/true));
  Network unlogged(mesh4x4(/*record_delivered=*/false));
  for (Network* net : {&logged, &unlogged}) {
    TraceTrafficSource::Config config;
    config.trace = &trace;
    TraceTrafficSource source(*net, config);
    (void)replay(*net, source);
  }
  EXPECT_TRUE(unlogged.delivered().empty());
  EXPECT_EQ(unlogged.delivered_flits_by_flow(16),
            logged.delivered_flits_by_flow(16));
}

}  // namespace
}  // namespace wormsched::wormhole
