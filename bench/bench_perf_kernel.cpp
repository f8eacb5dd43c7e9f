// Simulator performance baseline: the numbers future PRs are held to.
//
// Three canonical scenarios, one per hot path the performance layer
// owns, each read by a CI gate:
//   1. mesh8x8-hotspot — the wormhole substrate with the hot ejection
//      port driven just past saturation (0.5 * rate * 64 nodes * 6.5
//      mean flits ~ 1.25 flits/cycle at the default --hotspot-rate),
//      unaudited and under two auditors — the full-rescan auditor (the
//      pre-incremental baseline) and the incremental dirty-set auditor.
//      The unaudited and incremental legs run as alternating pairs; the
//      audit overhead is the median of the per-pair ratios, with its
//      quartiles.  All runs are checked for the same cycles, flits and
//      packets; a final instrumented run (never timed against the others)
//      attaches the per-stage perf counters plus the incremental auditor
//      and yields the stage breakdown, the observer share and the
//      tick fraction (router ticks / (cycles * routers): the share of
//      router-cycles the active set actually ticks);
//   2. threads-scaling — the sharded network tick on mesh16x16 and
//      mesh32x32 uniform traffic at 1/2/4/8 threads (shards = threads),
//      every leg checked flit-for-flit identical to the serial run;
//   3. flow-scaling — the SoA scheduler core driven bare (no scenario
//      runner: its per-cycle activity scan is O(num_flows)) over a
//      synthesized multi-tenant trace whose backlogged-flow population
//      scales with the flow count, at 10k/100k/1M flows for ERR vs DRR
//      vs SCFQ.  The paper's Table 1 claim made measurable: ERR's
//      ns/flit stays flat while the timestamp discipline's grows with
//      the backlog; a paper-scale ERR run is additionally checked
//      packet-for-packet against an AoS deque transcription of Fig. 1
//      (the pre-pool state layout) and recorded as results_identical.
// Prints an ASCII table and writes the machine-readable BENCH_perf.json
// (schema wormsched-perf-v9) that reproduce.sh copies to the repo root.
// v2 added a provenance block — jobs, compiler, build type, git SHA; v3
// added the pipeline split, the stage breakdown and the sweep skip flag;
// v4 added the audited legs (audited/unaudited cycles_per_sec,
// audited_speedup, audit_overhead, observer_share) and always records
// the sweep's serial leg; v5 adds the threads_scaling block and replaces
// the sweep's parallel_skipped flag with the always-run parallel_forced
// leg; v6 adds the flow_scaling block and the threads_scaling `forced`
// annotation (single-hardware-thread sharding measures oversubscription,
// not scaling — CI's ratio floors must not fire on that noise); v7 adds
// the flow_control block (credit vs on/off ns/flit on the hotspot point);
// v8 drops the two legacy-kernel hotspot legs and their speedup ratios
// (the kernels are gone), adds tick_fraction, and makes audit_overhead
// the median of paired ratios (audit_overhead_pairs, audit_overhead_q1,
// audit_overhead_q3); v9 drops the fig4_standalone, sweep_50seed and
// flow_control blocks, which no gate read, the provenance's jobs and
// perf_counters_compiled (the counters are always compiled in).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/err.hpp"
#include "core/registry.hpp"
#include "harness/network_sweep.hpp"
#include "harness/sweep.hpp"
#include "metrics/perf_counters.hpp"
#include "obs/manifest.hpp"
#include "traffic/trace_synth.hpp"

using namespace wormsched;
using namespace wormsched::harness;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

struct NetworkRun {
  double wall_seconds = 0.0;
  Cycle cycles = 0;
  std::uint64_t flits = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t audit_violations = 0;
};

struct HotspotMode {
  metrics::PerfCounters* perf_counters = nullptr;
  bool audit = false;
  validate::AuditMode audit_mode = validate::AuditMode::kIncremental;
  bool audit_err = true;
};

constexpr std::uint32_t kHotspotDim = 8;

NetworkRun run_hotspot(Cycle inject_cycles, double rate,
                       const HotspotMode& mode, int reps = 3) {
  NetworkScenarioConfig config;
  config.network.topo = wormhole::TopologySpec::mesh(kHotspotDim, kHotspotDim);
  config.traffic.packets_per_node_per_cycle = rate;
  config.traffic.inject_until = inject_cycles;
  config.traffic.lengths = traffic::LengthSpec::uniform(1, 12);
  config.traffic.pattern.kind = wormhole::PatternSpec::Kind::kHotspot;
  config.perf_counters = mode.perf_counters;
  config.audit = mode.audit;
  config.audit_config.mode = mode.audit_mode;
  config.audit_err = mode.audit_err;
  // `reps` timed repetitions, keeping the fastest wall clock: the legs
  // are compared as ratios, so scheduler noise on either side skews the
  // headline numbers more than any real effect at these run lengths
  // (the fast legs finish in tens of milliseconds, where a single
  // scheduler preemption is a double-digit-percent error).  All
  // repetitions are deterministic replays of the same seed, so the
  // simulation outputs are identical; the instrumented run keeps one
  // repetition (its counters must cover exactly one run).
  if (mode.perf_counters != nullptr) reps = 1;
  NetworkRun run;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const NetworkScenarioResult result = run_network_scenario(config, 7);
    const double wall = seconds_since(start);
    if (rep == 0 || wall < run.wall_seconds) run.wall_seconds = wall;
    run.cycles = result.end_cycle;
    run.flits = result.delivered_flits;
    run.delivered_packets = result.delivered_packets;
    run.audit_violations = result.audit_violations;
  }
  return run;
}

// One leg of the threads-scaling sweep: a dim x dim mesh under uniform
// traffic, ticked with `threads` worker threads over `threads` shard
// domains (threads == 1 is the serial kernel).  Uniform traffic keeps
// every shard busy, which is what a scaling measurement needs; min-of-2
// repetitions bounds scheduler noise without doubling the bench cost on
// the big mesh.
NetworkRun run_scaling(Cycle inject_cycles, std::uint32_t dim,
                       std::uint32_t threads) {
  NetworkScenarioConfig config;
  config.network.topo = wormhole::TopologySpec::mesh(dim, dim);
  config.network.threads = threads;
  config.network.shards = threads;
  config.traffic.packets_per_node_per_cycle = 0.02;
  config.traffic.inject_until = inject_cycles;
  config.traffic.lengths = traffic::LengthSpec::uniform(1, 12);
  NetworkRun run;
  for (int rep = 0; rep < 2; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const NetworkScenarioResult result = run_network_scenario(config, 7);
    const double wall = seconds_since(start);
    if (rep == 0 || wall < run.wall_seconds) run.wall_seconds = wall;
    run.cycles = result.end_cycle;
    run.flits = result.delivered_flits;
    run.delivered_packets = result.delivered_packets;
    run.audit_violations = result.audit_violations;
  }
  return run;
}

double per_sec(double quantity, double secs) {
  return secs > 0.0 ? quantity / secs : 0.0;
}

/// Resident set size in bytes (0 where /proc is unavailable) — the
/// flow-scaling legs report real memory per flow, not sizeof arithmetic.
long rss_bytes() {
#if defined(__linux__)
  long pages = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * sysconf(_SC_PAGESIZE);
#else
  return 0;
#endif
}

/// The flow-scaling workload: a fan-in prelude (every 4th flow opens
/// with one 96-flit packet at cycle 0, so the backlogged population —
/// what timestamp heaps pay for — scales with the flow count) followed
/// by a synthesized multi-tenant mix over `horizon` cycles.  Packets are
/// wormhole-message sized (tens of flits): per-packet costs — the
/// disciplines' bookkeeping and the cold-cache hit of touching a random
/// flow's state — amortize over the flits of each packet, which is
/// exactly the regime the paper's O(1)-per-packet claim is about.
traffic::Trace make_flow_scale_trace(std::size_t flows, Cycle horizon) {
  traffic::Trace trace;
  trace.num_flows = flows;
  for (std::size_t f = 0; f < flows; f += 4)
    trace.entries.push_back(traffic::TraceEntry{
        0, FlowId(static_cast<FlowId::rep_type>(f)), 96});
  traffic::SynthSpec spec;
  spec.num_flows = flows;
  spec.horizon = horizon;
  spec.load = 0.85;
  spec.elephant_fraction = 0.05;
  spec.elephant_share = 0.4;
  spec.mice_min_length = 32;
  spec.mice_max_length = 96;
  spec.elephant_min_length = 192;
  spec.elephant_max_length = 512;
  spec.incast_every = horizon / 8;
  spec.incast_fanin = flows / 64 + 1;
  traffic::synthesize_trace(spec, 42, [&](const traffic::TraceEntry& e) {
    trace.entries.push_back(e);
  });
  return trace;
}

struct FlowScaleRun {
  double wall_seconds = 0.0;
  Cycle cycles = 0;
  std::uint64_t flits = 0;
  double bytes_per_flow = 0.0;
};

/// Drives one discipline bare over the trace: enqueue this cycle's
/// arrivals, offer one transmission slot, run to drain.  No observers,
/// no activity scan — this times the scheduler core and nothing else.
/// Fastest of `reps` repetitions (a fresh scheduler each time): the
/// small-flow-count legs finish in milliseconds, where one scheduler
/// preemption would swamp the growth ratios the CI guard reads.
FlowScaleRun run_flow_scale(std::string_view sched,
                            const traffic::Trace& trace, int reps) {
  const long rss_before = rss_bytes();
  FlowScaleRun run;
  for (int rep = 0; rep < reps; ++rep) {
    core::SchedulerParams params;
    params.num_flows = trace.num_flows;
    params.drr_quantum = trace.max_observed_length();
    const std::unique_ptr<core::Scheduler> scheduler =
        core::make_scheduler(sched, params);
    if (scheduler == nullptr) {
      std::fprintf(stderr, "FATAL: unknown scheduler '%s'\n",
                   std::string(sched).c_str());
      std::exit(1);
    }
    std::uint64_t flits = 0;
    const auto start = std::chrono::steady_clock::now();
    std::size_t next_arrival = 0;
    PacketId::rep_type next_id = 0;
    for (Cycle t = 0;; ++t) {
      while (next_arrival < trace.entries.size() &&
             trace.entries[next_arrival].cycle == t) {
        const traffic::TraceEntry& e = trace.entries[next_arrival++];
        scheduler->enqueue(t, core::Packet{.id = PacketId(next_id++),
                                           .flow = e.flow,
                                           .length = e.length,
                                           .arrival = t});
      }
      if (scheduler->pull_flit(t).has_value()) ++flits;
      if (next_arrival >= trace.entries.size() && scheduler->idle()) {
        run.cycles = t + 1;
        break;
      }
    }
    const double wall = seconds_since(start);
    if (rep == 0 || wall < run.wall_seconds) run.wall_seconds = wall;
    run.flits = flits;
    if (rep == 0) {
      // Sampled while the scheduler is still alive: its big arrays are
      // mmap-backed and leave RSS the moment it is destroyed.
      const long rss_after = rss_bytes();
      run.bytes_per_flow =
          trace.num_flows > 0 && rss_after > rss_before
              ? static_cast<double>(rss_after - rss_before) /
                    static_cast<double>(trace.num_flows)
              : 0.0;
    }
  }
  return run;
}

struct OracleRecord {
  Cycle start;
  std::uint32_t flow;
  Flits length;
  bool operator==(const OracleRecord&) const = default;
};

/// Packet-granularity transcription of the paper's Fig. 1 pseudo-code in
/// the pre-pool state layout (per-flow deques, a deque ActiveList) — the
/// reference the pool-backed ERR must reproduce packet for packet.
std::vector<OracleRecord> err_aos_oracle(const traffic::Trace& trace) {
  const std::size_t n = trace.num_flows;
  std::vector<std::deque<Flits>> queues(n);
  std::vector<double> sc(n, 0.0);
  std::vector<bool> active(n, false);
  std::deque<std::size_t> active_list;
  double prev_max_sc = 0.0, max_sc = 0.0;
  std::size_t rr_visit_count = 0;
  std::size_t next_arrival = 0;
  const auto deliver_upto = [&](Cycle t) {
    while (next_arrival < trace.entries.size() &&
           trace.entries[next_arrival].cycle <= t) {
      const auto& e = trace.entries[next_arrival++];
      const std::size_t f = e.flow.index();
      queues[f].push_back(e.length);
      if (!active[f]) {
        active[f] = true;
        sc[f] = 0.0;
        active_list.push_back(f);
      }
    }
  };
  std::vector<OracleRecord> schedule;
  Cycle t = 0;
  for (;;) {
    deliver_upto(t);
    if (active_list.empty()) {
      if (next_arrival >= trace.entries.size()) break;
      t = std::max(t, trace.entries[next_arrival].cycle);
      continue;
    }
    if (rr_visit_count == 0) {
      prev_max_sc = max_sc;
      rr_visit_count = active_list.size();
      max_sc = 0.0;
    }
    const std::size_t f = active_list.front();
    active_list.pop_front();
    const double allowance = 1.0 + prev_max_sc - sc[f];
    double sent = 0.0;
    do {
      const Flits len = queues[f].front();
      queues[f].pop_front();
      schedule.push_back(
          OracleRecord{t, static_cast<std::uint32_t>(f), len});
      t += static_cast<Cycle>(len);
      sent += static_cast<double>(len);
      deliver_upto(t - 1);
    } while (sent < allowance && !queues[f].empty());
    sc[f] = sent - allowance;
    if (sc[f] > max_sc) max_sc = sc[f];
    if (!queues[f].empty()) {
      active_list.push_back(f);
    } else {
      sc[f] = 0.0;
      active[f] = false;
    }
    --rr_visit_count;
  }
  return schedule;
}

/// Pool-backed ERR vs the AoS oracle on a paper-scale config (8 flows,
/// the trace-synth front end).  True iff the service schedules match
/// packet for packet.
bool flow_scale_results_identical() {
  traffic::SynthSpec spec;
  spec.num_flows = 8;
  spec.horizon = 20000;
  spec.load = 0.9;
  spec.elephant_fraction = 0.25;
  spec.mice_min_length = 1;
  spec.mice_max_length = 16;
  spec.elephant_min_length = 16;
  spec.elephant_max_length = 64;
  const traffic::Trace trace = traffic::synthesize_trace(spec, 7);

  core::ErrScheduler scheduler(core::ErrConfig{trace.num_flows});
  struct Probe final : core::SchedulerObserver {
    void on_flit(Cycle now, const core::FlitEvent& flit) override {
      if (flit.is_head)
        schedule.push_back(OracleRecord{now, flit.flow.value(), 0});
    }
    void on_packet_departure(Cycle, const core::Packet& p) override {
      schedule[next_departure++].length = p.length;
    }
    std::vector<OracleRecord> schedule;
    std::size_t next_departure = 0;
  } probe;
  scheduler.set_observer(&probe);
  std::size_t next_arrival = 0;
  PacketId::rep_type next_id = 0;
  for (Cycle t = 0;; ++t) {
    while (next_arrival < trace.entries.size() &&
           trace.entries[next_arrival].cycle == t) {
      const traffic::TraceEntry& e = trace.entries[next_arrival++];
      scheduler.enqueue(t, core::Packet{.id = PacketId(next_id++),
                                        .flow = e.flow,
                                        .length = e.length,
                                        .arrival = t});
    }
    (void)scheduler.pull_flit(t);
    if (next_arrival >= trace.entries.size() && scheduler.idle()) break;
  }
  return probe.schedule == err_aos_oracle(trace);
}

// Set per-target from CMAKE_BUILD_TYPE; "unknown" outside CMake.
#ifndef WORMSCHED_BUILD_TYPE
#define WORMSCHED_BUILD_TYPE "unknown"
#endif

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "simulator perf baseline: hotspot fabric, threads and flow scaling");
  cli.add_option("hotspot-cycles", "8x8 hotspot injection cycles", "60000");
  cli.add_option("hotspot-rate", "packets/node/cycle into the hotspot run",
                 "0.006");
  cli.add_option("scaling-cycles",
                 "injection cycles per threads-scaling leg (CI shrinks this)",
                 "8000");
  cli.add_option("flow-scale-flows",
                 "comma-separated flow counts for the flow-scaling legs",
                 "10000,100000,1000000");
  cli.add_option("flow-scale-cycles",
                 "synthesized-trace horizon per flow-scaling leg",
                 "100000");
  cli.add_option("out", "output JSON path", "BENCH_perf.json");
  cli.parse(argc, argv);

  const Cycle hotspot_cycles = cli.get_uint("hotspot-cycles");
  const Cycle scaling_cycles = cli.get_uint("scaling-cycles");
  const std::size_t hardware_threads = harness::hardware_workers();

  const double hotspot_rate = cli.get_double("hotspot-rate");
  const auto same = [](const NetworkRun& a, const NetworkRun& b) {
    return a.cycles == b.cycles && a.flits == b.flits &&
           a.delivered_packets == b.delivered_packets;
  };
  // The unaudited kernel and the incremental auditor, timed as
  // alternating single-run pairs: the audit overhead is the median of
  // the per-pair ratios, so one noisy run moves a quartile, not the
  // gate.  Each leg's wall clock is its fastest run.
  constexpr int kAuditPairs = 7;
  const HotspotMode incremental_mode{nullptr, /*audit=*/true,
                                     validate::AuditMode::kIncremental,
                                     /*audit_err=*/false};
  NetworkRun active;
  NetworkRun audited_incremental;
  QuantileEstimator audit_ratios;
  bool identical = true;
  for (int pair = 0; pair < kAuditPairs; ++pair) {
    const NetworkRun plain =
        run_hotspot(hotspot_cycles, hotspot_rate, HotspotMode{}, 1);
    const NetworkRun audited =
        run_hotspot(hotspot_cycles, hotspot_rate, incremental_mode, 1);
    if (pair == 0) {
      active = plain;
      audited_incremental = audited;
    }
    identical = identical && same(plain, active) && same(audited, active);
    active.wall_seconds = std::min(active.wall_seconds, plain.wall_seconds);
    audited_incremental.wall_seconds =
        std::min(audited_incremental.wall_seconds, audited.wall_seconds);
    audited_incremental.audit_violations =
        std::max(audited_incremental.audit_violations,
                 audited.audit_violations);
    if (plain.wall_seconds > 0.0)
      audit_ratios.add(audited.wall_seconds / plain.wall_seconds);
  }
  // The every-cycle full-rescan auditor (the pre-incremental baseline),
  // fastest of as many runs as the incremental leg, so audited_speedup
  // compares two minima over the same count.
  const NetworkRun audited_full = run_hotspot(
      hotspot_cycles, hotspot_rate,
      HotspotMode{nullptr, /*audit=*/true, validate::AuditMode::kFull,
                  /*audit_err=*/false},
      kAuditPairs);
  // Instrumented run: stage counters + incremental invariant auditor.
  // Never timed against the runs above; its wall clock pays for both
  // instruments.
  metrics::PerfCounters counters;
  const NetworkRun instrumented =
      run_hotspot(hotspot_cycles, hotspot_rate,
                  HotspotMode{&counters, /*audit=*/true});
  identical = identical && same(audited_full, active) &&
              same(instrumented, active);
  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: unaudited, audited and instrumented hotspot runs "
                 "diverged\n");
    return 1;
  }
  if (audited_full.audit_violations != 0 ||
      audited_incremental.audit_violations != 0 ||
      instrumented.audit_violations != 0) {
    std::fprintf(stderr,
                 "FATAL: auditor violations in audited runs: %llu / %llu / "
                 "%llu\n",
                 static_cast<unsigned long long>(
                     audited_full.audit_violations),
                 static_cast<unsigned long long>(
                     audited_incremental.audit_violations),
                 static_cast<unsigned long long>(
                     instrumented.audit_violations));
    return 1;
  }
  // Incremental auditing vs the full-rescan baseline, and what auditing
  // costs at all relative to the unaudited kernel.
  const double audited_speedup =
      audited_incremental.wall_seconds > 0.0
          ? audited_full.wall_seconds / audited_incremental.wall_seconds
          : 0.0;
  const double audit_overhead = audit_ratios.quantile(0.5);
  const double audit_overhead_q1 = audit_ratios.quantile(0.25);
  const double audit_overhead_q3 = audit_ratios.quantile(0.75);
  // RC runs once per router tick, so its call count is the tick count.
  const double tick_fraction =
      instrumented.cycles > 0
          ? static_cast<double>(
                counters.total(metrics::Stage::kRouteCompute).calls) /
                (static_cast<double>(instrumented.cycles) * kHotspotDim *
                 kHotspotDim)
          : 0.0;
  const std::uint64_t observer_ticks =
      counters.total(metrics::Stage::kObserver).ticks;
  const std::uint64_t grand_ticks = counters.grand_total_ticks();
  const double observer_share =
      grand_ticks > 0 ? static_cast<double>(observer_ticks) /
                            static_cast<double>(grand_ticks)
                      : 0.0;

  // Threads-scaling sweep for the sharded network tick.  The 1-thread
  // leg is the serial kernel; every sharded leg must reproduce it
  // flit for flit (the bench double-checks what the 200-seed fuzz suite
  // already proves, here at mesh16x16/mesh32x32 scale).
  constexpr std::uint32_t kScalingDims[] = {16, 32};
  constexpr std::uint32_t kScalingThreads[] = {1, 2, 4, 8};
  NetworkRun scaling[2][4];
  bool scaling_identical = true;
  for (std::size_t d = 0; d < 2; ++d) {
    for (std::size_t t = 0; t < 4; ++t) {
      scaling[d][t] =
          run_scaling(scaling_cycles, kScalingDims[d], kScalingThreads[t]);
      if (!same(scaling[d][t], scaling[d][0])) scaling_identical = false;
    }
  }
  if (!scaling_identical) {
    std::fprintf(stderr,
                 "FATAL: sharded threads-scaling runs diverged from the "
                 "serial kernel\n");
    return 1;
  }
  // On a single hardware thread the sharded legs measure oversubscription,
  // not scaling; the flag tells CI's ratio floors to stand down.
  const bool scaling_forced = hardware_threads < 2;

  // Flow-scaling legs: the SoA scheduler core driven bare at each flow
  // count over the same synthesized trace.  ERR runs first at each count
  // so its bytes-per-flow figure is measured against freshly mapped
  // memory; later legs at the same count are served from pages the
  // allocator already holds and may legitimately report ~0.
  std::vector<std::size_t> flow_counts;
  {
    const std::string list = cli.get("flow-scale-flows");
    std::size_t pos = 0;
    while (pos < list.size()) {
      std::size_t next = list.find(',', pos);
      if (next == std::string::npos) next = list.size();
      flow_counts.push_back(static_cast<std::size_t>(
          std::stoull(list.substr(pos, next - pos))));
      pos = next + 1;
    }
  }
  if (flow_counts.empty()) {
    std::fprintf(stderr, "FATAL: --flow-scale-flows names no flow counts\n");
    return 1;
  }
  const Cycle flow_scale_cycles = cli.get_uint("flow-scale-cycles");
  constexpr std::string_view kFlowScaleScheds[] = {"err", "drr", "scfq"};
  constexpr std::size_t kNumFlowScaleScheds = 3;
  std::vector<std::array<FlowScaleRun, kNumFlowScaleScheds>> flow_scale(
      flow_counts.size());
  for (std::size_t i = 0; i < flow_counts.size(); ++i) {
    const traffic::Trace trace =
        make_flow_scale_trace(flow_counts[i], flow_scale_cycles);
    const int reps = flow_counts[i] >= 500'000 ? 2 : 3;
    for (std::size_t s = 0; s < kNumFlowScaleScheds; ++s)
      flow_scale[i][s] = run_flow_scale(kFlowScaleScheds[s], trace, reps);
  }
  const bool flow_scale_identical = flow_scale_results_identical();
  if (!flow_scale_identical) {
    std::fprintf(stderr,
                 "FATAL: pool-backed ERR diverged from the AoS Fig. 1 "
                 "oracle\n");
    return 1;
  }
  const auto ns_per_flit = [](const FlowScaleRun& run) {
    return run.flits > 0
               ? run.wall_seconds * 1e9 / static_cast<double>(run.flits)
               : 0.0;
  };
  // ns/flit at the largest flow count over the smallest — the paper's
  // O(1)-work-per-flit claim as a single number per discipline.
  const auto growth = [&](std::size_t s) {
    const double base = ns_per_flit(flow_scale.front()[s]);
    return base > 0.0 ? ns_per_flit(flow_scale.back()[s]) / base : 0.0;
  };

  AsciiTable table("simulator perf baseline (wall-clock)");
  table.set_header({"scenario", "wall s", "cycles/s", "flits/s", "speedup"});
  table.add_row("8x8 hotspot", fixed(active.wall_seconds, 3),
                fixed(per_sec(static_cast<double>(active.cycles),
                              active.wall_seconds), 0),
                fixed(per_sec(static_cast<double>(active.flits),
                              active.wall_seconds), 0),
                "-");
  table.add_row("8x8 hotspot, audited (full rescan)",
                fixed(audited_full.wall_seconds, 3),
                fixed(per_sec(static_cast<double>(audited_full.cycles),
                              audited_full.wall_seconds), 0),
                fixed(per_sec(static_cast<double>(audited_full.flits),
                              audited_full.wall_seconds), 0),
                "1.00 (audit baseline)");
  table.add_row("8x8 hotspot, audited (incremental)",
                fixed(audited_incremental.wall_seconds, 3),
                fixed(per_sec(static_cast<double>(audited_incremental.cycles),
                              audited_incremental.wall_seconds), 0),
                fixed(per_sec(static_cast<double>(audited_incremental.flits),
                              audited_incremental.wall_seconds), 0),
                fixed(audited_speedup, 2));
  for (std::size_t d = 0; d < 2; ++d) {
    const std::string mesh = "mesh" + std::to_string(kScalingDims[d]) + "x" +
                             std::to_string(kScalingDims[d]);
    for (std::size_t t = 0; t < 4; ++t) {
      const NetworkRun& leg = scaling[d][t];
      const double speedup = leg.wall_seconds > 0.0
                                 ? scaling[d][0].wall_seconds / leg.wall_seconds
                                 : 0.0;
      table.add_row(mesh + " uniform, threads=" +
                        std::to_string(kScalingThreads[t]) +
                        (scaling_forced && t > 0 ? " (forced)" : ""),
                    fixed(leg.wall_seconds, 3),
                    fixed(per_sec(static_cast<double>(leg.cycles),
                                  leg.wall_seconds), 0),
                    fixed(per_sec(static_cast<double>(leg.flits),
                                  leg.wall_seconds), 0),
                    t == 0 ? std::string("1.00 (baseline)")
                           : fixed(speedup, 2));
    }
  }
  table.print(std::cout);
  std::printf("(all hotspot runs delivered the same cycles, flits and "
              "packets; tick fraction %.3f;\n incremental audit overhead "
              "%.2fx unaudited (median of %d pairs, IQR %.2f-%.2f), observer "
              "share %.1f%%; auditor violations: %llu)\n",
              tick_fraction, audit_overhead, kAuditPairs, audit_overhead_q1,
              audit_overhead_q3, 100.0 * observer_share,
              static_cast<unsigned long long>(instrumented.audit_violations));

  AsciiTable stage_table(
      "8x8 hotspot stage breakdown (instrumented run, TSC ticks)");
  stage_table.set_header({"stage", "ticks", "calls", "share %"});
  const std::uint64_t grand = counters.grand_total_ticks();
  for (std::size_t s = 0; s < metrics::kNumStages; ++s) {
    const auto stage = static_cast<metrics::Stage>(s);
    const auto& total = counters.total(stage);
    const double share =
        grand > 0 ? 100.0 * static_cast<double>(total.ticks) /
                        static_cast<double>(grand)
                  : 0.0;
    stage_table.add_row(metrics::stage_name(stage),
                        std::to_string(total.ticks),
                        std::to_string(total.calls), fixed(share, 1));
  }
  AsciiTable flow_table("flow scaling (SoA scheduler core, bare drive)");
  flow_table.set_header(
      {"flows", "sched", "wall s", "flits/s", "ns/flit", "B/flow"});
  for (std::size_t i = 0; i < flow_counts.size(); ++i) {
    for (std::size_t s = 0; s < kNumFlowScaleScheds; ++s) {
      const FlowScaleRun& leg = flow_scale[i][s];
      flow_table.add_row(std::to_string(flow_counts[i]),
                         std::string(kFlowScaleScheds[s]),
                         fixed(leg.wall_seconds, 3),
                         fixed(per_sec(static_cast<double>(leg.flits),
                                       leg.wall_seconds), 0),
                         fixed(ns_per_flit(leg), 1),
                         fixed(leg.bytes_per_flow, 1));
    }
  }
  flow_table.print(std::cout);
  std::printf("(pool-backed ERR vs AoS Fig. 1 oracle at paper scale: "
              "identical; ns/flit growth %zuk->%zuk flows: err %.2fx, "
              "drr %.2fx, scfq %.2fx)\n",
              flow_counts.front() / 1000, flow_counts.back() / 1000,
              growth(0), growth(1), growth(2));

  stage_table.print(std::cout);

  FILE* out = std::fopen(cli.get("out").c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", cli.get("out").c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"wormsched-perf-v9\",\n");
  std::fprintf(out, "  \"hardware_threads\": %zu,\n", hardware_threads);
  std::fprintf(out,
               "  \"provenance\": {\"compiler\": \"%s\", "
               "\"build_type\": \"%s\", \"git_sha\": \"%s\"},\n",
               compiler_id().c_str(), WORMSCHED_BUILD_TYPE,
               obs::current_git_sha().c_str());
  std::fprintf(out, "  \"scenarios\": {\n");
  std::fprintf(out,
               "    \"mesh8x8_hotspot\": {\"sim_cycles\": %llu, "
               "\"delivered_flits\": %llu, \"results_identical\": %s,\n"
               "      \"active_set\": {\"wall_seconds\": %.6f, "
               "\"cycles_per_sec\": %.0f},\n"
               "      \"audited_full\": {\"wall_seconds\": %.6f, "
               "\"cycles_per_sec\": %.0f},\n"
               "      \"audited_incremental\": {\"wall_seconds\": %.6f, "
               "\"cycles_per_sec\": %.0f},\n"
               "      \"audited_speedup\": %.3f,\n"
               "      \"audit_overhead\": %.3f,\n"
               "      \"audit_overhead_pairs\": %d,\n"
               "      \"audit_overhead_q1\": %.3f,\n"
               "      \"audit_overhead_q3\": %.3f,\n"
               "      \"observer_share\": %.4f,\n"
               "      \"audit_violations\": %llu,\n",
               static_cast<unsigned long long>(active.cycles),
               static_cast<unsigned long long>(active.flits),
               identical ? "true" : "false", active.wall_seconds,
               per_sec(static_cast<double>(active.cycles),
                       active.wall_seconds),
               audited_full.wall_seconds,
               per_sec(static_cast<double>(audited_full.cycles),
                       audited_full.wall_seconds),
               audited_incremental.wall_seconds,
               per_sec(static_cast<double>(audited_incremental.cycles),
                       audited_incremental.wall_seconds),
               audited_speedup, audit_overhead, kAuditPairs,
               audit_overhead_q1, audit_overhead_q3, observer_share,
               static_cast<unsigned long long>(
                   instrumented.audit_violations));
  std::fprintf(out, "      \"tick_fraction\": %.4f,\n", tick_fraction);
  std::fprintf(out, "      \"stage_breakdown\": {\"total_ticks\": %llu",
               static_cast<unsigned long long>(grand));
  for (std::size_t s = 0; s < metrics::kNumStages; ++s) {
    const auto stage = static_cast<metrics::Stage>(s);
    const auto& total = counters.total(stage);
    std::fprintf(out, ", \"%s\": {\"ticks\": %llu, \"calls\": %llu}",
                 metrics::stage_name(stage),
                 static_cast<unsigned long long>(total.ticks),
                 static_cast<unsigned long long>(total.calls));
  }
  std::fprintf(out, "}},\n");
  std::fprintf(out,
               "    \"threads_scaling\": {\"scaling_cycles\": %llu, "
               "\"pattern\": \"uniform\", \"hardware_threads\": %zu, "
               "\"forced\": %s, \"results_identical\": %s",
               static_cast<unsigned long long>(scaling_cycles),
               hardware_threads, scaling_forced ? "true" : "false",
               scaling_identical ? "true" : "false");
  for (std::size_t d = 0; d < 2; ++d) {
    std::fprintf(out,
                 ",\n      \"mesh%ux%u\": {\"sim_cycles\": %llu, "
                 "\"delivered_flits\": %llu",
                 kScalingDims[d], kScalingDims[d],
                 static_cast<unsigned long long>(scaling[d][0].cycles),
                 static_cast<unsigned long long>(scaling[d][0].flits));
    for (std::size_t t = 0; t < 4; ++t) {
      const NetworkRun& leg = scaling[d][t];
      const double speedup = leg.wall_seconds > 0.0
                                 ? scaling[d][0].wall_seconds / leg.wall_seconds
                                 : 0.0;
      std::fprintf(out,
                   ", \"threads%u\": {\"wall_seconds\": %.6f, "
                   "\"cycles_per_sec\": %.0f, \"speedup\": %.3f}",
                   kScalingThreads[t], leg.wall_seconds,
                   per_sec(static_cast<double>(leg.cycles), leg.wall_seconds),
                   speedup);
    }
    std::fprintf(out, "}");
  }
  std::fprintf(out, "},\n");
  std::fprintf(out,
               "    \"flow_scaling\": {\"horizon\": %llu, "
               "\"results_identical\": %s, \"rows\": [",
               static_cast<unsigned long long>(flow_scale_cycles),
               flow_scale_identical ? "true" : "false");
  bool first_row = true;
  for (std::size_t i = 0; i < flow_counts.size(); ++i) {
    for (std::size_t s = 0; s < kNumFlowScaleScheds; ++s) {
      const FlowScaleRun& leg = flow_scale[i][s];
      std::fprintf(out,
                   "%s\n      {\"flows\": %zu, \"sched\": \"%s\", "
                   "\"wall_seconds\": %.6f, \"sim_cycles\": %llu, "
                   "\"flits\": %llu, \"ns_per_flit\": %.3f, "
                   "\"flits_per_sec\": %.0f, \"bytes_per_flow\": %.1f}",
                   first_row ? "" : ",", flow_counts[i],
                   std::string(kFlowScaleScheds[s]).c_str(),
                   leg.wall_seconds,
                   static_cast<unsigned long long>(leg.cycles),
                   static_cast<unsigned long long>(leg.flits),
                   ns_per_flit(leg),
                   per_sec(static_cast<double>(leg.flits), leg.wall_seconds),
                   leg.bytes_per_flow);
      first_row = false;
    }
  }
  std::fprintf(out,
               "],\n      \"err_growth\": %.3f, \"drr_growth\": %.3f, "
               "\"scfq_growth\": %.3f}\n",
               growth(0), growth(1), growth(2));
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", cli.get("out").c_str());

  // Run manifest next to the JSON: the same provenance record every
  // traced run writes (docs/OBSERVABILITY.md), so downstream tooling can
  // treat bench outputs and sweep outputs uniformly.
  obs::RunManifest manifest;
  manifest.tool = "bench_perf_kernel";
  for (const auto& [name, value] : cli.items())
    manifest.add_config(name, value);
  manifest.add_counter("tick_fraction", tick_fraction);
  manifest.add_counter("audited_speedup", audited_speedup);
  manifest.add_counter("audit_overhead", audit_overhead);
  manifest.add_counter("observer_share", observer_share);
  manifest.add_counter(
      "threads8_speedup_mesh32x32",
      scaling[1][3].wall_seconds > 0.0
          ? scaling[1][0].wall_seconds / scaling[1][3].wall_seconds
          : 0.0);
  manifest.add_counter("hotspot_cycles",
                       static_cast<double>(active.cycles));
  manifest.add_counter("hotspot_flits", static_cast<double>(active.flits));
  manifest.add_counter("flow_scale_err_growth", growth(0));
  manifest.add_counter("flow_scale_scfq_growth", growth(2));
  manifest.add_counter("flow_scale_err_ns_per_flit",
                       ns_per_flit(flow_scale.back()[0]));
  manifest.violations = instrumented.audit_violations;
  const std::string manifest_path = cli.get("out") + ".manifest.json";
  manifest.write_file(manifest_path);
  std::printf("wrote %s\n", manifest_path.c_str());
  return 0;
}
