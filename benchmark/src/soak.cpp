// fattree_soak: a two-segment `wormsched soak` chain on a 4-ary fat tree.
//
// Segment 1 soaks with periodic checkpoints; segment 2 restores the last
// one and continues to the injection horizon.  The only workload that
// writes and reads snapshots, and the only one on the on/off flow-control
// and adaptive up/down routing paths.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>

#include "common/snapshot.hpp"
#include "harness/checkpoint.hpp"
#include "harness/soak.hpp"
#include "metrics/windowed.hpp"
#include "obs/manifest.hpp"
#include "traced_fabric.hpp"

namespace wsbench {
namespace {

using namespace wormsched;

// soak --topo fattree:4 --flow-control onoff --routing adaptive --rate 0.05
//      --cycles 500000 --horizon 800000 --checkpoint-every 62500
//      --checkpoint <file>
// then soak ... --cycles 800000 --restore <file>.  Sized so one chain
// takes about a second; the window settings are the CLI defaults.  The
// segments are unequal on purpose: the restored latency reservoir is
// allocated to its exact size and doubles once it outgrows it, and with
// equal segments whether that happens before the end depends on the seed,
// which made peak RSS bimodal across seeds.
constexpr Cycle kSegment1 = 500'000;
constexpr Cycle kHorizon = 800'000;
constexpr Cycle kCheckpointEvery = 62'500;

harness::NetworkScenarioConfig soak_point() {
  harness::NetworkScenarioConfig point;
  wormhole::NetworkConfig& net = point.network;
  net.topo = wormhole::TopologySpec::fat_tree(4);
  net.router.arbiter = "err-cycles";
  net.router.num_vcs = 2;
  net.router.buffer_depth = 8;
  net.router.flow_control = wormhole::FlowControl::kOnOff;
  net.router.buffer_model = wormhole::BufferModel::kFinite;
  net.routing = wormhole::NetworkConfig::Routing::kUpDownAdaptive;
  point.traffic.packets_per_node_per_cycle = 0.05;
  point.traffic.inject_until = kHorizon;
  point.traffic.pattern.kind = wormhole::PatternSpec::Kind::kUniform;
  return point;
}

metrics::WindowedConfig window_config() {
  metrics::WindowedConfig window;
  window.window = 10'000;
  window.stable_windows = 5;
  window.rel_tol = 0.10;
  return window;
}

void digest_soak(const harness::SoakSummary& s, Digest& d) {
  d.add(s.end_cycle);
  d.add(s.generated_packets);
  d.add(s.delivered_packets);
  d.add(s.delivered_flits);
  d.add(s.warmed_up ? 1 : 0);
  d.add(s.warmup_end);
  d.add(s.windows_closed);
  d.add_double(s.steady_mean_delay);
  d.add_double(s.steady_throughput);
  d.add_double(s.window_mean_stddev);
  d.add(s.audit_violations);
  d.add(s.checkpoints_written);
  d.add(s.restore_count);
}

/// Writes the checkpoint a soak segment writes — META, the fabric and
/// source state, the steady-state tracker — timing the save_state calls
/// and the file write.  (The generative config section harness::NetworkRun
/// adds is omitted: this file is only read back by the traced restore.)
void save_traced_checkpoint(TracedFabric& run,
                            const metrics::SteadyStateTracker& tracker,
                            std::uint64_t seed, std::uint32_t restore_count,
                            const std::string& path, Tracer& tracer,
                            LayerCounts& counts) {
  {
    Span span(tracer, Site::kCheckpointSave);
    SnapshotWriter w;
    w.begin_section(harness::kCkptMetaTag);
    w.str("network");
    w.u64(seed);
    w.str(obs::current_git_sha());
    w.u32(restore_count);
    w.u64(run.now());
    w.end_section();
    w.begin_section(harness::kCkptNetworkTag);
    run.network().save_state(w);
    w.end_section();
    w.begin_section(harness::kCkptSourceTag);
    run.source().save_state(w);
    w.end_section();
    w.begin_section(harness::kCkptSoakTag);
    tracker.save(w);
    w.end_section();
    obs::RunManifest manifest;
    manifest.tool = "wormsched checkpoint";
    manifest.seed = seed;
    manifest.add_config("kind", "network");
    manifest.add_counter("saved_cycle", static_cast<double>(run.now()));
    std::ostringstream json;
    manifest.write(json);
    write_snapshot_file(path, json.str(), w.bytes());
  }
  counts.checkpoint_bytes += std::filesystem::file_size(path);
  ++counts.checkpoints;
}

/// harness::drive_soak on a TracedFabric.
harness::SoakSummary traced_drive(TracedFabric& run,
                                  metrics::SteadyStateTracker& tracker,
                                  Cycle cycles, Cycle checkpoint_every,
                                  const std::string& path, std::uint64_t seed,
                                  std::uint32_t restore_count, Tracer& tracer,
                                  LayerCounts& counts) {
  const Cycle window = std::max<Cycle>(1, window_config().window);
  std::uint64_t checkpoints_written = 0;
  Cycle next_checkpoint = kCycleMax;
  if (checkpoint_every > 0 && !path.empty())
    next_checkpoint = (run.now() / checkpoint_every + 1) * checkpoint_every;
  const Cycle start = run.now();

  while (!run.done() && run.now() < cycles) {
    const Cycle next_boundary = (run.now() / window + 1) * window;
    run.advance_to(std::min({next_boundary, next_checkpoint, cycles}));
    {
      Span span(tracer, Site::kSoakObserve);
      tracker.observe(run.now(), run.network().latency_overall(),
                      run.network().delivered_flits());
    }
    if (run.now() >= next_checkpoint) {
      save_traced_checkpoint(run, tracker, seed, restore_count, path, tracer,
                             counts);
      ++checkpoints_written;
      next_checkpoint += checkpoint_every;
    }
  }
  if (!path.empty()) {
    save_traced_checkpoint(run, tracker, seed, restore_count, path, tracer,
                           counts);
    ++checkpoints_written;
  }

  harness::SoakSummary summary;
  summary.end_cycle = run.now();
  summary.warmed_up = tracker.warmed_up();
  summary.warmup_end = tracker.warmup_end();
  summary.windows_closed = tracker.windows_closed();
  summary.steady_mean_delay = tracker.steady_mean_delay();
  summary.steady_throughput = tracker.steady_throughput();
  summary.window_mean_stddev = tracker.window_means().stddev();
  summary.checkpoints_written = checkpoints_written;
  summary.restore_count = restore_count;
  const harness::NetworkScenarioResult result = run.finish();
  summary.generated_packets = result.generated_packets;
  summary.delivered_packets = result.delivered_packets;
  summary.delivered_flits = result.delivered_flits;
  summary.audit_violations = result.audit_violations;
  counts.cycles += summary.end_cycle - start;
  counts.flit_hops += flit_hops(run.network());
  return summary;
}

class SoakWorkload final : public Workload {
 public:
  ~SoakWorkload() override {
    for (const std::string* p : {&path_, &traced_path_})
      if (!p->empty()) std::remove(p->c_str());
  }

  void prepare(std::uint64_t seed, const std::string& workdir) override {
    path_ = workdir + "/fattree_soak-" + std::to_string(seed) + ".wsnp";
    traced_path_ =
        workdir + "/fattree_soak-" + std::to_string(seed) + ".traced.wsnp";
  }

  RepResult run(std::uint64_t seed) override {
    const std::int64_t t0 = now_ns();
    const harness::SoakSummary first =
        harness::run_soak(point_, seed, segment_options(true));
    const std::int64_t t1 = now_ns();
    std::optional<harness::SoakSummary> second;
    std::string error;
    std::int64_t t2 = t1;
    std::int64_t t3 = t1;
    try {
      const SnapshotFile file = read_snapshot_file(path_);
      t2 = now_ns();
      second = harness::resume_soak(point_, file, segment_options(false));
      t3 = now_ns();
    } catch (const SnapshotError& e) {
      error = e.what();
    }
    RepResult rep;
    rep.setup_s = static_cast<double>(t2 - t1) * 1e-9;
    rep.run_s = static_cast<double>((t1 - t0) + (t3 - t2)) * 1e-9;
    return summarize(first, second, error, std::move(rep));
  }

  RepResult run_traced(std::uint64_t seed, Tracer& tracer,
                       LayerCounts& counts) override {
    harness::NetworkScenarioConfig point = restore_point();
    // The delivered log feeds the flit-hop count; it is derived output
    // and changes no counter, statistic or snapshot byte.
    point.network.record_delivered = true;

    const std::int64_t t0 = now_ns();
    std::optional<TracedFabric> fabric;
    {
      Span span(tracer, Site::kBuild);
      fabric.emplace(point, seed, tracer, counts);
    }
    metrics::SteadyStateTracker tracker(window_config());
    const harness::SoakSummary first =
        traced_drive(*fabric, tracker, kSegment1, kCheckpointEvery,
                     traced_path_, seed, 0, tracer, counts);
    fabric.reset();
    const std::int64_t t1 = now_ns();

    std::optional<harness::SoakSummary> second;
    std::string error;
    std::int64_t t2 = t1;
    try {
      std::optional<SnapshotFile> file;
      {
        Span span(tracer, Site::kRestore);
        file.emplace(read_snapshot_file(traced_path_));
      }
      const harness::CheckpointProvenance prov =
          harness::read_checkpoint_provenance(*file);
      {
        Span span(tracer, Site::kBuild);
        fabric.emplace(point, seed, tracer, counts, prov.saved_cycle);
      }
      metrics::SteadyStateTracker resumed(window_config());
      {
        Span span(tracer, Site::kRestore);
        SnapshotReader r(file->payload);
        r.enter_section(harness::kCkptMetaTag);
        r.leave_section();
        r.enter_section(harness::kCkptNetworkTag);
        fabric->network().restore_state(r);
        r.leave_section();
        r.enter_section(harness::kCkptSourceTag);
        fabric->source().restore_state(r);
        r.leave_section();
        r.enter_section(harness::kCkptSoakTag);
        resumed.restore(r);
        r.leave_section();
      }
      ++counts.restores;
      t2 = now_ns();
      second = traced_drive(*fabric, resumed, kHorizon, 0, "", seed,
                            prov.restore_count + 1, tracer, counts);
    } catch (const SnapshotError& e) {
      error = e.what();
    }
    const std::int64_t t3 = now_ns();
    if (second) counts.flits += second->delivered_flits;
    RepResult rep;
    rep.setup_s = static_cast<double>(t2 - t1) * 1e-9;
    rep.run_s = static_cast<double>((t1 - t0) + (t3 - t2)) * 1e-9;
    return summarize(first, second, error, std::move(rep));
  }

  double setup_probe(std::uint64_t) override {
    const std::int64_t t0 = now_ns();
    const SnapshotFile file = read_snapshot_file(path_);
    const harness::NetworkRun restored(restore_point(), file);
    const std::int64_t t1 = now_ns();
    return static_cast<double>(t1 - t0) * 1e-9;
  }

  std::optional<double> run_stage_pass(
      std::uint64_t seed, metrics::PerfCounters& counters) override {
    harness::NetworkScenarioConfig point = point_;
    point.perf_counters = &counters;
    const std::int64_t t0 = now_ns();
    (void)harness::run_soak(point, seed, segment_options(true));
    (void)harness::resume_soak(point, read_snapshot_file(path_),
                               segment_options(false));
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

 private:
  harness::SoakOptions segment_options(bool first) const {
    harness::SoakOptions options;
    options.window = window_config();
    if (first) {
      options.cycles = kSegment1;
      options.checkpoint_every = kCheckpointEvery;
      options.checkpoint_path = path_;
    } else {
      options.cycles = kHorizon;
    }
    return options;
  }

  /// The configuration run_soak/resume_soak build their NetworkRun from.
  harness::NetworkScenarioConfig restore_point() const {
    harness::NetworkScenarioConfig point = point_;
    point.network.record_delivered = false;
    return point;
  }

  static RepResult summarize(const harness::SoakSummary& first,
                             const std::optional<harness::SoakSummary>& second,
                             const std::string& error, RepResult rep) {
    Digest d;
    digest_soak(first, d);
    rep.sim_cycles = first.end_cycle;
    rep.attempted = first.generated_packets;
    rep.flits = first.delivered_flits;
    rep.latency_mean = first.steady_mean_delay;
    // Gate: segment 2 restores, counts exactly one restore, and reaches
    // warm-up.
    if (!second) {
      ++rep.failed;
      rep.failures.push_back("fattree_soak: restore failed: " + error);
    } else {
      digest_soak(*second, d);
      rep.sim_cycles = second->end_cycle;
      rep.attempted = second->generated_packets;
      rep.flits = second->delivered_flits;
      rep.latency_mean = second->steady_mean_delay;
      if (second->restore_count != 1) {
        ++rep.failed;
        rep.failures.push_back("fattree_soak: restore_count " +
                               std::to_string(second->restore_count));
      }
      if (!second->warmed_up) {
        ++rep.failed;
        rep.failures.push_back("fattree_soak: warm-up not reached");
      }
    }
    rep.digest = d.value();
    return rep;
  }

  harness::NetworkScenarioConfig point_ = soak_point();
  std::string path_;
  std::string traced_path_;
};

}  // namespace

std::unique_ptr<Workload> make_soak_workload() {
  return std::make_unique<SoakWorkload>();
}

}  // namespace wsbench
