// wormsched — command-line front end for the library.
//
//   wormsched compare  --workload <spec> [--cycles N] [--schedulers a,b,c]
//   wormsched run      --workload <spec> --scheduler err [--cycles N]
//   wormsched gen-trace --workload <spec> --out trace.csv [--cycles N]
//   wormsched trace-gen --flows 100000 --cycles 100000 --out trace.wst
//   wormsched replay   --trace trace.csv --scheduler err
//   wormsched network  --topo mesh4x4 --arbiter err-cycles [--rate R]
//   wormsched soak     --topo mesh8x8 --cycles 5000000 --checkpoint s.wsnp
//
// Every option is one row of the table in cli_options.hpp.  Exit status:
// 0 on success or --help; 2 on bad input (an option, an unknown command,
// an unreadable or unwritable file, a malformed snapshot or trace) with
// one line on stderr, and 2 on an auditor violation.
//
// Workload specs use the grammar of harness/workload_parse.hpp, e.g. the
// paper's Fig. 4 traffic is
//   'bern:0.0046:u1-64*2;bern:0.0046:u1-128;bern:0.0092:u1-64;bern:0.0046:u1-64*4'
#include <cstdio>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli_options.hpp"
#include "common/snapshot.hpp"
#include "common/table.hpp"
#include "harness/checkpoint.hpp"
#include "harness/network_sweep.hpp"
#include "harness/scenario.hpp"
#include "harness/soak.hpp"
#include "harness/sweep.hpp"
#include "metrics/fairness.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_sink.hpp"
#include "traffic/binary_trace.hpp"
#include "traffic/trace_io.hpp"
#include "traffic/trace_synth.hpp"

using namespace wormsched;

namespace {

/// Drives a resumable run to completion.  With --checkpoint-every the run
/// advances in N-cycle segments and rewrites the snapshot after each; the
/// final write always reflects the finished state.
template <typename Run>
void drive_with_checkpoints(Run& run, const std::string& path, Cycle every) {
  if (!path.empty() && every > 0) {
    while (!run.done()) {
      run.advance_to((run.now() / every + 1) * every);
      run.save_checkpoint(path);
    }
  } else {
    run.run_to_completion();
    if (!path.empty()) run.save_checkpoint(path);
  }
}

/// Prints the restore banner of a restored run; returns its provenance
/// (restored == false when the run started fresh).
template <typename Run>
obs::TraceProvenance announce_restore(const Run& run, const std::string& path) {
  if (!run.restored()) return {};
  const obs::TraceProvenance prov = run.trace_provenance();
  std::printf("restored from %s at cycle %llu (original seed %llu)\n",
              path.c_str(), static_cast<unsigned long long>(prov.restore_cycle),
              static_cast<unsigned long long>(prov.original_seed));
  return prov;
}

void print_flow_detail(const harness::ScenarioResult& result) {
  AsciiTable table("per-flow results (" + result.scheduler_name + ")");
  table.set_header({"flow", "served flits", "served bytes", "mean delay",
                    "p99 delay"});
  for (std::uint32_t f = 0; f < result.num_flows(); ++f) {
    table.add_row(f, static_cast<long long>(result.service_log.total(FlowId(f))),
                  static_cast<unsigned long long>(
                      result.service_log.total_bytes(FlowId(f))),
                  fixed(result.delays.flow(FlowId(f)).mean(), 1),
                  fixed(result.delays.flow_quantile(FlowId(f), 0.99), 1));
  }
  table.print(std::cout);
}

int cmd_compare(const CliParser& cli) {
  const auto workload = cli::workload(cli);
  const Cycle cycles = cli.get_uint("cycles");
  const std::size_t seeds = cli.get_uint("seeds");
  const std::vector<std::string> names = cli::scheduler_list(cli);
  cli::check_weights(workload, names);

  harness::ScenarioConfig config;
  config.horizon = cycles;
  config.drain = cli.get_flag("drain");
  config.weights = workload.weights;
  config.sched.drr_quantum = workload.spec.max_packet_length();

  AsciiTable table(seeds == 1
                       ? "scheduler comparison, identical trace"
                       : "scheduler comparison, mean +/- stddev over seeds");
  table.set_header({"scheduler", "served flits", "mean delay", "p95 delay",
                    "FM[10%,end) flits"});
  if (seeds == 1) {
    const auto trace =
        traffic::generate_trace(workload.spec, cycles, cli.get_uint("seed"));
    std::printf("workload: %zu flows, offered load %.3f flits/cycle, %zu "
                "packets generated\n\n",
                workload.spec.flows.size(), workload.spec.offered_load(),
                trace.entries.size());
    for (const auto& name : names) {
      const auto result = harness::run_scenario(name, config, trace);
      const Flits fm = metrics::fairness_measure(
          result.service_log, result.activity, cycles / 10, cycles);
      table.add_row(result.scheduler_name,
                    static_cast<long long>(result.service_log.grand_total()),
                    fixed(result.delays.overall().mean(), 1),
                    fixed(result.delays.quantile(0.95), 1), fm);
    }
    table.print(std::cout);
    return 0;
  }

  harness::SweepOptions sweep;
  sweep.base_seed = cli.get_uint("seed");
  sweep.seeds = seeds;
  sweep.jobs = cli.get_uint("jobs");
  std::printf("workload: %zu flows, offered load %.3f flits/cycle, "
              "%zu seeds x %llu cycles, %zu worker(s)\n\n",
              workload.spec.flows.size(), workload.spec.offered_load(),
              seeds, static_cast<unsigned long long>(cycles),
              harness::sweep_workers(sweep));
  for (const auto& name : names) {
    const auto result = harness::sweep_scenario(
        name, config, workload.spec, sweep,
        [cycles](const harness::ScenarioResult& r, harness::SweepResult& out) {
          out.add("served",
                  static_cast<double>(r.service_log.grand_total()));
          out.add("mean_delay", r.delays.overall().mean());
          out.add("p95_delay", r.delays.quantile(0.95));
          out.add("fm", static_cast<double>(metrics::fairness_measure(
                            r.service_log, r.activity, cycles / 10, cycles)));
        });
    table.add_row(name, result.summary("served", 0),
                  result.summary("mean_delay", 1),
                  result.summary("p95_delay", 1), result.summary("fm", 0));
  }
  table.print(std::cout);
  return 0;
}

int cmd_run(const CliParser& cli) {
  const auto workload = cli::workload(cli);
  const std::string scheduler = cli::scheduler(cli);
  cli::check_weights(workload, {scheduler});
  harness::ScenarioConfig config;
  config.horizon = cli.get_uint("cycles");
  config.seed = cli.get_uint("seed");
  config.drain = cli.get_flag("drain");
  config.weights = workload.weights;
  config.sched.drr_quantum = workload.spec.max_packet_length();
  config.audit = cli.get("audit") != "off";
  validate::AuditLog audit_log;
  config.audit_log = &audit_log;

  const obs::TraceRequest trace_request = cli::trace_request(cli);
  std::optional<obs::TraceSink> sink;
  bool violation_window_dumped = false;
  obs::TraceProvenance provenance;  // filled in when the run is restored
  if (trace_request.enabled()) {
    obs::TraceSink::Options sink_options;
    sink_options.capacity = trace_request.capacity;
    sink_options.mask = trace_request.mask;
    sink.emplace(sink_options);
    config.trace = &*sink;
    // Auditor violations land in the trace, and the first one dumps the
    // event window around it while it is still in the ring (with the
    // snapshot provenance when the run was restored).
    audit_log.set_on_report([&](const validate::Violation& v) {
      sink->record(obs::TraceEvent::violation(
          sink->now(), sink->note(v.check + ": " + v.detail)));
      if (!violation_window_dumped && !trace_request.chrome_path.empty()) {
        violation_window_dumped = true;
        obs::write_chrome_trace_file(
            trace_request.chrome_path + ".violation.json", *sink,
            provenance.restored ? &provenance : nullptr);
      }
    });
  }

  harness::ScenarioSpec spec;
  spec.scheduler = scheduler;
  spec.workload_text = cli.get("workload");
  spec.config = config;
  spec.faults = cli::fault_spec(cli);

  const std::string restore_path = cli.get("restore");
  std::optional<harness::ScenarioRun> run;
  if (!restore_path.empty()) {
    run.emplace(spec, read_snapshot_file(restore_path));
    cli::check_restored_spec(cli, run->spec());
  } else {
    if (spec.faults.enabled)
      std::printf("%s\n", spec.faults.describe().c_str());
    run.emplace(spec);
  }
  provenance = announce_restore(*run, restore_path);
  drive_with_checkpoints(*run, cli.get("checkpoint"),
                         cli.get_uint("checkpoint-every"));
  const auto result = run->finish();
  print_flow_detail(result);

  if (sink.has_value()) obs::export_trace(trace_request, *sink);
  const std::string manifest_path = cli.get("manifest");
  if (!manifest_path.empty()) {
    obs::RunManifest manifest =
        cli::manifest("wormsched run", cli, run->spec().config.seed);
    if (provenance.restored) {
      manifest.add_config("restored_from", restore_path);
      manifest.add_config("restored_from_sha", provenance.restored_from_sha);
    }
    manifest.add_counter("end_cycle", static_cast<double>(result.end_cycle));
    manifest.add_counter(
        "served_flits",
        static_cast<double>(result.service_log.grand_total()));
    manifest.add_counter("mean_delay", result.delays.overall().mean());
    manifest.add_counter(
        "audit_opportunities",
        static_cast<double>(result.audit_opportunities));
    manifest.violations = result.audit_violations;
    if (sink.has_value()) {
      manifest.trace_path = trace_request.chrome_path;
      manifest.trace_recorded = sink->recorded();
      manifest.trace_dropped = sink->dropped();
    }
    manifest.write_file(manifest_path);
  }

  if (config.audit) {
    std::printf("audit: %llu opportunities checked, %llu violation(s)\n",
                static_cast<unsigned long long>(result.audit_opportunities),
                static_cast<unsigned long long>(result.audit_violations));
    for (const auto& v : audit_log.kept())
      std::printf("  [%s] %s\n", v.check.c_str(), v.detail.c_str());
    if (!audit_log.clean()) return 2;
  }
  return 0;
}

/// Provenance JSON for generated binary traces (wormsched-trace-meta-v1).
std::string trace_meta_json(const std::string& tool, std::uint64_t seed) {
  return "{\"format\":\"wormsched-trace-meta-v1\",\"tool\":\"" + tool +
         "\",\"seed\":" + std::to_string(seed) + "}";
}

int cmd_gen_trace(const CliParser& cli) {
  const auto workload = cli::workload(cli);
  const auto trace = traffic::generate_trace(
      workload.spec, cli.get_uint("cycles"), cli.get_uint("seed"));
  if (cli.get("format") == "binary")
    traffic::save_binary_trace_file(
        cli.get("out"), trace,
        trace_meta_json("wormsched gen-trace", cli.get_uint("seed")));
  else
    traffic::save_trace_file(cli.get("out"), trace);
  std::printf("wrote %zu arrivals (%lld flits, %zu flows) to %s\n",
              trace.entries.size(),
              static_cast<long long>(trace.total_flits()), trace.num_flows,
              cli.get("out").c_str());
  return 0;
}

int cmd_trace_gen(const CliParser& cli) {
  traffic::SynthSpec spec;
  spec.num_flows = cli.get_uint("flows");
  spec.horizon = cli.get_uint("cycles");
  spec.load = cli.get_double("load");
  spec.elephant_fraction = cli.get_double("elephant-fraction");
  spec.elephant_share = cli.get_double("elephant-share");
  spec.churn_epoch = cli.get_uint("churn-epoch");
  spec.active_fraction = cli.get_double("active-fraction");
  spec.incast_every = cli.get_uint("incast-every");
  spec.incast_fanin = cli.get_uint("incast-fanin");
  const std::string scenario = cli.get("scenario");
  if (scenario == "incast") {
    // Synchronized fan-in every few hundred cycles: the workload the
    // on/off-vs-credit and fat-tree adaptive differentials stress.
    spec.incast_every = 512;
    spec.incast_fanin = 64;
  } else if (scenario == "elephant-mice") {
    spec.elephant_fraction = 0.05;
    spec.elephant_share = 0.7;
  }
  // Stream straight into the encoder — a million-flow trace never exists
  // as a materialised vector here.
  const std::uint64_t seed = cli.get_uint("seed");
  traffic::BinaryTraceWriter writer(spec.num_flows);
  traffic::synthesize_trace(
      spec, seed,
      [&](const traffic::TraceEntry& e) { writer.append(e); });
  traffic::write_binary_trace_bytes(
      cli.get("out"),
      writer.finish(trace_meta_json("wormsched trace-gen", seed)));
  std::printf("wrote %llu arrivals (%lld flits, %llu flows) to %s\n",
              static_cast<unsigned long long>(writer.entry_count()),
              static_cast<long long>(writer.total_flits()),
              static_cast<unsigned long long>(spec.num_flows),
              cli.get("out").c_str());
  return 0;
}

int cmd_replay(const CliParser& cli) {
  const std::string scheduler = cli::scheduler(cli);
  const std::string path = cli.get("trace");
  const auto replay = harness::load_replay_trace(path);
  const traffic::Trace& trace = replay->trace;
  if (trace.entries.empty())
    CliParser::option_error("trace", "'" + path + "' holds no arrivals");
  harness::ScenarioConfig config;
  config.horizon = trace.entries.back().cycle + 1;
  config.drain = true;
  config.sched.drr_quantum = trace.max_observed_length();
  print_flow_detail(harness::run_scenario(scheduler, config, trace));
  return 0;
}

/// "mesh 4x4, err-cycles, uniform", or "..., trace s.wst" for a replay.
std::string describe_fabric(const CliParser& cli,
                            const harness::NetworkScenarioConfig& point) {
  return point.network.topo.describe() + ", " + cli.get("arbiter") + ", " +
         (point.trace_in ? "trace " + point.trace_in->path
                         : point.traffic.pattern.describe());
}

int cmd_network(const CliParser& cli) {
  harness::NetworkScenarioConfig point = cli::fabric_config(cli, cli::kNetwork);
  const std::size_t seeds = cli.get_uint("seeds");
  // A multi-seed sweep neither restores nor writes a snapshot.
  for (const char* name : {"restore", "checkpoint", "checkpoint-every"})
    if (seeds > 1 && cli.given(name))
      CliParser::option_error(name, "needs --seeds 1");
  const std::string restore_path = cli.get("restore");
  const std::optional<SnapshotFile> restore =
      cli::restore_inputs(cli, cli::kNetwork, point);
  if (point.faults.enabled && !restore)
    std::printf("%s\n", point.faults.describe().c_str());
  const std::string fabric = describe_fabric(cli, point);

  const std::string manifest_path = cli.get("manifest");
  if (seeds == 1) {
    std::optional<harness::NetworkRun> run;
    if (restore)
      run.emplace(point, *restore);
    else
      run.emplace(point, cli.get_uint("seed"));
    const obs::TraceProvenance prov = announce_restore(*run, restore_path);
    drive_with_checkpoints(*run, cli.get("checkpoint"),
                           cli.get_uint("checkpoint-every"));
    const auto result = run->finish();
    std::printf("%s: injected %llu packets, delivered %zu, drained at cycle "
                "%llu\n",
                fabric.c_str(),
                static_cast<unsigned long long>(result.generated_packets),
                static_cast<std::size_t>(result.delivered_packets),
                static_cast<unsigned long long>(result.end_cycle));
    std::printf("latency cycles: mean %.1f  min %.0f  max %.0f",
                result.latency.mean(), result.latency.min(),
                result.latency.max());
    if (point.trace_in) std::printf("  p99 %.0f", result.p99_latency);
    std::printf("\n");
    if (!manifest_path.empty()) {
      obs::RunManifest manifest =
          cli::manifest("wormsched network", cli, run->original_seed());
      if (prov.restored) {
        manifest.add_config("restored_from", restore_path);
        manifest.add_config("restored_from_sha", prov.restored_from_sha);
      }
      manifest.add_counter("generated_packets",
                           static_cast<double>(result.generated_packets));
      manifest.add_counter("delivered_packets",
                           static_cast<double>(result.delivered_packets));
      manifest.add_counter("delivered_flits",
                           static_cast<double>(result.delivered_flits));
      manifest.add_counter("end_cycle",
                           static_cast<double>(result.end_cycle));
      manifest.add_counter("mean_latency", result.latency.mean());
      manifest.add_counter("p99_latency", result.p99_latency);
      manifest.add_counter("audit_checks",
                           static_cast<double>(result.audit_checks));
      manifest.violations = result.audit_violations;
      if (point.trace.enabled()) {
        manifest.trace_path = point.trace.chrome_path;
        manifest.trace_recorded = result.trace_recorded;
        manifest.trace_dropped = result.trace_dropped;
      }
      manifest.write_file(manifest_path);
    }
    if (point.audit) {
      std::printf("audit: %llu cycle checks, %llu ERR opportunities, "
                  "%llu violation(s)\n",
                  static_cast<unsigned long long>(result.audit_checks),
                  static_cast<unsigned long long>(result.audit_opportunities),
                  static_cast<unsigned long long>(result.audit_violations));
      if (result.audit_violations != 0) return 2;
    }
    return 0;
  }

  harness::SweepOptions sweep;
  sweep.base_seed = cli.get_uint("seed");
  sweep.seeds = seeds;
  sweep.jobs = cli.get_uint("jobs");
  const auto r = harness::sweep_network(
      point, sweep,
      [](const harness::NetworkScenarioResult& run,
         harness::SweepResult& out) {
        out.add("delivered", static_cast<double>(run.delivered_packets));
        out.add("drain_cycle", static_cast<double>(run.end_cycle));
        out.add("mean_latency", run.latency.mean());
        out.add("p99_latency", run.p99_latency);
      });
  std::printf("%s: %zu seeds, %zu worker(s)\n", fabric.c_str(), seeds,
              harness::sweep_workers(sweep));
  std::printf("delivered packets: %s\n", r.summary("delivered", 0).c_str());
  std::printf("drain cycle:       %s\n", r.summary("drain_cycle", 0).c_str());
  std::printf("latency cycles:    mean %s  p99 %s\n",
              r.summary("mean_latency", 1).c_str(),
              r.summary("p99_latency", 0).c_str());
  if (!manifest_path.empty()) {
    obs::RunManifest manifest =
        cli::manifest("wormsched network", cli, sweep.base_seed);
    manifest.add_counter("seeds", static_cast<double>(seeds));
    manifest.add_counter("mean_delivered_packets", r.mean("delivered"));
    manifest.add_counter("mean_drain_cycle", r.mean("drain_cycle"));
    manifest.add_counter("mean_latency", r.mean("mean_latency"));
    manifest.add_counter("mean_p99_latency", r.mean("p99_latency"));
    if (point.audit)
      manifest.violations = static_cast<std::uint64_t>(
          r.mean("audit_violations") * static_cast<double>(seeds));
    // Per-seed traces land next to the base path (trace.seedK.json).
    if (point.trace.enabled()) manifest.trace_path = point.trace.chrome_path;
    manifest.write_file(manifest_path);
  }
  if (point.audit) {
    std::printf("audit violations:  %s\n",
                r.summary("audit_violations", 0).c_str());
    if (r.mean("audit_violations") != 0.0) return 2;
  }
  return 0;
}

int cmd_soak(const CliParser& cli) {
  harness::NetworkScenarioConfig point = cli::fabric_config(cli, cli::kSoak);
  const std::string restore_path = cli.get("restore");
  const std::optional<SnapshotFile> restore =
      cli::restore_inputs(cli, cli::kSoak, point);
  if (point.faults.enabled && !restore)
    std::printf("%s\n", point.faults.describe().c_str());

  harness::SoakOptions options;
  options.cycles = cli.get_uint("cycles");
  options.checkpoint_every = cli.get_uint("checkpoint-every");
  options.checkpoint_path = cli.get("checkpoint");
  options.window.window = cli.get_uint("window");
  options.window.stable_windows = cli.get_uint("stable-windows");
  options.window.rel_tol = cli.get_double("rel-tol");

  const harness::SoakSummary summary =
      restore ? harness::resume_soak(point, *restore, options)
              : harness::run_soak(point, cli.get_uint("seed"), options);

  std::printf("%s: soaked to cycle %llu%s\n",
              describe_fabric(cli, point).c_str(),
              static_cast<unsigned long long>(summary.end_cycle),
              summary.restore_count > 0 ? " (resumed)" : "");
  std::printf("delivered %llu packets / %llu flits over %llu window(s)\n",
              static_cast<unsigned long long>(summary.delivered_packets),
              static_cast<unsigned long long>(summary.delivered_flits),
              static_cast<unsigned long long>(summary.windows_closed));
  if (summary.warmed_up) {
    std::printf("warm-up ended at cycle %llu; steady mean delay %.2f "
                "cycles, throughput %.4f flits/cycle (window stddev %.2f)\n",
                static_cast<unsigned long long>(summary.warmup_end),
                summary.steady_mean_delay, summary.steady_throughput,
                summary.window_mean_stddev);
  } else {
    std::printf("warm-up not reached within %llu windows\n",
                static_cast<unsigned long long>(summary.windows_closed));
  }
  if (summary.checkpoints_written > 0)
    std::printf("wrote %llu checkpoint(s) to %s\n",
                static_cast<unsigned long long>(summary.checkpoints_written),
                options.checkpoint_path.c_str());

  const std::string manifest_path = cli.get("manifest");
  if (!manifest_path.empty()) {
    obs::RunManifest manifest = cli::manifest(
        "wormsched soak", cli,
        restore ? point.traffic.seed : cli.get_uint("seed"));
    if (!restore_path.empty())
      manifest.add_config("restored_from", restore_path);
    manifest.add_counter("end_cycle", static_cast<double>(summary.end_cycle));
    manifest.add_counter("delivered_packets",
                         static_cast<double>(summary.delivered_packets));
    manifest.add_counter("delivered_flits",
                         static_cast<double>(summary.delivered_flits));
    manifest.add_counter("windows_closed",
                         static_cast<double>(summary.windows_closed));
    manifest.add_counter("warmed_up", summary.warmed_up ? 1.0 : 0.0);
    manifest.add_counter("warmup_end",
                         static_cast<double>(summary.warmup_end));
    manifest.add_counter("steady_mean_delay", summary.steady_mean_delay);
    manifest.add_counter("steady_throughput", summary.steady_throughput);
    manifest.violations = summary.audit_violations;
    manifest.write_file(manifest_path);
  }
  if (point.audit) {
    std::printf("audit: %llu violation(s)\n",
                static_cast<unsigned long long>(summary.audit_violations));
    if (summary.audit_violations != 0) return 2;
  }
  return 0;
}

struct Command {
  const char* name;
  unsigned bit;
  const char* summary;
  int (*run)(const CliParser& cli);
};

constexpr Command kCommands[] = {
    {"compare", cli::kCompare,
     "run several schedulers on one workload, print summary", cmd_compare},
    {"run", cli::kRun, "run one scheduler, print per-flow detail", cmd_run},
    {"gen-trace", cli::kGenTrace,
     "expand a workload spec into a trace (CSV or binary)", cmd_gen_trace},
    {"trace-gen", cli::kTraceGen,
     "synthesize a multi-tenant arrival trace (binary; elephant/mice "
     "mixes, tenant churn, incast bursts)",
     cmd_trace_gen},
    {"replay", cli::kReplay,
     "replay a trace (CSV or binary) through one scheduler", cmd_replay},
    {"network", cli::kNetwork,
     "drive a wormhole mesh/torus/fat-tree with synthetic traffic or a "
     "replayed trace (--trace-in)",
     cmd_network},
    {"soak", cli::kSoak,
     "long-horizon network run with windowed steady-state metrics and "
     "checkpointed segments",
     cmd_soak},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc < 2 ? "" : argv[1];
  if (command == "--help" || command == "-h") {
    std::printf("wormsched <command> [options]\n\ncommands:\n");
    for (const Command& c : kCommands)
      std::printf("  %-10s %s\n", c.name, c.summary);
    std::printf("\nrun 'wormsched <command> --help' for its options\n");
    return 0;
  }
  for (const Command& c : kCommands) {
    if (command != c.name) continue;
    // Bad options exit 2 inside parse_command; whatever the library
    // throws (unreadable or unwritable files, malformed snapshots and
    // traces) exits 2 here, with one line.
    try {
      return c.run(cli::parse_command(c.bit, c.summary, argc - 1, argv + 1));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "wormsched: %s\n", e.what());
      return 2;
    }
  }
  std::fprintf(stderr,
               "wormsched: %s (run 'wormsched --help' for the commands)\n",
               command.empty() ? "missing command"
                               : ("unknown command '" + command + "'").c_str());
  return 2;
}
