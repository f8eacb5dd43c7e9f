// Ablation A7: wormhole substrate sensitivity.
//
// Sweeps the router parameters the paper's context fixes implicitly —
// input VC buffer depth, number of VC classes, routing algorithm — under
// uniform random traffic near saturation, reporting delivered throughput
// and latency.  Establishes that the headline ERR results are not an
// artifact of one substrate configuration, and quantifies what the
// adaptive west-first extension buys.
//
// Each (config, rate) point runs --seeds independent instances through
// harness::sweep_network, fanned across --jobs workers; the default
// --seeds 1 reproduces the historical single-run tables exactly.
#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "harness/network_sweep.hpp"
#include "obs/manifest.hpp"

using namespace wormsched;
using namespace wormsched::harness;
using namespace wormsched::wormhole;

int main(int argc, char** argv) {
  CliParser cli("Ablation A7: latency-vs-load curves per routing/buffering");
  cli.add_option("cycles", "injection cycles per point", "30000");
  cli.add_option("seeds", "independent seeds per point", "1");
  cli.add_option("csv", "output CSV path", "network_sweep.csv");
  cli.add_option("jobs", "worker threads for the seeds (0 = all cores)", "1");
  cli.parse(argc, argv);

  const Cycle cycles = cli.get_uint("cycles");
  SweepOptions sweep;
  sweep.base_seed = 5;
  sweep.seeds = cli.get_uint("seeds");
  sweep.jobs = cli.get_uint("jobs");

  CsvWriter csv(cli.get("csv"));
  csv.header({"config", "rate", "flits_per_cycle", "mean_latency",
              "p99_latency"});

  struct ConfigCase {
    const char* name;
    NetworkConfig config;
  };
  std::vector<ConfigCase> cases;
  {
    NetworkConfig base;
    base.topo = TopologySpec::mesh(4, 4);
    base.router.buffer_depth = 2;
    cases.push_back({"mesh DOR depth=2", base});
    base.router.buffer_depth = 8;
    cases.push_back({"mesh DOR depth=8", base});
    base.routing = NetworkConfig::Routing::kWestFirst;
    cases.push_back({"mesh west-first depth=8", base});
    NetworkConfig torus;
    torus.topo = TopologySpec::torus(4, 4);
    torus.router.num_vcs = 2;
    torus.router.buffer_depth = 8;
    cases.push_back({"torus DOR depth=8", torus});
    // Flow-control schemes (PR 9): threshold signalling against the same
    // mesh, and the fat tree under both up/down variants.
    NetworkConfig onoff;
    onoff.topo = TopologySpec::mesh(4, 4);
    onoff.router.buffer_depth = 8;
    onoff.router.flow_control = FlowControl::kOnOff;
    cases.push_back({"mesh on/off depth=8", onoff});
    NetworkConfig fat;
    fat.topo = TopologySpec::fat_tree(4);
    fat.router.buffer_depth = 8;
    cases.push_back({"fattree:4 up/down depth=8", fat});
    fat.routing = NetworkConfig::Routing::kUpDownAdaptive;
    fat.router.flow_control = FlowControl::kOnOff;
    cases.push_back({"fattree:4 adaptive on/off depth=8", fat});
  }

  AsciiTable table(
      "A7: 4x4 network, uniform traffic, ERR arbitration — latency vs load");
  table.set_header({"config", "pkts/node/cyc", "delivered flits/cyc",
                    "mean latency", "p99 latency"});
  for (const auto& [name, config] : cases) {
    for (const double rate : {0.02, 0.05, 0.08, 0.11}) {
      NetworkScenarioConfig point;
      point.network = config;
      point.traffic.packets_per_node_per_cycle = rate;
      point.traffic.inject_until = cycles;
      point.traffic.lengths = traffic::LengthSpec::uniform(1, 12);
      point.traffic.pattern.kind = PatternSpec::Kind::kUniform;
      const SweepResult r = sweep_network(
          point, sweep,
          [cycles](const NetworkScenarioResult& run, SweepResult& out) {
            out.add("flits_per_cycle",
                    static_cast<double>(run.delivered_flits) /
                        static_cast<double>(cycles));
            out.add("mean_latency", run.latency.mean());
            out.add("p99_latency", run.p99_latency);
          });
      table.add_row(name, fixed(rate, 2),
                    fixed(r.mean("flits_per_cycle"), 2),
                    fixed(r.mean("mean_latency"), 1),
                    fixed(r.mean("p99_latency"), 0));
      csv.row(name, rate, r.mean("flits_per_cycle"), r.mean("mean_latency"),
              r.mean("p99_latency"));
    }
    table.add_rule();
  }
  table.print(std::cout);
  std::cout
      << "(the classic NoC shape: flat latency at low load, a knee near "
         "saturation; deeper\n buffers and the torus's wrap links push the "
         "knee right.  Note west-first's greedy\n credit heuristic loses to "
         "DOR under *balanced* uniform load — its win is routing\n around "
         "localized jams, shown in the adaptive-routing tests — the "
         "well-known\n determinism-vs-adaptivity trade)\n";
  std::printf("wrote %s\n", cli.get("csv").c_str());

  // Provenance manifest next to the CSV (docs/OBSERVABILITY.md).
  obs::RunManifest manifest;
  manifest.tool = "bench_network_sweep";
  manifest.seed = sweep.base_seed;
  for (const auto& [name, value] : cli.items())
    manifest.add_config(name, value);
  manifest.add_counter("config_cases", static_cast<double>(cases.size()));
  manifest.add_counter("seeds_per_point", static_cast<double>(sweep.seeds));
  const std::string manifest_path = cli.get("csv") + ".manifest.json";
  manifest.write_file(manifest_path);
  std::printf("wrote %s\n", manifest_path.c_str());
  return 0;
}
