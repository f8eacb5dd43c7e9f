// Regenerates the paper's Figure 6: average relative fairness of ERR and
// DRR versus the number of flows, with packet lengths exponentially
// distributed (lambda = 0.2) on [1, 64] flits.
//
// This is the experiment where ERR's 3m bound beats DRR's Max + 2m: under
// the exponential law large packets are rare, so the largest packet that
// *actually arrives early in a run* (m) is typically far below Max = 64,
// and DRR's Max-sized quantum lets a flow run further ahead per round.
// Statistic (Sec. 5): FM averaged over 10,000 uniformly random intervals
// of a 4M-cycle run, reported in bytes (flit = 8 bytes).
#include <cstdio>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/plot.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/paper_workloads.hpp"
#include "harness/scenario.hpp"
#include "metrics/fairness.hpp"

using namespace wormsched;

int main(int argc, char** argv) {
  CliParser cli("Figure 6: average relative fairness of ERR vs DRR");
  cli.add_option("cycles", "simulated cycles", "4000000");
  cli.add_option("intervals", "random intervals sampled", "10000");
  cli.add_option("flows-min", "minimum number of flows", "2");
  cli.add_option("flows-max", "maximum number of flows", "10");
  cli.add_option("seed", "base workload seed", "1");
  cli.add_option("seeds", "independent runs averaged per point", "3");
  cli.add_option("csv", "output CSV path", "fig6_relative_fairness.csv");
  cli.parse(argc, argv);

  const Cycle cycles = cli.get_uint("cycles");
  const std::size_t intervals = cli.get_uint("intervals");
  const std::uint64_t seed = cli.get_uint("seed");
  const std::uint64_t seeds = cli.get_uint("seeds");

  AsciiTable table(
      "Figure 6: average relative fairness (bytes) over " +
      std::to_string(intervals) + " random intervals x " +
      std::to_string(seeds) + " seeds, " + std::to_string(cycles) +
      " cycles, lengths TruncExp(0.2) on [1,64]");
  table.set_header({"# flows", "ERR", "DRR", "ERR/DRR"});
  CsvWriter csv(cli.get("csv"));
  csv.header({"flows", "err_bytes", "err_stddev", "drr_bytes", "drr_stddev"});

  std::vector<double> flow_counts;
  std::vector<double> err_series;
  std::vector<double> drr_series;
  for (std::size_t n = cli.get_uint("flows-min");
       n <= cli.get_uint("flows-max"); ++n) {
    RunningStat err_stat;
    RunningStat drr_stat;
    for (std::uint64_t k = 0; k < seeds; ++k) {
      const auto workload = harness::fig6_workload(n);
      const std::uint64_t run_seed = seed + n * 100 + k;
      const auto trace = traffic::generate_trace(workload, cycles, run_seed);
      harness::ScenarioConfig config;
      config.horizon = cycles;
      config.seed = run_seed;
      config.sched.drr_quantum = 64;  // DRR sized to Max (its O(1) regime)

      const auto err = harness::run_scenario("err", config, trace);
      const auto drr = harness::run_scenario("drr", config, trace);
      Rng rng_err(1234), rng_drr(1234);  // identical interval samples
      err_stat.add(metrics::average_relative_fairness(
                       err.service_log, err.activity, cycles, intervals,
                       rng_err) *
                   8.0);
      drr_stat.add(metrics::average_relative_fairness(
                       drr.service_log, drr.activity, cycles, intervals,
                       rng_drr) *
                   8.0);
    }
    const double err_arf = err_stat.mean();
    const double drr_arf = drr_stat.mean();
    table.add_row(n,
                  fixed(err_arf, 1) + " +/- " + fixed(err_stat.stddev(), 1),
                  fixed(drr_arf, 1) + " +/- " + fixed(drr_stat.stddev(), 1),
                  fixed(err_arf / drr_arf, 3));
    csv.row(n, err_arf, err_stat.stddev(), drr_arf, drr_stat.stddev());
    std::printf("flows=%zu  ERR=%.1f B  DRR=%.1f B\n", n, err_arf, drr_arf);
    flow_counts.push_back(static_cast<double>(n));
    err_series.push_back(err_arf);
    drr_series.push_back(drr_arf);
  }
  table.print(std::cout);
  std::cout << "\n";
  AsciiChart chart("Figure 6 shape: average relative fairness vs # flows");
  chart.set_x_label("# of flows");
  chart.set_y_label("average relative fairness (bytes)");
  chart.add_series("ERR", flow_counts, err_series);
  chart.add_series("DRR", flow_counts, drr_series);
  chart.print(std::cout);
  std::printf("wrote %s\n", cli.get("csv").c_str());
  return 0;
}
