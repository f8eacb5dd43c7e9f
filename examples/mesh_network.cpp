// Mesh network demo: a 4x4 wormhole mesh with ERR output arbitration.
//
//   ./build/examples/mesh_network [--pattern uniform|transpose|hotspot]
//                                 [--arbiter err-cycles] [--rate R]
//
// Drives the full router substrate (virtual channels, credit flow
// control, DOR routing) with a synthetic traffic pattern and reports
// throughput and latency, including the per-source breakdown that makes
// arbitration fairness visible under a hotspot.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "harness/checkpoint.hpp"
#include "wormhole/network.hpp"
#include "wormhole/patterns.hpp"

using namespace wormsched;
using namespace wormsched::wormhole;

int main(int argc, char** argv) {
  CliParser cli("4x4 wormhole mesh demo");
  cli.add_option("pattern", "uniform|transpose|bitcomp|hotspot|neighbor",
                 "hotspot");
  cli.add_option("arbiter", "err-cycles|err-flits|rr|fcfs", "err-cycles");
  cli.add_option("rate", "packets per node per cycle", "0.02");
  cli.add_option("cycles", "injection cycles", "50000");
  cli.add_option("torus", "1 = torus instead of mesh", "0");
  cli.parse(argc, argv);

  harness::NetworkScenarioConfig point;
  NetworkConfig& config = point.network;
  config.topo = cli.get_int("torus") != 0 ? TopologySpec::torus(4, 4)
                                          : TopologySpec::mesh(4, 4);
  config.router.arbiter = cli.get("arbiter");

  NetworkTrafficSource::Config& traffic_config = point.traffic;
  traffic_config.packets_per_node_per_cycle = cli.get_double("rate");
  traffic_config.lengths = traffic::LengthSpec::uniform(1, 16);
  traffic_config.inject_until = cli.get_uint("cycles");
  const std::string pattern = cli.get("pattern");
  if (pattern == "uniform") {
    traffic_config.pattern.kind = PatternSpec::Kind::kUniform;
  } else if (pattern == "transpose") {
    traffic_config.pattern.kind = PatternSpec::Kind::kTranspose;
  } else if (pattern == "bitcomp") {
    traffic_config.pattern.kind = PatternSpec::Kind::kBitComplement;
  } else if (pattern == "neighbor") {
    traffic_config.pattern.kind = PatternSpec::Kind::kNeighbor;
  } else {
    traffic_config.pattern.kind = PatternSpec::Kind::kHotspot;
    traffic_config.pattern.hotspot = NodeId(5);
    traffic_config.pattern.hotspot_fraction = 0.5;
  }
  // Injection, then a drain of up to 20x the injection window.
  point.drain_factor = 20;
  harness::NetworkRun run(point, traffic_config.seed);
  run.run_to_completion();
  const Cycle end = run.finish().end_cycle;
  const Network& net = run.network();

  std::printf("%s, %s arbitration, %s pattern\n",
              config.topo.describe().c_str(), cli.get("arbiter").c_str(),
              traffic_config.pattern.describe().c_str());
  std::printf("injected %llu packets, delivered %zu, drained at cycle %llu\n",
              static_cast<unsigned long long>(net.injected_packets()),
              net.delivered().size(), static_cast<unsigned long long>(end));
  const auto overall = net.latency_overall();
  std::printf("latency: mean %.1f, min %.0f, max %.0f cycles\n\n",
              overall.mean(), overall.min(), overall.max());

  AsciiTable table("per-source delivered flits and latency");
  table.set_header({"node", "delivered flits", "mean latency"});
  const auto flits = net.delivered_flits_by_flow(net.topology().num_nodes());
  for (std::uint32_t n = 0; n < net.topology().num_nodes(); ++n) {
    const auto lat = net.latency_by_source(NodeId(n));
    table.add_row(n, static_cast<long long>(flits[n]),
                  lat.count() == 0 ? std::string("-") : fixed(lat.mean(), 1));
  }
  table.print(std::cout);

  // Hottest output ports (per-router observability counters).
  struct Hot {
    std::uint32_t node;
    wormhole::Direction dir;
    wormhole::Router::PortStats stats;
  };
  std::vector<Hot> hot;
  for (std::uint32_t n = 0; n < net.topology().num_nodes(); ++n) {
    for (std::uint32_t d = 0; d < wormhole::kNumDirections; ++d) {
      const auto dir = static_cast<wormhole::Direction>(d);
      hot.push_back(Hot{n, dir, net.router(NodeId(n)).port_stats(dir)});
    }
  }
  std::sort(hot.begin(), hot.end(),
            [](const Hot& a, const Hot& b) { return a.stats.flits > b.stats.flits; });
  AsciiTable hot_table("hottest output ports");
  hot_table.set_header({"router", "port", "flits", "busy cycles",
                        "starved cycles", "packet grants"});
  for (std::size_t i = 0; i < std::min<std::size_t>(8, hot.size()); ++i) {
    const Hot& h = hot[i];
    hot_table.add_row(h.node, direction_name(h.dir),
                      static_cast<unsigned long long>(h.stats.flits),
                      static_cast<unsigned long long>(h.stats.busy),
                      static_cast<unsigned long long>(h.stats.starved),
                      static_cast<unsigned long long>(h.stats.grants));
  }
  hot_table.print(std::cout);
  return 0;
}
