#include "cli_options.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <utility>

#include "core/registry.hpp"
#include "harness/checkpoint.hpp"
#include "obs/trace_export.hpp"
#include "wormhole/network.hpp"
#include "wormhole/patterns.hpp"

namespace wormsched::cli {

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::stringstream ss(text);
  for (std::string item; std::getline(ss, item, sep);)
    if (!item.empty()) parts.push_back(item);
  return parts;
}

std::string number(double v) {
  char text[32];
  std::snprintf(text, sizeof text, "%g", v);
  return text;
}

bool in_range(const Option& o, const CliParser& cli) {
  if (o.kind == Kind::kUint) {
    const std::uint64_t v = cli.get_uint(o.name);
    return v >= o.min && v <= o.max;
  }
  const double v = cli.get_double(o.name);
  return std::isfinite(v) && v >= o.lo && v <= o.hi;
}

/// The row's legal range ("in [0, 1]", ">= 1", ...); empty when every
/// value of its type is legal.
std::string range_text(const Option& o) {
  if (o.kind == Kind::kUint) {
    constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
    if (o.max == kTop)
      return o.min == 0 ? "" : ">= " + std::to_string(o.min);
    return "in [" + std::to_string(o.min) + ", " + std::to_string(o.max) + "]";
  }
  if (o.kind != Kind::kDouble) return "";
  if (o.hi == std::numeric_limits<double>::max()) return ">= " + number(o.lo);
  return "in [" + number(o.lo) + ", " + number(o.hi) + "]";
}

/// One option a checkpoint fixes: its name, and the checkpoint's value or
/// "" when the value given agrees.
using Fixed = std::pair<const char*, std::string>;

template <typename Given, typename Saved>
std::string differ(const Given& given, const Saved& value) {
  if (given == value) return "";
  std::ostringstream text;  // a double prints as number() does: %g
  text << std::boolalpha << value;
  return text.str();
}

/// Exits 2 on the first of `rows`, or of the fault rows of `f` (the
/// checkpoint's fault spec, its seed raised by `seed_offset`), that was
/// given with another value than the checkpoint's.
void reject_changed(const CliParser& cli, std::vector<Fixed> rows,
                    const validate::FaultSpec& f, std::uint64_t seed_offset) {
  const validate::FaultSpec g = fault_spec(cli);
  rows.insert(
      rows.end(),
      {{"faults", differ(g.enabled, f.enabled)},
       {"fault-seed", differ(g.seed, f.seed - seed_offset)},
       {"fault-window", differ(g.window, f.window)},
       {"fault-link-rate", differ(g.link_stall_rate, f.link_stall_rate)},
       {"fault-link-cycles", differ(g.link_stall_cycles, f.link_stall_cycles)},
       {"fault-credit-rate", differ(g.credit_stall_rate, f.credit_stall_rate)},
       {"fault-credit-cycles",
        differ(g.credit_stall_cycles, f.credit_stall_cycles)},
       {"fault-churn-rate", differ(g.churn_rate, f.churn_rate)},
       {"fault-burst-rate", differ(g.burst_rate, f.burst_rate)},
       {"fault-burst-mult", differ(g.burst_multiplier, f.burst_multiplier)}});
  for (const auto& [name, value] : rows)
    if (cli.given(name) && !value.empty())
      CliParser::option_error(  // appended: GCC 12 -O3 false -Wrestrict
          name, std::string(1, '\'').append(cli.get(name)).append(
                    "' differs from the checkpoint's " + value));
}

void check_scheduler(const char* option, const std::string& name) {
  if (core::make_scheduler(name, core::SchedulerParams{}) != nullptr) return;
  std::string known;
  for (const auto n : core::scheduler_names()) {
    if (!known.empty()) known += '|';
    known.append(n);
  }
  CliParser::option_error(option, "'" + name + "' is not one of " + known);
}

}  // namespace

CliParser parse_command(unsigned command, const std::string& description,
                        int argc, const char* const* argv) {
  CliParser cli(description);
  for (const Option& o : kOptions) {
    if ((o.commands & command) == 0) continue;
    const std::string range = range_text(o);
    const std::string help = range.empty() ? o.help : o.help + ("; " + range);
    if (o.kind == Kind::kFlag)
      cli.add_flag(o.name, help);
    else if (o.kind == Kind::kChoice)
      cli.add_choice_flag(o.name, help, split(o.choices, '|'), o.bare,
                          o.default_value);
    else
      cli.add_option(o.name, help, o.default_value);
  }
  cli.parse(argc, argv);
  for (const Option& o : kOptions) {
    if ((o.commands & command) == 0 || !cli.given(o.name)) continue;
    const std::string value = cli.get(o.name);
    if ((o.kind == Kind::kUint || o.kind == Kind::kDouble) &&
        !in_range(o, cli))
      CliParser::option_error(o.name,
                              "'" + value + "' is not " + range_text(o));
  }
  return cli;
}

harness::WorkloadParse workload(const CliParser& cli) {
  std::string error;
  auto parsed = harness::parse_workload(cli.get("workload"), &error);
  if (!parsed) CliParser::option_error("workload", error);
  return std::move(*parsed);
}

std::vector<std::string> scheduler_list(const CliParser& cli) {
  const std::string text = cli.get("schedulers");
  if (text == "all") {
    std::vector<std::string> names;
    for (const auto n : core::scheduler_names()) names.emplace_back(n);
    return names;
  }
  const std::vector<std::string> names = split(text, ',');
  if (names.empty())
    CliParser::option_error("schedulers", "'" + text + "' names no scheduler");
  for (const auto& name : names) check_scheduler("schedulers", name);
  return names;
}

std::string scheduler(const CliParser& cli) {
  const std::string name = cli.get("scheduler");
  check_scheduler("scheduler", name);
  return name;
}

void check_weights(const harness::WorkloadParse& workload,
                   const std::vector<std::string>& schedulers) {
  for (const auto& name : schedulers)
    if (const auto error = core::weight_error(name, workload.weights))
      CliParser::option_error("workload", *error);
}

validate::FaultSpec fault_spec(const CliParser& cli) {
  validate::FaultSpec spec;
  spec.enabled = cli.get_flag("faults");
  spec.seed = cli.get_uint("fault-seed");
  spec.window = cli.get_uint("fault-window");
  spec.link_stall_rate = cli.get_double("fault-link-rate");
  spec.link_stall_cycles = cli.get_uint("fault-link-cycles");
  spec.credit_stall_rate = cli.get_double("fault-credit-rate");
  spec.credit_stall_cycles = cli.get_uint("fault-credit-cycles");
  spec.churn_rate = cli.get_double("fault-churn-rate");
  spec.burst_rate = cli.get_double("fault-burst-rate");
  spec.burst_multiplier = cli.get_double("fault-burst-mult");
  return spec;
}

obs::TraceRequest trace_request(const CliParser& cli) {
  obs::TraceRequest request;
  request.chrome_path = cli.get("trace");
  request.timeline_csv = cli.get("trace-csv");
  std::string error;
  const auto mask = obs::parse_event_mask(cli.get("trace-events"), &error);
  if (!mask) CliParser::option_error("trace-events", error);
  request.mask = *mask;
  request.capacity = static_cast<std::size_t>(cli.get_uint("trace-capacity"));
  return request;
}

obs::RunManifest manifest(const std::string& tool, const CliParser& cli,
                          std::uint64_t seed) {
  obs::RunManifest manifest;
  manifest.tool = tool;
  manifest.seed = seed;
  manifest.config = cli.items();
  return manifest;
}

harness::NetworkScenarioConfig fabric_config(const CliParser& cli,
                                             unsigned command) {
  harness::NetworkScenarioConfig point;
  wormhole::NetworkConfig& net = point.network;
  std::string error;
  const auto topo = wormhole::parse_topology_spec(cli.get("topo"), &error);
  if (!topo) CliParser::option_error("topo", error);
  net.topo = *topo;
  net.router.arbiter = cli.get("arbiter");
  net.router.num_vcs = cli.get_u32("vcs");
  net.router.buffer_depth = cli.get_u32("buffers");
  net.router.flow_control = cli.get("flow-control") == "onoff"
                                ? wormhole::FlowControl::kOnOff
                                : wormhole::FlowControl::kCredit;
  net.router.buffer_model = cli.get("buffer-model") == "infinite"
                                ? wormhole::BufferModel::kInfinite
                                : wormhole::BufferModel::kFinite;
  net.router.on_high = cli.get_u32("on-high");
  net.router.on_low = cli.get_u32("on-low");
  // adaptive is the topology's adaptive scheme: up/down on the fat tree,
  // west-first elsewhere (which check_config rejects off a mesh).
  using Routing = wormhole::NetworkConfig::Routing;
  const std::string routing = cli.get("routing");
  const bool fat_tree = net.topo.kind == wormhole::TopologySpec::Kind::kFatTree;
  net.routing = routing == "dor"                     ? Routing::kDor
                : routing == "adaptive" && fat_tree ? Routing::kUpDownAdaptive
                                                    : Routing::kWestFirst;
  net.threads = cli.get_u32("threads");
  net.shards = cli.given("shards") ? cli.get_u32("shards") : net.threads;
  if (const auto bad = wormhole::check_config(net))
    CliParser::option_error(bad->option, bad->message);

  point.traffic.packets_per_node_per_cycle = cli.get_double("rate");
  point.traffic.inject_until = cli.get_uint("cycles");
  if (command == kSoak && cli.get_uint("horizon") > 0)
    point.traffic.inject_until = cli.get_uint("horizon");
  if (command == kNetwork && !cli.get("trace-in").empty()) {
    const std::string path = cli.get("trace-in");
    for (const char* name : {"rate", "cycles"})
      if (cli.given(name))
        CliParser::option_error(name, "is not used with --trace-in");
    point.trace_in = harness::load_replay_trace(path);
    if (point.trace_in->trace.entries.empty())
      CliParser::option_error("trace-in", "'" + path + "' holds no arrivals");
  }
  using Pattern = wormhole::PatternSpec::Kind;
  constexpr std::pair<const char*, Pattern> kPatterns[] = {
      {"uniform", Pattern::kUniform},       {"transpose", Pattern::kTranspose},
      {"bitcomp", Pattern::kBitComplement}, {"hotspot", Pattern::kHotspot},
      {"neighbor", Pattern::kNeighbor}};
  const std::string pattern = cli.get("pattern");
  const auto* it =
      std::find_if(std::begin(kPatterns), std::end(kPatterns),
                   [&](const auto& p) { return pattern == p.first; });
  if (it == std::end(kPatterns))
    CliParser::option_error("pattern",
                            "'" + pattern +
                                "' is not one of "
                                "uniform|transpose|bitcomp|hotspot|neighbor");
  point.traffic.pattern.kind = it->second;
  point.faults = fault_spec(cli);
  const std::string audit = cli.get("audit");
  point.audit = audit != "off";
  point.audit_config.mode = audit == "full" ? validate::AuditMode::kFull
                                            : validate::AuditMode::kIncremental;
  point.trace = trace_request(cli);
  return point;
}

std::optional<SnapshotFile> restore_inputs(
    const CliParser& cli, unsigned command,
    harness::NetworkScenarioConfig& point) {
  const std::string path = cli.get("restore");
  if (path.empty()) return std::nullopt;
  SnapshotFile file = read_snapshot_file(path);
  const harness::NetworkScenarioConfig saved =
      harness::read_network_inputs(file, point);
  const wormhole::NetworkTrafficSource::Config& law = saved.traffic;
  const char* window = command == kSoak ? "horizon" : "cycles";
  // A trace-driven run has no law for --rate or the injection window.
  const auto law_differ = [&](auto given, auto value) {
    return saved.trace_in ? "replay of trace " + saved.trace_in->path
                          : differ(given, value);
  };
  // A faulted run seeds its schedule with --fault-seed plus its seed.
  reject_changed(
      cli,
      {{"seed", differ(cli.get_uint("seed"), law.seed)},
       {"rate", law_differ(point.traffic.packets_per_node_per_cycle,
                           law.packets_per_node_per_cycle)},
       {window, law_differ(cli.get_uint(window), law.inject_until)},
       {"pattern", point.traffic.pattern.kind == law.pattern.kind
                       ? ""
                       : law.pattern.describe()}},
      saved.faults, saved.faults.enabled ? law.seed : 0);
  point = saved;
  return file;
}

void check_restored_spec(const CliParser& cli,
                         const harness::ScenarioSpec& saved) {
  // Scheduler names are case-blind and have aliases: compare disciplines.
  const auto discipline = [](const std::string& name) {
    return std::string(core::make_scheduler(name, {})->name());
  };
  reject_changed(
      cli,
      {{"workload", differ(cli.get("workload"), saved.workload_text)},
       {"scheduler",
        differ(discipline(cli.get("scheduler")), discipline(saved.scheduler))},
       {"cycles", differ(cli.get_uint("cycles"), saved.config.horizon)},
       {"seed", differ(cli.get_uint("seed"), saved.config.seed)},
       {"drain", differ(cli.get_flag("drain"), saved.config.drain)}},
      saved.faults, 0);
}

}  // namespace wormsched::cli
