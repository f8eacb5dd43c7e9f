// The wormsched option table: every option of every subcommand, declared
// once with its kind, default, help, legal range or choices, and the
// subcommands that take it.  A name whose default or meaning differs
// between subcommands (`cycles`, `seed`, `topo`, `out`, `trace`) has one
// row per meaning, with disjoint subcommand sets.  Each range is the
// precondition the value reaches (a WS_CHECK, a probability, a type width
// or an allocation limit), named on the row; NaN and infinity fail every
// range.  Cross-field fabric rules stay in wormhole::check_config.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"
#include "harness/checkpoint.hpp"
#include "harness/network_sweep.hpp"
#include "harness/workload_parse.hpp"
#include "obs/manifest.hpp"
#include "obs/trace_event.hpp"
#include "validate/faults.hpp"
#include "wormhole/router.hpp"

namespace wormsched::cli {

/// Subcommand bits: a row's `commands` is the set of subcommands taking it.
enum Command : unsigned {
  kCompare = 1u << 0,
  kRun = 1u << 1,
  kGenTrace = 1u << 2,
  kTraceGen = 1u << 3,
  kReplay = 1u << 4,
  kNetwork = 1u << 5,
  kSoak = 1u << 6,
};

enum class Kind { kText, kFlag, kChoice, kUint, kDouble };

struct Option {
  const char* name;
  unsigned commands;
  Kind kind;
  const char* default_value;
  const char* help;
  std::uint64_t min = 0;  // kUint: legal values are [min, max]
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  double lo = 0.0;  // kDouble: legal values are [lo, hi]
  double hi = std::numeric_limits<double>::max();
  const char* choices = "";  // kChoice: '|'-separated
  const char* bare = "";     // kChoice: what a value-less --NAME means
};

constexpr Option text(const char* name, unsigned commands, const char* value,
                      const char* help) {
  return {name, commands, Kind::kText, value, help};
}
constexpr Option flag(const char* name, unsigned commands, const char* help) {
  return {name, commands, Kind::kFlag, "false", help};
}
constexpr Option choice(const char* name, unsigned commands,
                        const char* choices, const char* bare,
                        const char* value, const char* help) {
  return {name, commands, Kind::kChoice, value, help, 0, 0, 0, 0,
          choices, bare};
}
constexpr Option integer(
    const char* name, unsigned commands, const char* value, const char* help,
    std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  return {name, commands, Kind::kUint, value, help, min, max};
}
constexpr Option real(const char* name, unsigned commands, const char* value,
                      const char* help, double lo,
                      double hi = std::numeric_limits<double>::max()) {
  return {name, commands, Kind::kDouble, value, help, 0, 0, lo, hi};
}

inline constexpr unsigned kFabric = kNetwork | kSoak;
inline constexpr unsigned kTraced = kRun | kNetwork | kSoak;
inline constexpr std::uint64_t kU32Max =
    std::numeric_limits<std::uint32_t>::max();
/// NetworkRun stops draining at inject_until x drain_factor (50), which
/// must fit a Cycle.
inline constexpr std::uint64_t kInjectMax = kCycleMax / 50;
/// The trace ring is one std::vector<TraceEvent>: past this length it
/// throws std::length_error.
inline constexpr std::uint64_t kTraceCapacityMax =
    std::numeric_limits<std::ptrdiff_t>::max() / sizeof(obs::TraceEvent);

inline constexpr Option kOptions[] = {
    // --- Workloads and scheduler runs ---------------------------------
    text("workload", kCompare | kRun | kGenTrace, "bern:0.01:u1-64*4",
         "workload spec (grammar in harness/workload_parse.hpp)"),
    integer("cycles", kCompare | kRun, "200000", "simulated cycles"),
    integer("cycles", kGenTrace | kTraceGen, "100000", "injection horizon"),
    integer("cycles", kNetwork, "50000", "injection cycles", 0, kInjectMax),
    integer("cycles", kSoak, "5000000", "cycle target for this segment", 0,
            kInjectMax),
    integer("seed", kCompare | kRun | kGenTrace | kTraceGen, "1",
            "trace seed (base seed when sweeping)"),
    integer("seed", kFabric, "99", "traffic seed (base seed when sweeping)"),
    // WS_CHECK(seeds > 0) in both sweeps.
    integer("seeds", kCompare | kNetwork, "1",
            "seeds to average over (1 = single run)", 1),
    // A sweep's workers are TickTeam lanes, a 32-bit count.
    integer("jobs", kCompare | kNetwork, "1",
            "worker threads for multi-seed sweeps (0 = all cores)", 0,
            kU32Max),
    text("schedulers", kCompare, "all", "comma-separated list, or all"),
    flag("drain", kCompare | kRun, "serve out all queues after the horizon"),
    text("scheduler", kRun | kReplay, "err", "scheduler name"),
    choice("audit", kTraced, "incremental|full|off", "incremental", "off",
           "run the ERR auditor (network and soak add the conservation "
           "auditor, full-rescanning every check in full mode)"),

    // --- Trace generation and replay ----------------------------------
    text("out", kGenTrace, "trace.csv", "output trace path"),
    choice("format", kGenTrace, "csv|binary", "binary", "csv",
           "output encoding"),
    // WS_CHECK(num_flows > 0) in synthesize_trace; flow ids are 32-bit.
    integer("flows", kTraceGen, "100000", "number of flows", 1, kU32Max),
    // WS_CHECK(load > 0) in synthesize_trace; Rng::poisson returns its
    // count as a u64, so a class's mean arrivals per cycle stays < 2^63.
    real("load", kTraceGen, "0.9", "aggregate offered load, flits/cycle",
         std::numeric_limits<double>::denorm_min(), 0x1p63),
    // Fractions and shares are probabilities.
    real("elephant-fraction", kTraceGen, "0.1",
         "share of flows that are elephants", 0, 1),
    real("elephant-share", kTraceGen, "0.5", "share of load elephants carry",
         0, 1),
    real("active-fraction", kTraceGen, "0.25",
         "eligible share of each class within a churn epoch", 0, 1),
    integer("churn-epoch", kTraceGen, "0",
            "cycles per tenant-churn epoch (0 = no churn)"),
    integer("incast-every", kTraceGen, "0",
            "cycles between incast bursts (0 = no bursts)"),
    integer("incast-fanin", kTraceGen, "32", "flows firing together per burst"),
    choice("scenario", kTraceGen, "none|incast|elephant-mice", "incast",
           "none",
           "preset overriding the knobs above: frequent wide incast bursts, "
           "or a few elephants carrying most of the load"),
    text("out", kTraceGen, "trace.wst", "output binary trace path"),
    text("trace", kReplay, "trace.csv", "input trace (CSV or binary)"),

    // --- Fabric -------------------------------------------------------
    text("topo", kNetwork, "mesh4x4",
         "mesh<W>x<H>, torus<W>x<H> or fattree:<K>"),
    text("topo", kSoak, "mesh8x8", "mesh<W>x<H>, torus<W>x<H> or fattree:<K>"),
    text("arbiter", kFabric, "err-cycles", "err-cycles|err-flits|rr|fcfs"),
    text("pattern", kFabric, "uniform",
         "uniform|transpose|bitcomp|hotspot|neighbor"),
    // A per-cycle injection probability.
    real("rate", kNetwork | kSoak, "0.01", "packets per node per cycle", 0, 1),
    // check_router_config: a router has at most 64 port/VC units.
    integer("vcs", kFabric, "2", "virtual channel classes", 1,
            wormhole::Router::kMaxUnits / wormhole::kNumDirections),
    // check_router_config: depth 0 deadlocks; RouterConfig is 32-bit.
    integer("buffers", kFabric, "8", "flit slots per input VC", 1, kU32Max),
    choice("flow-control", kFabric, "credit|onoff", "onoff", "credit",
           "per-VC credits or on/off (threshold) signalling"),
    choice("buffer-model", kFabric, "finite|infinite", "infinite", "finite",
           "finite input buffers, or infinite (no backpressure)"),
    integer("on-high", kFabric, "0",
            "on/off: occupancy that sends off (0 = auto)", 0, kU32Max),
    integer("on-low", kFabric, "0",
            "on/off: occupancy that sends on (0 = auto)", 0, kU32Max),
    choice("routing", kFabric, "dor|westfirst|adaptive", "adaptive", "dor",
           "deterministic, west-first (mesh), or the topology's adaptive "
           "scheme (west-first on mesh, up/down on fattree)"),
    // check_config: a fabric ticks on >= 1 thread and >= 1 shard domain.
    integer("threads", kFabric, "1",
            "worker threads for the sharded network tick", 1, kU32Max),
    integer("shards", kFabric, "",
            "shard domains for the network tick (default: --threads)", 1,
            kU32Max),
    text("trace-in", kNetwork, "",
         "replay an arrival trace (binary or CSV) in place of --rate and "
         "--cycles: flow -> source node, destinations from --pattern"),
    integer("horizon", kSoak, "0",
            "injection horizon (0 = --cycles); the first segment fixes it",
            0, kInjectMax),
    // WindowedStats: WS_CHECK window > 0, stable_windows > 0, rel_tol >= 0.
    integer("window", kSoak, "10000", "steady-state window width in cycles",
            1),
    integer("stable-windows", kSoak, "5",
            "consecutive stable windows that end warm-up", 1),
    real("rel-tol", kSoak, "0.10",
         "relative mean-delay tolerance for window stability", 0),

    // --- Fault injection ----------------------------------------------
    flag("faults", kTraced, "enable deterministic fault injection"),
    integer("fault-seed", kTraced, "1", "fault schedule seed"),
    // WS_CHECK(window >= 1) in ScheduledFaults and apply_trace_faults.
    integer("fault-window", kTraced, "64", "fault epoch length in cycles", 1),
    // The four fault rates are per-epoch probabilities.
    real("fault-link-rate", kTraced, "0.1", "P(epoch has a fabric link stall)",
         0, 1),
    integer("fault-link-cycles", kTraced, "4", "link stall length in cycles"),
    real("fault-credit-rate", kTraced, "0.05",
         "P(node's credit returns starve per epoch)", 0, 1),
    integer("fault-credit-cycles", kTraced, "16", "credit starvation window"),
    real("fault-churn-rate", kTraced, "0.1", "P(source muted per epoch)", 0,
         1),
    real("fault-burst-rate", kTraced, "0.05", "P(source bursts per epoch)", 0,
         1),
    // WS_CHECK(burst_multiplier >= 0) in ScheduledFaults.
    real("fault-burst-mult", kTraced, "4", "burst injection multiplier", 0),

    // --- Tracing, manifests and checkpoints ---------------------------
    text("trace", kTraced, "", "write a chrome://tracing JSON here"),
    text("trace-csv", kTraced, "", "write the per-flow timeline CSV here"),
    text("trace-events", kTraced, "all",
         "event groups to record: packet, opportunity, round, flit, stall, "
         "fault, violation, all"),
    integer("trace-capacity", kTraced, "65536",
            "events kept in the trace ring (oldest dropped first)", 0,
            kTraceCapacityMax),
    text("manifest", kTraced, "", "write a run-manifest JSON here"),
    text("checkpoint", kTraced, "", "write a snapshot here when the run ends"),
    integer("checkpoint-every", kTraced, "0",
            "also write the snapshot every N cycles (0 = only at end)"),
    text("restore", kTraced, "", "continue from a --checkpoint snapshot"),
};

/// Declares `command`'s rows, parses argv (exit 0 on --help, 2 on a bad
/// option) and checks every numeric value given against its row's range.
[[nodiscard]] CliParser parse_command(unsigned command,
                                      const std::string& description,
                                      int argc, const char* const* argv);

// Converters from parsed options to library values; each exits 2 through
// CliParser::option_error on a value the library would reject.
[[nodiscard]] harness::WorkloadParse workload(const CliParser& cli);
/// --schedulers: "all" or a non-empty comma list of registry names.
[[nodiscard]] std::vector<std::string> scheduler_list(const CliParser& cli);
[[nodiscard]] std::string scheduler(const CliParser& cli);
/// Exits 2 naming --workload when one of `schedulers` cannot take the
/// workload's weights (core::weight_error).
void check_weights(const harness::WorkloadParse& workload,
                   const std::vector<std::string>& schedulers);
[[nodiscard]] validate::FaultSpec fault_spec(const CliParser& cli);
[[nodiscard]] obs::TraceRequest trace_request(const CliParser& cli);
/// Tool, seed, and every option's raw effective value (name order).
[[nodiscard]] obs::RunManifest manifest(const std::string& tool,
                                        const CliParser& cli,
                                        std::uint64_t seed);
/// The run `network` and `soak` (`command`) share: the fabric (judged by
/// wormhole::check_config), traffic injecting for the injection window
/// (network's --cycles, soak's --horizon or else --cycles) or replaying
/// network's --trace-in (which rejects --rate, --cycles and an empty
/// trace), faults, audit mode and trace request.
[[nodiscard]] harness::NetworkScenarioConfig fabric_config(
    const CliParser& cli, unsigned command);
/// --restore: the checkpoint, with the run inputs it fixes put into
/// `point`.  --seed, --rate, --pattern, the injection window, --faults and
/// each --fault-* given with another value than the checkpoint's exit 2.
[[nodiscard]] std::optional<SnapshotFile> restore_inputs(
    const CliParser& cli, unsigned command,
    harness::NetworkScenarioConfig& point);
/// `run --restore`: --workload, --scheduler, --cycles, --seed, --drain,
/// --faults and each --fault-* given with another value than the one in
/// `saved`, the restored run's spec, exit 2 as restore_inputs' options do.
void check_restored_spec(const CliParser& cli,
                         const harness::ScenarioSpec& saved);

}  // namespace wormsched::cli
