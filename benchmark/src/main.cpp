// wsbench — the repository's end-to-end and per-layer benchmark.
//
//   wsbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// Runs one workload (replay_mt, mesh_uniform, hotspot_audit,
// fattree_soak) for about S seconds of repetitions on inputs generated
// from seed N, checks every repetition's results, and prints as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Without --workload it runs every workload, each in its own child
// process, and prints their metrics together under "<workload>.<metric>".
// benchmark/README.md documents the workloads and metrics.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/perf_counters.hpp"
#include "tracer.hpp"
#include "workload.hpp"

extern char** environ;

namespace wsbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "replay_mt", "mesh_uniform", "hotspot_audit", "fattree_soak"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "replay_mt") return make_replay_workload();
  if (name == "mesh_uniform") return make_fabric_workload(false);
  if (name == "hotspot_audit") return make_fabric_workload(true);
  if (name == "fattree_soak") return make_soak_workload();
  return nullptr;
}

namespace {

namespace metrics = wormsched::metrics;

/// Set-up is sampled by probes run between repetitions (the same number
/// after each, so the samples mix cold and warm caches in a fixed
/// proportion), topped up to a minimum count; the median is reported.
constexpr std::size_t kProbesPerRep = 3;
constexpr std::size_t kMinSetupSamples = 15;

struct Options {
  std::string workload;  // empty: every workload, one child process each
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = "build-bench/work";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "wsbench: %s\n", message.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage_error("option " + key + " needs a value");
    }
    const char* begin = value.data();
    const char* end = begin + value.size();
    if (key == "--workload") {
      options.workload = value == "all" ? "" : value;
    } else if (key == "--seed") {
      const auto [ptr, ec] = std::from_chars(begin, end, options.seed);
      if (ec != std::errc() || ptr != end)
        usage_error("--seed: '" + value + "' is not an unsigned integer");
    } else if (key == "--seconds") {
      const auto [ptr, ec] = std::from_chars(begin, end, options.seconds);
      if (ec != std::errc() || ptr != end || !(options.seconds > 0.0) ||
          options.seconds > 3600.0)
        usage_error("--seconds: '" + value + "' is not in (0, 3600]");
    } else if (key == "--trace") {
      if (value != "0" && value != "1")
        usage_error("--trace: '" + value + "' is not 0 or 1");
      options.trace = value == "1";
    } else if (key == "--workdir") {
      options.workdir = value;
    } else {
      usage_error("unknown option " + key);
    }
  }
  if (!options.workload.empty() && !make_workload(options.workload))
    usage_error("unknown workload '" + options.workload + "'");
  return options;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           format_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(std::int64_t start) {
  return static_cast<double>(now_ns() - start) * 1e-9;
}

/// VmHWM of this process in MB (10^6 bytes).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
  }
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Tallies repetitions: the gate's failures and digest agreement.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::optional<std::uint64_t> digest;

  void add(const std::string& workload, const RepResult& rep) {
    attempted += rep.attempted;
    failed += rep.failed;
    for (const std::string& f : rep.failures)
      std::fprintf(stderr, "wsbench: FAIL %s\n", f.c_str());
    if (!digest) {
      digest = rep.digest;
    } else if (*digest != rep.digest) {
      ++failed;
      std::fprintf(stderr,
                   "wsbench: FAIL %s: digest %s differs from the first "
                   "repetition's %s\n",
                   workload.c_str(), hex64(rep.digest).c_str(),
                   hex64(*digest).c_str());
    }
  }
  [[nodiscard]] bool correct() const { return failed == 0 && attempted > 0; }
};

void print_rep(const char* kind, std::size_t index, const RepResult& rep) {
  std::printf("%s rep %zu: setup_s=%.6f run_s=%.6f ns_per_flit=%.2f "
              "sim_cycles=%llu flits=%llu digest=%s\n",
              kind, index, rep.setup_s, rep.run_s,
              ratio(rep.run_s * 1e9, static_cast<double>(rep.flits)),
              static_cast<unsigned long long>(rep.sim_cycles),
              static_cast<unsigned long long>(rep.flits),
              hex64(rep.digest).c_str());
}

int run_untraced(const Options& options, Workload& workload) {
  Verdict verdict;
  std::vector<RepResult> reps;
  std::vector<double> setups;
  // Peak RSS is read after the first repetition — what one CLI run of the
  // workload peaks at; later repetitions add allocator retention that
  // would tie the figure to how many repetitions fit in the run.
  double peak_mb = 0.0;
  const std::int64_t start = now_ns();
  while (reps.empty() || seconds_since(start) < options.seconds) {
    reps.push_back(workload.run(options.seed));
    if (reps.size() == 1) peak_mb = peak_rss_mb();
    print_rep("untraced", reps.size(), reps.back());
    verdict.add(options.workload, reps.back());
    for (std::size_t i = 0; i < kProbesPerRep; ++i)
      setups.push_back(workload.setup_probe(options.seed));
  }
  while (setups.size() < kMinSetupSamples)
    setups.push_back(workload.setup_probe(options.seed));

  std::vector<double> ns_per_flit;
  std::vector<double> walls;
  for (const RepResult& rep : reps) {
    ns_per_flit.push_back(
        ratio(rep.run_s * 1e9, static_cast<double>(rep.flits)));
    walls.push_back(rep.setup_s + rep.run_s);
  }
  const RepResult& first = reps.front();
  const double wall = median(walls);
  std::printf(
      "%s seed=%llu reps=%zu digest=%s | host: wall_s=%.4f "
      "cycles_per_s=%.1f | simulated: cycles=%llu flits=%llu "
      "latency_mean_cycles=%.4f latency_p99_cycles=%s\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      reps.size(), hex64(first.digest).c_str(), wall,
      ratio(static_cast<double>(first.sim_cycles), wall),
      static_cast<unsigned long long>(first.sim_cycles),
      static_cast<unsigned long long>(first.flits), first.latency_mean,
      first.latency_p99 ? format_number(*first.latency_p99).c_str() : "n/a");

  print_result(verdict.correct(), verdict.attempted, verdict.failed,
               {{"ns_per_flit", median(ns_per_flit), "ns"},
                {"setup_s", median(setups), "s"},
                {"peak_rss_mb", peak_mb, "MB"}});
  return verdict.correct() ? 0 : 1;
}

int run_traced(const Options& options, Workload& workload) {
  Tracer tracer;
  tracer.calibrate();
  LayerCounts counts;
  metrics::PerfCounters stages;
  Verdict verdict;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::vector<double> stage_walls;
  const std::int64_t start = now_ns();
  // Untraced, traced and stage-counter passes alternate so slow drift on
  // the host affects all three alike.
  while (traced_walls.empty() || seconds_since(start) < options.seconds) {
    std::int64_t t0 = now_ns();
    const RepResult plain = workload.run(options.seed);
    untraced_walls.push_back(seconds_since(t0));
    print_rep("untraced", untraced_walls.size(), plain);
    verdict.add(options.workload, plain);

    t0 = now_ns();
    const RepResult traced = workload.run_traced(options.seed, tracer, counts);
    traced_walls.push_back(seconds_since(t0));
    print_rep("traced", traced_walls.size(), traced);
    verdict.add(options.workload, traced);

    if (const auto wall = workload.run_stage_pass(options.seed, stages))
      stage_walls.push_back(*wall);
  }

  double traced_total = 0.0;
  for (const double w : traced_walls) traced_total += w;
  const double traced_ns = traced_total * 1e9;
  const auto self = [&](Site s) {
    return static_cast<double>(tracer.totals(s).self_ns);
  };
  const auto total = [&](Site s) {
    return static_cast<double>(tracer.totals(s).total_ns);
  };
  const auto calls = [&](Site s) {
    return static_cast<double>(tracer.totals(s).count);
  };
  const double reps = static_cast<double>(traced_walls.size());
  const double cycles = static_cast<double>(counts.cycles);
  const double ticks = static_cast<double>(counts.network_ticks);

  std::vector<Metric> m;
  m.push_back({"traffic.decode_mb_s",
               ratio(static_cast<double>(counts.decoded_bytes) / 1e6,
                     total(Site::kDecode) * 1e-9),
               "MB/s"});
  m.push_back({"traffic.source_ns_per_cycle",
               ratio(self(Site::kSourceTick), ticks), "ns"});
  for (const Site s : {Site::kEnqueue, Site::kPull}) {
    const std::string base = s == Site::kEnqueue ? "core.enqueue" : "core.pull";
    m.push_back({base + "_ns_p50", tracer.totals(s).self_hist.quantile(0.50),
                 "ns"});
    m.push_back({base + "_ns_p99", tracer.totals(s).self_hist.quantile(0.99),
                 "ns"});
    m.push_back({base + "_count", calls(s) / reps, "count"});
  }
  m.push_back({"metrics.observer_ns_per_flit",
               ratio(self(Site::kObserver), static_cast<double>(counts.flits)),
               "ns"});
  m.push_back({"metrics.activity_ns_per_cycle",
               ratio(self(Site::kActivity), cycles), "ns"});
  m.push_back({"metrics.activity_useful_ratio",
               ratio(static_cast<double>(counts.activity_changes),
                     static_cast<double>(counts.activity_records)),
               "ratio"});
  m.push_back({"metrics.activity_share",
               ratio(self(Site::kActivity), traced_ns), "ratio"});
  m.push_back({"sim.engine_self_share", ratio(self(Site::kEngine), traced_ns),
               "ratio"});
  m.push_back({"wormhole.tick_ns_per_cycle", ratio(self(Site::kTick), ticks),
               "ns"});
  m.push_back({"wormhole.tick_ns_per_flit_hop",
               ratio(self(Site::kTick), static_cast<double>(counts.flit_hops)),
               "ns"});
  m.push_back({"wormhole.tick_share", ratio(self(Site::kTick), traced_ns),
               "ratio"});
  m.push_back({"wormhole.live_routers_mean",
               ratio(static_cast<double>(counts.live_router_sum), ticks),
               "count"});
  const double stage_ticks = static_cast<double>(stages.grand_total_ticks());
  for (std::size_t i = 0; i < metrics::kNumStages; ++i) {
    const auto stage = static_cast<metrics::Stage>(i);
    m.push_back({std::string("wormhole.stage.") + metrics::stage_name(stage) +
                     "_share",
                 ratio(static_cast<double>(stages.total(stage).ticks),
                       stage_ticks),
                 "ratio"});
  }
  m.push_back({"wormhole.stage_pass_overhead",
               stage_walls.empty()
                   ? 0.0
                   : ratio(median(stage_walls), median(untraced_walls)),
               "ratio"});
  m.push_back({"validate.net_audit_ns_per_cycle",
               ratio(self(Site::kNetAudit), ticks), "ns"});
  m.push_back({"validate.full_rescans",
               static_cast<double>(counts.full_rescans) / reps, "count"});
  m.push_back({"validate.err_audit_ns_per_opportunity",
               ratio(self(Site::kErrAudit), calls(Site::kErrAudit)), "ns"});
  m.push_back({"harness.checkpoint_save_ms",
               ratio(total(Site::kCheckpointSave) * 1e-6,
                     static_cast<double>(counts.checkpoints)),
               "ms"});
  m.push_back({"harness.checkpoint_mb",
               ratio(static_cast<double>(counts.checkpoint_bytes) / 1e6,
                     static_cast<double>(counts.checkpoints)),
               "MB"});
  m.push_back({"harness.checkpoint_mb_s",
               ratio(static_cast<double>(counts.checkpoint_bytes) / 1e6,
                     total(Site::kCheckpointSave) * 1e-9),
               "MB/s"});
  m.push_back({"harness.restore_ms",
               ratio(total(Site::kRestore) * 1e-6,
                     static_cast<double>(counts.restores)),
               "ms"});
  // Self time per layer as a share of the traced wall time.
  for (const char* layer : {"traffic", "core", "metrics", "wormhole",
                            "validate", "harness"}) {
    double layer_self = 0.0;
    for (std::size_t i = 0; i < kNumSites; ++i) {
      const auto s = static_cast<Site>(i);
      if (std::string_view(site_layer(s)) == layer) layer_self += self(s);
    }
    m.push_back({std::string(layer) + ".self_share",
                 ratio(layer_self, traced_ns), "ratio"});
  }
  m.push_back({"trace_overhead",
               ratio(median(traced_walls), median(untraced_walls)), "ratio"});
  m.push_back({"trace.self_share",
               ratio(static_cast<double>(tracer.overhead_ns()), traced_ns),
               "ratio"});
  const double accounted_ratio =
      ratio(static_cast<double>(tracer.accounted_ns()), traced_ns);
  m.push_back({"trace.accounted_ratio", accounted_ratio, "ratio"});
  m.push_back({"trace.clock_cost_ns",
               static_cast<double>(tracer.clock_cost_ns()), "ns"});
  m.push_back({"trace.span_cost_ns",
               static_cast<double>(tracer.span_cost_ns()), "ns"});

  std::printf("%s seed=%llu traced reps=%zu clock_cost_ns=%lld "
              "span_cost_ns=%lld tracing_share=%.4f\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              traced_walls.size(),
              static_cast<long long>(tracer.clock_cost_ns()),
              static_cast<long long>(tracer.span_cost_ns()),
              ratio(static_cast<double>(tracer.overhead_ns()), traced_ns));
  for (std::size_t i = 0; i < kNumSites; ++i) {
    const auto s = static_cast<Site>(i);
    const Tracer::SiteTotals& t = tracer.totals(s);
    if (t.count == 0) continue;
    std::printf("span %-24s count=%llu total_ms=%.3f self_ms=%.3f "
                "self_share=%.4f p50_ns=%.1f p99_ns=%.1f\n",
                site_name(s), static_cast<unsigned long long>(t.count),
                static_cast<double>(t.total_ns) * 1e-6,
                static_cast<double>(t.self_ns) * 1e-6,
                ratio(static_cast<double>(t.self_ns), traced_ns),
                t.self_hist.quantile(0.50), t.self_hist.quantile(0.99));
  }
  // The spans must account for the traced run: the layers' self times
  // plus the tracing cost sum to its wall time within 5%.
  if (std::fabs(accounted_ratio - 1.0) > 0.05) {
    ++verdict.failed;
    std::fprintf(stderr,
                 "wsbench: FAIL %s: span self times sum to %.4f of the "
                 "traced wall time\n",
                 options.workload.c_str(), accounted_ratio);
  }
  print_result(verdict.correct(), verdict.attempted, verdict.failed, m);
  return verdict.correct() ? 0 : 1;
}

int run_one(const Options& options) {
  std::filesystem::create_directories(options.workdir);
  std::unique_ptr<Workload> workload = make_workload(options.workload);
  workload->prepare(options.seed, options.workdir);
  return options.trace ? run_traced(options, *workload)
                       : run_untraced(options, *workload);
}

/// The last stdout line of one child run, parsed back into its parts.
struct ChildResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Parses a line print_result wrote (its fixed layout, not general JSON).
std::optional<ChildResult> parse_result_line(const std::string& line) {
  std::size_t pos = 0;
  // Advances past the next occurrence of `token`; false if there is none.
  const auto skip_to = [&](std::string_view token) {
    const std::size_t at = line.find(token, pos);
    if (at == std::string::npos) return false;
    pos = at + token.size();
    return true;
  };
  const auto read_until = [&](char stop) {
    const std::size_t at = line.find(stop, pos);
    std::string text = line.substr(pos, at - pos);
    pos = at == std::string::npos ? line.size() : at;
    return text;
  };
  ChildResult r;
  if (line.rfind("{\"correct\": ", 0) != 0) return std::nullopt;
  r.correct = line.compare(12, 4, "true") == 0;
  if (!skip_to("\"attempted\": ")) return std::nullopt;
  r.attempted = std::strtoull(read_until(',').c_str(), nullptr, 10);
  if (!skip_to("\"failed\": ")) return std::nullopt;
  r.failed = std::strtoull(read_until(',').c_str(), nullptr, 10);
  if (!skip_to("\"metrics\": {")) return std::nullopt;
  while (skip_to("\"")) {
    Metric metric;
    metric.name = read_until('"');
    if (!skip_to("{\"value\": ")) return std::nullopt;
    metric.value = std::strtod(read_until(',').c_str(), nullptr);
    if (!skip_to("\"unit\": \"")) return std::nullopt;
    metric.unit = read_until('"');
    if (!skip_to("}")) return std::nullopt;
    r.metrics.push_back(std::move(metric));
  }
  return r;
}

/// Runs one workload in a child process (this binary again), echoing its
/// output; returns its parsed result line, or nullopt when it failed
/// without one.
std::optional<ChildResult> run_child(const char* self,
                                     const Options& options,
                                     const std::string& workload) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const std::string seed = std::to_string(options.seed);
  const std::string seconds = format_number(options.seconds);
  std::vector<std::string> args = {
      self,      "--workload", workload,
      "--seed",  seed,         "--seconds",
      seconds,   "--trace",    options.trace ? "1" : "0",
      "--workdir", options.workdir};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, self, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    throw std::runtime_error("cannot start " + std::string(self));
  }
  std::string last;
  std::string line;
  FILE* in = ::fdopen(fds[0], "r");
  if (in == nullptr) throw std::runtime_error("fdopen failed");
  char buf[4096];
  while (std::fgets(buf, sizeof buf, in) != nullptr) {
    line += buf;
    if (!line.empty() && line.back() == '\n') {
      std::fputs(line.c_str(), stdout);
      line.pop_back();
      last = line;
      line.clear();
    }
  }
  std::fclose(in);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::fflush(stdout);
  const bool exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  std::optional<ChildResult> result = parse_result_line(last);
  if (result && !exited_ok) result->correct = false;
  return result;
}

int run_all(const char* self, const Options& options) {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  for (const std::string& name : workload_names()) {
    const std::optional<ChildResult> r = run_child(self, options, name);
    if (!r) {
      std::fprintf(stderr, "wsbench: %s produced no result\n", name.c_str());
      return 1;
    }
    correct = correct && r->correct;
    attempted += r->attempted;
    failed += r->failed;
    for (const Metric& m : r->metrics)
      metrics.push_back({name + "." + m.name, m.value, m.unit});
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wsbench

int main(int argc, char** argv) {
  using namespace wsbench;
  const Options options = parse_options(argc, argv);
  // Checkpoints record the writing build's git SHA.  Pinning it keeps
  // every checkpoint from spawning `git rev-parse`, which would read
  // outside the benchmark's directory and add process-start noise.
  ::setenv("WORMSCHED_GIT_SHA", "wsbench", 1);
  try {
    if (options.workload.empty()) return run_all("/proc/self/exe", options);
    return run_one(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wsbench: %s\n", e.what());
    return 2;
  }
}
