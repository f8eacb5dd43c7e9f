// The CLI's exit contract, driven from its option table
// (tools/cli_options.hpp).  Every bad input exits exactly 2 (never by a
// signal) with exactly one stderr line; a bad option's line starts
// "option --<name>: ", a bad command, file, snapshot or trace's line
// starts "wormsched: ".  `--help` exits 0 everywhere.
//
// The sweep feeds every numeric row of every subcommand junk, an empty
// value, an overflow, one value past each finite bound, and NaN and
// infinity for doubles; each lower bound and each small upper bound must
// run (exit 0), so a range looser or tighter than the precondition it
// guards fails here.  One subprocess at a time, each under a timeout and
// with a short --cycles; no large legal value ever reaches --threads,
// --shards, --jobs, --seeds, --cycles, --horizon, --flows,
// --trace-capacity or --incast-fanin, which start threads, run long or
// allocate in proportion.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_options.hpp"

namespace wormsched::cli {
namespace {

/// A per-process scratch directory: ctest -j runs the suites of this
/// binary as separate processes at once.
const std::string& scratch() {
  static const std::string dir = [] {
    const std::string d = testing::TempDir() + "cli_options_" +
                          std::to_string(::getpid()) + "/";
    std::filesystem::create_directories(d);
    std::ofstream(d + "replay.csv") << "cycle,flow,length\n0,0,2\n3,1,1\n";
    std::ofstream(d + "header_only.csv") << "cycle,flow,length\n";
    return d;
  }();
  return dir;
}

struct Outcome {
  int code = -1;
  std::string out;
  std::vector<std::string> err;
};

/// Runs `wormsched <args>` in the scratch directory.
Outcome run_cli(const std::string& args) {
  const std::string& dir = scratch();
  const std::string command = "cd '" + dir + "' && timeout 120 " + WS_CLI +
                              " " + args + " > stdout.txt 2> stderr.txt";
  const int status = std::system(command.c_str());
  Outcome o;
  // The shell reports a CLI killed by a signal as exit code 128 + signal.
  o.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream out(dir + "stdout.txt");
  o.out.assign(std::istreambuf_iterator<char>(out),
               std::istreambuf_iterator<char>());
  std::ifstream err(dir + "stderr.txt");
  for (std::string line; std::getline(err, line);) o.err.push_back(line);
  return o;
}

/// Exit 2 with one stderr line starting with `prefix`.
void expect_rejected(const std::string& args, const std::string& prefix) {
  const Outcome o = run_cli(args);
  EXPECT_EQ(o.code, 2) << args;
  ASSERT_EQ(o.err.size(), 1u) << args;
  EXPECT_EQ(o.err[0].rfind(prefix, 0), 0u) << args << " -> " << o.err[0];
}

void expect_runs(const std::string& args) {
  const Outcome o = run_cli(args);
  EXPECT_EQ(o.code, 0) << args << " -> "
                       << (o.err.empty() ? "" : o.err[0]);
}

TEST(CliOptions, BadFabricAndSchedulerOptionsExit2WithOneLine) {
  struct CliCase {
    std::string args;
    std::string option;  // the option the stderr line must name
  };
  const std::vector<CliCase> cases = {
      {"network --cycles 100 --vcs 0", "vcs"},
      {"network --cycles 100 --vcs 13", "vcs"},
      {"network --cycles 100 --topo torus4x4 --vcs 1", "vcs"},
      {"network --cycles 100 --arbiter bogus", "arbiter"},
      {"network --cycles 100 --flow-control=onoff --on-low 8", "on-low"},
      {"run --cycles 100 --scheduler bogus", "scheduler"},
      {"compare --cycles 100 --schedulers err,bogus", "schedulers"},
      {"soak --cycles 100 --vcs 0", "vcs"},
      {"soak --cycles 100 --arbiter nope", "arbiter"},
      {"network --cycles 100 --pattern bogus", "pattern"},
      {"soak --cycles 100 --pattern bogus", "pattern"},
      {"network --cycles 100 --vcs 4294967297", "vcs"},
      {"network --cycles 100 --buffers 5000000000", "buffers"},
  };
  for (const CliCase& c : cases)
    expect_rejected(c.args, "option --" + c.option + ": ");
  // Control: the same harness sees a valid torus run exit 0.
  expect_runs("network --cycles 50 --topo torus4x4 --vcs 2");
}

// Invocations that used to abort (exit 134), exit 1 or quietly run
// something other than what was asked.
TEST(CliOptions, ListedBadInputsExit2WithOneLine) {
  const std::string net = "network --topo mesh2x2 --cycles 100 ";
  const std::string soak = "soak --topo mesh2x2 --cycles 100 --window 10 ";
  const std::string gen = "trace-gen --flows 4 --cycles 100 --out t.wst ";
  struct Row {
    std::string args;
    std::string prefix;
  };
  const std::vector<Row> rows = {
      // Unwritable outputs, found after the run's work is done.
      {"gen-trace --cycles 100 --out /nonexistent/dir/x.csv", "wormsched: "},
      {"gen-trace --cycles 100 --format=binary --out /nonexistent/dir/x.csv",
       "wormsched: "},
      {"trace-gen --flows 4 --cycles 100 --out /nonexistent/dir/x.wst",
       "wormsched: "},
      {net + "--manifest /nonexistent/dir/f", "wormsched: "},
      {net + "--trace /nonexistent/dir/f", "wormsched: "},
      {net + "--checkpoint /nonexistent/dir/f", "wormsched: "},
      {"run --cycles 100 --trace-csv /nonexistent/dir/t.csv", "wormsched: "},
      {soak + "--checkpoint /nonexistent/dir/c.wsnp", "wormsched: "},
      {net + "--seeds 2 --jobs 2 --trace /nonexistent/dir/t.json",
       "wormsched: "},
      // Values a library precondition rejects.
      {net + "--faults --fault-window 0", "option --fault-window: "},
      {net + "--faults --fault-burst-mult -3", "option --fault-burst-mult: "},
      {soak + "--window 0", "option --window: "},
      {soak + "--stable-windows 0", "option --stable-windows: "},
      {soak + "--rel-tol -1", "option --rel-tol: "},
      {soak + "--rel-tol nan", "option --rel-tol: "},
      {gen + "--load nan", "option --load: "},
      {gen + "--load 1e300", "option --load: "},
      {net + "--trace t.json --trace-capacity 1152921504606846976",
       "option --trace-capacity: "},
      {net + "--cycles 18446744073709551615", "option --cycles: "},
      {soak + "--horizon 18446744073709551615", "option --horizon: "},
      {"run --cycles 100 --workload 'bern:nan:u1-8'", "option --workload: "},
      {"network --topo mesh65536x65536 --cycles 1", "option --topo: "},
      // Weights the workload grammar takes but ERR and PERR do not.
      {"run --cycles 100 --workload 'bern:0.05:u1-4:0.5*2' --scheduler err",
       "option --workload: "},
      {"run --cycles 100 --workload 'bern:0.05:u1-4:0.5*2' --scheduler PERR",
       "option --workload: "},
      {"compare --cycles 100 --workload 'bern:0.05:u1-4:0.5*2'",
       "option --workload: "},
      {"compare --cycles 100 --workload 'bern:0.05:u1-4:0.5*2' "
       "--schedulers drr,perr",
       "option --workload: "},
      // Bad input that used to exit 1.
      {"run --cycles 100 --workload bogus", "option --workload: "},
      {"compare --cycles 100 --workload bogus", "option --workload: "},
      {"network --bogus 1", "option --bogus: "},
      {"replay --trace /nonexistent.wst", "wormsched: "},
      {"network --trace-in /nonexistent.wst", "wormsched: "},
      {gen + "--flows 0", "option --flows: "},
      {"run --cycles 100 --trace-events bogus", "option --trace-events: "},
      {net + "--trace-events bogus", "option --trace-events: "},
      {soak + "--trace-events bogus", "option --trace-events: "},
      {net + "--seeds 2 --restore x.wsnp", "option --restore: "},
      {net + "--seeds 2 --checkpoint c.wsnp", "option --checkpoint: "},
      {net + "--seeds 2 --checkpoint-every 10", "option --checkpoint-every: "},
      {"frobnicate", "wormsched: "},
      {"", "wormsched: "},
      {"replay --trace replay.csv --scheduler nope", "option --scheduler: "},
      {"replay --trace header_only.csv", "wormsched: "},
      // Runs that exited 0 without doing what was asked.
      {net + "--rate 2", "option --rate: "},
      {net + "--rate -1", "option --rate: "},
      {net + "--rate nan", "option --rate: "},
      {net + "--rate inf", "option --rate: "},
      {net + "--faults --fault-link-rate 2", "option --fault-link-rate: "},
      {net + "--faults --fault-link-rate -0.5", "option --fault-link-rate: "},
      {gen + "--elephant-fraction 2", "option --elephant-fraction: "},
      {gen + "--elephant-share -1", "option --elephant-share: "},
      {"compare --cycles 100 --schedulers ''", "option --schedulers: "},
      {"compare --cycles 100 --schedulers ',,'", "option --schedulers: "},
      {"compare --cycles 100 --seeds 0", "option --seeds: "},
      // The three former WILL_FAIL smoke tests, now held to exit 2.
      {"run --workload nope", "option --workload: "},
      {"network --topo mesh3x3 --restore no_such.wsnp", "wormsched: "},
  };
  for (const Row& r : rows) expect_rejected(r.args, r.prefix);
  // Disciplines that take any weight > 0 run the same workload.
  expect_runs("run --cycles 100 --workload 'bern:0.05:u1-4:0.5*2' "
              "--scheduler drr");
  expect_runs("compare --cycles 100 --workload 'bern:0.05:u1-4:0.5*2' "
              "--schedulers drr,wfq");
  expect_runs("trace-gen --flows 2 --cycles 0 --out empty.wst");
  expect_rejected("replay --trace empty.wst", "option --trace: ");
  expect_rejected("network --trace-in empty.wst", "option --trace-in: ");
}

// A choice flag reads its next token when that token is one of its
// choices, and any other bare token exits 2 naming it.  Before, `--audit
// off` still audited, `--audit full` ran (and recorded) incremental, and
// a stray topology name ran the default one.
TEST(CliOptions, ChoiceFlagsReadTheNextTokenAndStrayTokensExit2) {
  expect_rejected("network --cycles 10 mesh8x8",
                  "unexpected argument 'mesh8x8'");
  const std::string net = "network --topo mesh2x2 --cycles 200 --rate 0.02 ";
  const Outcome off = run_cli(net + "--audit off");
  EXPECT_EQ(off.code, 0);
  EXPECT_EQ(off.out.find("audit:"), std::string::npos) << off.out;
  const Outcome full = run_cli(net + "--audit full --manifest full.json");
  EXPECT_EQ(full.code, 0);
  EXPECT_NE(full.out.find("audit:"), std::string::npos) << full.out;
  std::ifstream manifest(scratch() + "full.json");
  const std::string json((std::istreambuf_iterator<char>(manifest)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"audit\": \"full\""), std::string::npos) << json;
}

/// The line of `out` that starts with `prefix` (empty when none does).
std::string line_starting(const std::string& out, const std::string& prefix) {
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind(prefix, 0) == 0) return line;
  return "";
}

// `network --trace-in` replaces the traffic law, so --rate and --cycles
// exit 2 naming themselves.  Every other option takes effect as in a
// law-driven run: the audit line prints, the manifest, trace and
// checkpoint are written, the checkpoint restores (under `soak` too,
// whose --rate and --horizon it then rejects), and --seeds sweeps.
TEST(CliOptions, TraceInRejectsOptionsItIgnores) {
  expect_runs("trace-gen --flows 8 --cycles 300 --load 0.3 --out in.wst");
  const std::string base = "network --topo mesh2x2 --trace-in in.wst ";
  expect_rejected(base + "--rate 0.5", "option --rate: ");
  expect_rejected(base + "--cycles 10", "option --cycles: ");
  const Outcome run =
      run_cli(base + "--pattern hotspot --seed 3 --vcs 3 --threads 2 "
                     "--faults --fault-seed 2 --audit=full --trace tr.json "
                     "--trace-csv tr.csv --manifest m.json "
                     "--checkpoint-every 100 --checkpoint c.wsnp");
  EXPECT_EQ(run.code, 0) << (run.err.empty() ? "" : run.err[0]);
  EXPECT_NE(run.out.find("faults(seed=2"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("audit: "), std::string::npos) << run.out;
  for (const char* file : {"tr.json", "tr.csv", "m.json", "c.wsnp"})
    EXPECT_TRUE(std::filesystem::exists(scratch() + file)) << file;
  const std::string summary =
      line_starting(run.out, "mesh 2x2, err-cycles, trace in.wst: ");
  EXPECT_FALSE(summary.empty()) << run.out;
  const Outcome restored =
      run_cli("network --topo mesh2x2 --vcs 3 --restore c.wsnp");
  EXPECT_EQ(restored.code, 0)
      << (restored.err.empty() ? "" : restored.err[0]);
  EXPECT_NE(restored.out.find("restored from c.wsnp"), std::string::npos);
  EXPECT_EQ(line_starting(restored.out, "mesh 2x2"), summary);
  const std::string soak = "soak --topo mesh2x2 --vcs 3 --restore c.wsnp ";
  const Outcome soaked = run_cli(soak + "--window 50");
  EXPECT_EQ(soaked.code, 0) << (soaked.err.empty() ? "" : soaked.err[0]);
  EXPECT_NE(soaked.out.find("mesh 2x2, err-cycles, trace in.wst: soaked"),
            std::string::npos)
      << soaked.out;
  const Outcome rate = run_cli(soak + "--rate 0.5");
  EXPECT_EQ(rate.code, 2);
  ASSERT_EQ(rate.err.size(), 1u);
  EXPECT_EQ(rate.err[0], "option --rate: '0.5' differs from the checkpoint's "
                         "replay of trace in.wst");
  expect_rejected(soak + "--horizon 10", "option --horizon: ");
  const Outcome sweep = run_cli(base + "--seeds 2 --jobs 2 --audit");
  EXPECT_EQ(sweep.code, 0) << (sweep.err.empty() ? "" : sweep.err[0]);
  EXPECT_NE(sweep.out.find("trace in.wst: 2 seeds"), std::string::npos)
      << sweep.out;
}

// A restore takes its traffic law (a run's workload, scheduler, horizon
// and drain), seed, faults and trace from the checkpoint.  An option
// fixing one of them that is given with --restore must carry the
// checkpoint's value, or exit 2 naming the option and both values.
TEST(CliOptions, RestoreRequiresTheCheckpointsValues) {
  expect_runs("network --topo mesh2x2 --cycles 200 --rate 0.05 --pattern "
              "hotspot --seed 4 --faults --fault-seed 6 --checkpoint h.wsnp");
  expect_runs("soak --topo mesh2x2 --cycles 200 --window 50 --rate 0.05 "
              "--seed 4 --checkpoint s.wsnp");
  expect_runs("run --workload bern:0.05:u1-4*2 --cycles 200 --seed 4 "
              "--faults --fault-seed 6 --checkpoint r.wsnp");
  const Outcome rerun = run_cli(
      "run --restore r.wsnp --workload bern:0.05:u1-4*2 --scheduler ERR "
      "--cycles 200 --seed 4 --drain=false --faults --fault-seed 6");
  EXPECT_EQ(rerun.code, 0) << (rerun.err.empty() ? "" : rerun.err[0]);
  EXPECT_NE(rerun.out.find("per-flow results (ERR)"), std::string::npos)
      << rerun.out;
  const Outcome same = run_cli(
      "network --topo mesh2x2 --restore h.wsnp --cycles 200 --rate 0.05 "
      "--pattern hotspot --seed 4 --faults --fault-seed 6");
  EXPECT_EQ(same.code, 0) << (same.err.empty() ? "" : same.err[0]);
  EXPECT_NE(same.out.find("mesh 2x2, err-cycles, hotspot("),
            std::string::npos)
      << same.out;
  const Outcome soak = run_cli("soak --topo mesh2x2 --window 50 --cycles 300 "
                               "--restore h.wsnp");
  EXPECT_EQ(soak.code, 0) << (soak.err.empty() ? "" : soak.err[0]);
  EXPECT_NE(soak.out.find("mesh 2x2, err-cycles, hotspot("),
            std::string::npos)
      << soak.out;
  const std::string net = "network --topo mesh2x2 --restore h.wsnp ";
  const std::string resume = "soak --topo mesh2x2 --restore s.wsnp ";
  const std::string run = "run --restore r.wsnp ";
  struct Row {
    std::string args;
    std::string line;  // the stderr line, or its start
  };
  const std::vector<Row> rows = {
      {net + "--pattern transpose",
       "option --pattern: 'transpose' differs from the checkpoint's hotspot"},
      {net + "--rate 0.5",
       "option --rate: '0.5' differs from the checkpoint's 0.05"},
      {net + "--seed 5", "option --seed: '5' differs from the checkpoint's 4"},
      {net + "--cycles 100",
       "option --cycles: '100' differs from the checkpoint's 200"},
      {net + "--faults=false",
       "option --faults: 'false' differs from the checkpoint's true"},
      {net + "--fault-seed 7",
       "option --fault-seed: '7' differs from the checkpoint's 6"},
      {net + "--fault-window 8", "option --fault-window: "},
      {net + "--fault-churn-rate 0.5", "option --fault-churn-rate: "},
      {net + "--trace-in replay.csv",
       "wormsched: trace replay.csv was given, but the checkpoint's run "
       "replays none"},
      {resume + "--rate 0.02",
       "option --rate: '0.02' differs from the checkpoint's 0.05"},
      {resume + "--seed 11", "option --seed: "},
      {resume + "--pattern neighbor", "option --pattern: "},
      {resume + "--horizon 100",
       "option --horizon: '100' differs from the checkpoint's 200"},
      {resume + "--faults", "option --faults: "},
      {run + "--workload 'bern:0.5:c1*9'",
       "option --workload: 'bern:0.5:c1*9' differs from the checkpoint's "
       "bern:0.05:u1-4*2"},
      {run + "--scheduler drr",
       "option --scheduler: 'drr' differs from the checkpoint's ERR"},
      {run + "--cycles 10",
       "option --cycles: '10' differs from the checkpoint's 200"},
      {run + "--seed 5", "option --seed: '5' differs from the checkpoint's 4"},
      {run + "--drain",
       "option --drain: 'true' differs from the checkpoint's false"},
      {run + "--faults=false",
       "option --faults: 'false' differs from the checkpoint's true"},
      {run + "--fault-seed 7",
       "option --fault-seed: '7' differs from the checkpoint's 6"},
      {run + "--fault-burst-mult 2", "option --fault-burst-mult: "},
  };
  for (const Row& r : rows) expect_rejected(r.args, r.line);
}

// A restored run's manifest records the seed of the checkpoint's run, not
// the default of the --seed it was not given.
TEST(CliOptions, RestoredManifestRecordsTheCheckpointsSeed) {
  expect_runs("network --topo mesh2x2 --cycles 200 --rate 0.05 --seed 4 "
              "--checkpoint seed_n.wsnp");
  expect_runs("soak --topo mesh2x2 --cycles 200 --window 50 --rate 0.05 "
              "--seed 4 --checkpoint seed_s.wsnp");
  expect_runs("run --workload bern:0.05:u1-4*2 --cycles 200 --seed 4 "
              "--checkpoint seed_r.wsnp");
  for (const std::string restore :
       {"network --topo mesh2x2 --restore seed_n.wsnp",
        "soak --topo mesh2x2 --window 50 --cycles 300 --restore seed_s.wsnp",
        "run --restore seed_r.wsnp"}) {
    expect_runs(restore + " --manifest seed.json");
    std::ifstream in(scratch() + "seed.json");
    const std::string manifest((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    EXPECT_NE(manifest.find("\n  \"seed\": 4,\n"), std::string::npos)
        << restore << " -> " << manifest;
  }
}

TEST(CliOptions, TopLevelHelpExits0) {
  for (const char* help : {"--help", "-h"}) {
    const Outcome o = run_cli(help);
    EXPECT_EQ(o.code, 0) << help;
    EXPECT_NE(o.out.find("soak"), std::string::npos) << help;
    EXPECT_TRUE(o.err.empty()) << help;
  }
}

// Rows sharing a name take disjoint subcommands, and every default lies
// in its row's range (defaults are not range-checked at run time).
TEST(CliOptions, TableRowsAreConsistent) {
  for (const Option& a : kOptions) {
    for (const Option& b : kOptions) {
      if (&a != &b && std::string(a.name) == b.name) {
        EXPECT_EQ(a.commands & b.commands, 0u) << a.name;
      }
    }
  }
  for (const unsigned command : {kCompare, kRun, kGenTrace, kTraceGen,
                                 kReplay, kNetwork, kSoak}) {
    std::vector<std::string> args = {"cmd"};
    for (const Option& o : kOptions)
      if ((o.commands & command) != 0 && *o.default_value != '\0' &&
          (o.kind == Kind::kUint || o.kind == Kind::kDouble))
        args.push_back(std::string("--") + o.name + "=" + o.default_value);
    std::vector<const char*> argv;
    for (const std::string& a : args) argv.push_back(a.c_str());
    EXPECT_EXIT(
        {
          (void)parse_command(command, "test", static_cast<int>(argv.size()),
                              argv.data());
          std::exit(0);
        },
        ::testing::ExitedWithCode(0), "")
        << command;
  }
}

struct Subcommand {
  const char* name;
  unsigned bit;
  const char* base;  // cheap, valid arguments every case builds on
};

constexpr Subcommand kSubcommands[] = {
    {"compare", kCompare,
     "--cycles 50 --schedulers err --workload bern:0.05:u1-4*2"},
    {"run", kRun, "--cycles 50 --workload bern:0.05:u1-4*2"},
    {"gen-trace", kGenTrace, "--cycles 50 --out g.csv"},
    {"trace-gen", kTraceGen, "--flows 4 --cycles 50 --out t.wst"},
    {"replay", kReplay, "--trace replay.csv"},
    {"network", kNetwork, "--topo mesh2x2 --cycles 50"},
    {"soak", kSoak, "--topo mesh2x2 --cycles 50 --window 10"},
};

void PrintTo(const Subcommand& sub, std::ostream* os) { *os << sub.name; }

/// Options that only take effect alongside another one.
std::string enabler(const std::string& name) {
  if (name.rfind("fault-", 0) == 0) return " --faults";
  if (name == "trace-capacity") return " --trace t.json";
  if (name == "checkpoint-every") return " --checkpoint c.wsnp";
  return "";
}

std::string exact(double v) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", v);
  return text;
}

class CliOptionSweep : public testing::TestWithParam<Subcommand> {};

TEST_P(CliOptionSweep, EveryOptionKeepsTheExitContract) {
  const Subcommand& sub = GetParam();
  const std::string base = std::string(sub.name) + " " + sub.base;
  {
    const Outcome o = run_cli(std::string(sub.name) + " --help");
    EXPECT_EQ(o.code, 0) << sub.name;
    EXPECT_NE(o.out.find("--"), std::string::npos) << sub.name;
    EXPECT_TRUE(o.err.empty()) << sub.name;
  }
  expect_runs(base);
  expect_rejected(base + " --bogus 1", "option --bogus: ");
  for (const Option& o : kOptions) {
    if ((o.commands & sub.bit) == 0) continue;
    const std::string name = o.name;
    const std::string with = base + enabler(name) + " --" + name;
    const std::string named = "option --" + name + ": ";
    if (o.kind == Kind::kFlag) {
      expect_rejected(with + "=maybe", named);
      continue;
    }
    if (o.kind == Kind::kChoice) {
      expect_rejected(with + "=bogus", named);
      continue;
    }
    if (o.kind == Kind::kText) {
      expect_rejected(base + " --" + name, named);  // no value
      continue;
    }
    std::vector<std::string> bad = {"x1", "''", "1x"};
    std::vector<std::string> legal;
    if (o.kind == Kind::kUint) {
      bad.push_back("-1");
      bad.push_back("99999999999999999999999");  // overflows 64 bits
      if (o.min > 0) bad.push_back(std::to_string(o.min - 1));
      if (o.max < std::numeric_limits<std::uint64_t>::max())
        bad.push_back(std::to_string(o.max + 1));
      legal.push_back(std::to_string(o.min));
      if (o.max <= 64) legal.push_back(std::to_string(o.max));
    } else {
      bad.insert(bad.end(), {"nan", "inf", "-inf", "1e999"});
      constexpr double kInf = std::numeric_limits<double>::infinity();
      bad.push_back(exact(std::nextafter(o.lo, -kInf)));
      if (o.hi < std::numeric_limits<double>::max())
        bad.push_back(exact(std::nextafter(o.hi, kInf)));
      if (o.hi <= 64) legal.push_back(exact(o.hi));
      legal.push_back(exact(o.lo));
    }
    for (const std::string& v : bad) expect_rejected(with + " " + v, named);
    for (const std::string& v : legal) expect_runs(with + " " + v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Subcommands, CliOptionSweep, testing::ValuesIn(kSubcommands),
    [](const testing::TestParamInfo<Subcommand>& p) {
      std::string name = p.param.name;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// --- The table's converters, in process -----------------------------------

CliParser parse(unsigned command, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "cmd");
  return parse_command(command, "test", static_cast<int>(argv.size()),
                       argv.data());
}

// --threads / --shards: 0 is not a wildcard (a fabric cannot tick with
// zero threads or shard domains); an unset --shards follows --threads.
TEST(NetworkParallelismDeathTest, ZeroThreadsExits) {
  EXPECT_EXIT((void)parse(kNetwork, {"--threads=0"}),
              ::testing::ExitedWithCode(2), "^option --threads: '0' is not");
}

TEST(NetworkParallelismDeathTest, ZeroShardsExits) {
  EXPECT_EXIT((void)parse(kNetwork, {"--threads=2", "--shards=0"}),
              ::testing::ExitedWithCode(2), "^option --shards: '0' is not");
}

TEST(NetworkParallelismDeathTest, NonNumericThreadsExits) {
  EXPECT_EXIT((void)parse(kSoak, {"--threads=four"}),
              ::testing::ExitedWithCode(2),
              "option --threads: 'four' is not a non-negative integer");
}

TEST(NetworkParallelismDeathTest, TrailingJunkShardsExits) {
  EXPECT_EXIT((void)parse(kNetwork, {"--shards=4x"}),
              ::testing::ExitedWithCode(2),
              "option --shards: '4x' is not a non-negative integer");
}

TEST(NetworkParallelism, DefaultsAreSerial) {
  const auto point = fabric_config(parse(kNetwork, {}), kNetwork);
  EXPECT_EQ(point.network.threads, 1u);
  EXPECT_EQ(point.network.shards, 1u);
}

TEST(NetworkParallelism, UnsetShardsFollowThreads) {
  const auto point = fabric_config(parse(kSoak, {"--threads=6"}), kSoak);
  EXPECT_EQ(point.network.threads, 6u);
  EXPECT_EQ(point.network.shards, 6u);
}

TEST(NetworkParallelism, ExplicitShardsOverride) {
  const auto point =
      fabric_config(parse(kNetwork, {"--threads=2", "--shards=8"}), kNetwork);
  EXPECT_EQ(point.network.threads, 2u);
  EXPECT_EQ(point.network.shards, 8u);
}

TEST(TraceCli, DefaultsAreDisabled) {
  const CliParser cli = parse(kRun, {});
  const obs::TraceRequest request = trace_request(cli);
  EXPECT_FALSE(request.enabled());
  EXPECT_EQ(request.mask, obs::kAllEventsMask);
  EXPECT_EQ(request.capacity, std::size_t{1} << 16);
  EXPECT_EQ(cli.get("manifest"), "");
}

TEST(TraceCli, FlagsFlowIntoRequest) {
  const CliParser cli =
      parse(kNetwork, {"--trace=t.json", "--trace-csv=t.csv",
                       "--trace-events=packet,violation",
                       "--trace-capacity=128", "--manifest=m.json"});
  const obs::TraceRequest request = trace_request(cli);
  EXPECT_TRUE(request.enabled());
  EXPECT_EQ(request.chrome_path, "t.json");
  EXPECT_EQ(request.timeline_csv, "t.csv");
  EXPECT_EQ(request.capacity, 128u);
  EXPECT_EQ(request.mask, obs::event_bit(obs::EventKind::kPacketEnqueue) |
                              obs::event_bit(obs::EventKind::kPacketDequeue) |
                              obs::event_bit(obs::EventKind::kViolation));
  EXPECT_EQ(cli.get("manifest"), "m.json");
}

TEST(TraceCli, BadEventListReportsError) {
  const CliParser cli = parse(kSoak, {"--trace-events=nonsense"});
  EXPECT_EXIT((void)trace_request(cli), ::testing::ExitedWithCode(2),
              "^option --trace-events: unknown event group 'nonsense'");
}

TEST(TraceCli, ManifestFromCliCapturesEffectiveConfig) {
  const obs::RunManifest m =
      manifest("wormsched test", parse(kRun, {"--cycles=50"}), 11);
  EXPECT_EQ(m.tool, "wormsched test");
  EXPECT_EQ(m.seed, 11u);
  bool saw_cycles = false;
  for (const auto& [key, value] : m.config) {
    if (key == "cycles") {
      saw_cycles = true;
      EXPECT_EQ(value, "50");
    }
  }
  EXPECT_TRUE(saw_cycles);
  EXPECT_FALSE(m.git_sha.empty());
}

}  // namespace
}  // namespace wormsched::cli
