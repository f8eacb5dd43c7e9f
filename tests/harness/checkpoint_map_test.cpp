// The describer's map of the committed goldens (common/archive.hpp).
//
// A checkpoint's layout is declared once, in each type's fields(); the
// describer is the restore with a recording sink.  Its map of
// golden_v2.wsnp (a network soak checkpoint), golden_scenario_v2.wsnp (a
// scenario checkpoint) and a trace-driven network checkpoint written by
// the test must cover every payload byte exactly once under distinct
// paths, or a field is missing from a declaration.  Every
// field that declares a range must reject the value one step past it:
// the golden with that one field patched throws a SnapshotError naming
// the field's path, and for the first such field of each declaring type
// `wormsched network|run --restore` exits 2 with one line.  A NaN fails
// every double range, so a NaN in a ranged field is rejected the same way.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/archive.hpp"
#include "common/snapshot.hpp"
#include "harness/checkpoint.hpp"
#include "harness/soak.hpp"
#include "traffic/binary_trace.hpp"
#include "traffic/trace_synth.hpp"
#include "../common/field_map.hpp"

namespace wormsched::harness {
namespace {

struct Golden {
  const char* name;
  SnapshotFile (*file)();
  const char* restore;  // the CLI restore command, before the file
};

/// The geometry golden_v2.wsnp was written with.
NetworkScenarioConfig geometry() {
  NetworkScenarioConfig config;
  config.network.topo = wormhole::TopologySpec::mesh(3, 3);
  return config;
}

/// This process's trace file: a restore of the trace checkpoint below
/// reloads it from there.
std::string trace_path() {
  return testing::TempDir() + "checkpoint_map_" + std::to_string(::getpid()) +
         ".wst";
}

/// A faulted, audited run on golden_v2.wsnp's geometry replaying a trace,
/// checkpointed mid-run.
SnapshotFile trace_checkpoint() {
  traffic::SynthSpec spec;
  spec.num_flows = 16;
  spec.horizon = 600;
  spec.load = 1.5;
  spec.incast_every = 200;
  spec.incast_fanin = 6;
  traffic::save_binary_trace_file(trace_path(),
                                  traffic::synthesize_trace(spec, 7));
  NetworkScenarioConfig config = geometry();
  config.trace_in = load_replay_trace(trace_path());
  config.faults = validate::FaultSpec::chaos(3);
  config.audit = true;
  NetworkRun run(config, /*seed=*/5);
  run.advance_to(300);
  return run.make_snapshot_file();
}

const Golden kNetwork{
    "Network", [] { return read_snapshot_file(WS_GOLDEN_SNAPSHOT); },
    " network --topo mesh3x3"};
const Golden kScenario{
    "Scenario", [] { return read_snapshot_file(WS_GOLDEN_SCENARIO); },
    " run"};
const Golden kTrace{"Trace", trace_checkpoint, " network --topo mesh3x3"};
/// The trailing SOAK section is read by the soak harness alone.
const char* const kSoakRestore = " soak --topo mesh3x3";

/// The value one step past `f`'s declared range, as the field's bits;
/// nullopt when the range reaches both ends of the field's width.
std::optional<std::uint64_t> one_step_past(const FieldInfo& f) {
  switch (f.kind) {
    case FieldInfo::Kind::kDouble: {
      const double lo = std::bit_cast<double>(f.lo);
      const double hi = std::bit_cast<double>(f.hi);
      const double inf = std::numeric_limits<double>::infinity();
      if (hi != inf)
        return std::bit_cast<std::uint64_t>(std::nextafter(hi, inf));
      if (lo != -inf)
        return std::bit_cast<std::uint64_t>(std::nextafter(lo, -inf));
      return std::nullopt;
    }
    case FieldInfo::Kind::kSigned: {
      const auto lo = static_cast<std::int64_t>(f.lo);
      const auto hi = static_cast<std::int64_t>(f.hi);
      if (hi != std::numeric_limits<std::int64_t>::max())
        return static_cast<std::uint64_t>(hi + 1);
      if (lo != std::numeric_limits<std::int64_t>::min())
        return static_cast<std::uint64_t>(lo - 1);
      return std::nullopt;
    }
    default: {
      const std::uint64_t max = f.width >= 8
                                    ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << (8 * f.width)) - 1;
      if (f.hi < max) return f.hi + 1;
      if (f.lo > 0) return f.lo - 1;
      return std::nullopt;
    }
  }
}

/// Restores `file` through the library's own readers: the soak harness
/// for the network golden (the run, then its trailing SOAK tracker; a
/// target of cycle 0 runs nothing), a ScenarioRun for the scenario one.
void restore(const SnapshotFile& file) {
  if (read_checkpoint_provenance(file).kind == "network") {
    SoakOptions options;
    options.cycles = 0;
    (void)resume_soak(geometry(), file, options);
  } else {
    const ScenarioRun run(ScenarioSpec{}, file);
  }
}

/// The declaring type of a field: its path without indices or its last
/// component ("NNET.routers[2].sa_pointer[0]" -> "NNET.routers.sa_pointer").
std::string declaring_type(const std::string& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] == '[') {
      i = path.find(']', i);
      continue;
    }
    out += path[i];
  }
  const std::size_t dot = out.rfind('.');
  return dot == std::string::npos ? out : out.substr(0, dot);
}

/// Exit status and stderr lines of `wormsched <restore> --restore <file>`,
/// the file written under a name of its own (the cases run in parallel).
struct CliOutcome {
  int code = -1;
  std::vector<std::string> err;
};
CliOutcome cli_restore(const char* restore, const SnapshotFile& file,
                       const std::string& name) {
  const std::string path =
      testing::TempDir() + "checkpoint_map_" + name + ".wsnp";
  const std::string err_path = path + ".stderr";
  write_snapshot_file(path, file.manifest_json, file.payload);
  const std::string command = std::string(WS_CLI) + restore +
                              " --restore " + path + " > /dev/null 2> " +
                              err_path;
  const int status = std::system(command.c_str());
  CliOutcome o;
  o.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream err(err_path);
  for (std::string line; std::getline(err, line);) o.err.push_back(line);
  std::remove(path.c_str());
  std::remove(err_path.c_str());
  return o;
}

class CheckpointMapTest : public testing::TestWithParam<Golden> {
 protected:
  void TearDown() override { std::remove(trace_path().c_str()); }
  void SetUp() override {
    file_ = GetParam().file();
    map_ = describe_checkpoint(file_, geometry());
  }

  SnapshotFile file_;
  FieldMap map_;
};

TEST_P(CheckpointMapTest, CoversEveryPayloadByteOnceUnderDistinctPaths) {
  const std::vector<std::uint8_t>& payload = file_.payload;
  std::vector<int> covered(payload.size(), 0);
  std::set<std::string> paths;
  for (const FieldInfo& f : map_) {
    EXPECT_TRUE(paths.insert(f.path).second) << "repeated path " << f.path;
    ASSERT_LE(f.offset + f.width, payload.size()) << f.path;
    for (std::size_t i = f.offset; i < f.offset + f.width; ++i) ++covered[i];
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < payload.size(); ++i)
    if (covered[i] != 1 && bad++ < 5)
      ADD_FAILURE() << "payload byte " << i << " is covered " << covered[i]
                    << " times";
  EXPECT_EQ(bad, 0u);
}

TEST_P(CheckpointMapTest, EveryDeclaredRangeRejectsOneStepPast) {
  // The unpatched golden restores, so each rejection below is the
  // patched field's own.
  ASSERT_NO_THROW(restore(file_));
  std::set<std::string> types;
  std::size_t ranged = 0;
  for (const FieldInfo& f : map_) {
    if (!f.ranged) continue;
    const std::optional<std::uint64_t> past = one_step_past(f);
    if (!past) continue;
    ++ranged;
    SnapshotFile patched = file_;
    test::set(patched.payload, map_, f.path, *past);
    try {
      restore(patched);
      ADD_FAILURE() << f.path << " accepted " << *past << " past "
                    << f.range();
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(f.path), std::string::npos)
          << e.what();
    }
    if (!types.insert(declaring_type(f.path)).second) continue;
    const CliOutcome o =
        cli_restore(f.path.starts_with("SOAK.") ? kSoakRestore
                                                : GetParam().restore,
                    patched, GetParam().name);
    EXPECT_EQ(o.code, 2) << f.path;
    ASSERT_EQ(o.err.size(), 1u) << f.path;
    EXPECT_EQ(o.err[0].rfind("wormsched: ", 0), 0u) << o.err[0];
  }
  EXPECT_GT(ranged, 0u);
  EXPECT_GT(types.size(), 1u);
  RecordProperty("ranged_fields", static_cast<int>(ranged));
  RecordProperty("declaring_types", static_cast<int>(types.size()));
}

INSTANTIATE_TEST_SUITE_P(Goldens, CheckpointMapTest,
                         testing::Values(kNetwork, kScenario, kTrace),
                         [](const testing::TestParamInfo<Golden>& p) {
                           return std::string(p.param.name);
                         });

TEST(CheckpointMapTrace, TraceSectionPinsTheFile) {
  // The trace section's count and CRC are ranged to the one trace that
  // matches, so the range sweep above patches both.
  const SnapshotFile file = trace_checkpoint();
  const FieldMap map = describe_checkpoint(file, geometry());
  for (const char* path : {"NTRC.arrivals", "NTRC.crc"}) {
    const FieldInfo& f = test::field_at(map, path);
    EXPECT_TRUE(f.ranged && f.lo == f.hi) << path;
  }
  EXPECT_EQ(test::field_at(map, "NTRC.crc").lo,
            load_replay_trace(trace_path())->crc);
  std::remove(trace_path().c_str());
}

TEST(CheckpointNanProbe, ErrArbiterDoublesExit2) {
  // Before these fields declared their ranges, a NaN in either restored
  // unchecked and aborted the resumed soak within 300 cycles (exit 134).
  const SnapshotFile golden = read_snapshot_file(WS_GOLDEN_SNAPSHOT);
  const FieldMap map = describe_checkpoint(golden, geometry());
  const std::string arbiter = "NNET.routers[0].outputs[0].arbiter.";
  for (const char* leaf : {"held", "max_sc"}) {
    const std::string path = arbiter + leaf;
    SnapshotFile patched = golden;
    test::set(patched.payload, map, path, ~std::uint64_t{0});  // a NaN
    try {
      restore(patched);
      ADD_FAILURE() << path << " accepted a NaN";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
    const CliOutcome o = cli_restore(kSoakRestore, patched, "nan_probe");
    EXPECT_EQ(o.code, 2) << path;
    ASSERT_EQ(o.err.size(), 1u) << path;
    EXPECT_EQ(o.err[0].rfind("wormsched: ", 0), 0u) << o.err[0];
  }
}

}  // namespace
}  // namespace wormsched::harness
