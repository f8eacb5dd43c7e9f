// Valid `wormsched` invocations pinned byte for byte.  Each case runs its
// commands from a fresh working directory with relative paths and a
// pinned WORMSCHED_GIT_SHA, then compares a 64-bit FNV-1a digest of the
// concatenated stdout and of every file the commands write against a
// constant.  Most constants were recorded from the CLI before its options
// moved into one table: a change to any subcommand's output, written
// files, option names or defaults (the manifests carry every option's
// effective value) fails here.  A constant moves only with an output that
// is meant to change, and CHANGES.md records the old and new output.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace {

struct GoldenCase {
  const char* name;
  std::vector<std::string> commands;  // run in order; stdout concatenated
  std::vector<std::pair<std::string, std::uint64_t>> digests;  // "stdout" too
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing output " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

const std::vector<GoldenCase>& cases() {
  // A case's index is part of its test name: append new cases at the end.
  static const std::vector<GoldenCase> kCases = {
      {"compare",
       {"compare --workload 'bern:0.02:u1-16*3' --cycles 5000 "
        "--schedulers ERR,DRR,FCFS"},
       {{"stdout", 0xd90eb32aec5c0c3cull}}},
      {"compare_seeds",
       {"compare --workload 'bern:0.02:u1-8*3' --cycles 3000 --seeds 3 "
        "--jobs 1 --schedulers err,drr --drain"},
       {{"stdout", 0x80ee89e8659bbe8aull}}},
      {"run_restore",
       {"run --workload 'bern:0.03:u1-8*3' --scheduler err --cycles 4000 "
        "--drain --audit --faults --fault-seed 3 --trace r.json "
        "--trace-csv r.csv --trace-events packet,opportunity "
        "--trace-capacity 4096 --manifest r1.json --checkpoint-every 1500 "
        "--checkpoint r.wsnp",
        "run --restore r.wsnp --manifest r2.json"},
       {{"stdout", 0x58365ed0c55d181aull},
        {"r.json", 0x2e05dcad0b587454ull},
        {"r.csv", 0x27729fb2eee93724ull},
        {"r1.json", 0x2367f4868ed6f2c4ull},
        {"r.wsnp", 0x1e41d0176143fd7cull},
        {"r2.json", 0x535e104acd737dc6ull}}},
      {"gen_trace_csv_replay",
       {"gen-trace --workload 'bern:0.02:u1-8*2' --cycles 3000 --out g.csv",
        "replay --trace g.csv --scheduler drr"},
       {{"stdout", 0x500bf0e4a12e2286ull}, {"g.csv", 0xdad610e01a6be9e2ull}}},
      {"gen_trace_binary_replay",
       {"gen-trace --cycles 2000 --seed 4 --format=binary --out g.wst",
        "replay --trace g.wst"},
       {{"stdout", 0x8ea6d2573d1b0c71ull}, {"g.wst", 0xc0444df4289a1232ull}}},
      {"trace_gen_network_trace_in",
       {"trace-gen --flows 16 --cycles 2000 --load 0.3 --seed 7 "
        "--churn-epoch 500 --incast-every 400 --out s.wst",
        "trace-gen --flows 40 --cycles 1000 --scenario=elephant-mice "
        "--out e.wst",
        "network --topo mesh4x4 --trace-in s.wst --pattern hotspot "
        "--arbiter rr --seed 3"},
       {{"stdout", 0x7d314b7414963bc5ull},
        {"s.wst", 0xa020e5932bc9f105ull},
        {"e.wst", 0x316d729811726cdaull}}},
      {"network_restore",
       {"network --topo mesh4x4 --cycles 2000 --rate 0.02 --pattern hotspot "
        "--audit --faults --fault-seed 7 --trace n.json --trace-csv n.csv "
        "--manifest n1.json --checkpoint-every 700 --checkpoint n.wsnp",
        "network --topo mesh4x4 --restore n.wsnp --manifest n2.json"},
       {{"stdout", 0x772872ff8cc0dbc1ull},
        {"n.json", 0x5873e7c7a6ad9e50ull},
        {"n.csv", 0x30e40ac9f2e1418cull},
        {"n1.json", 0xcab741f79fff40ecull},
        {"n.wsnp", 0x38320a2553a5f75cull},
        {"n2.json", 0x216dc49252dd6214ull}}},
      {"network_seeds",
       {"network --topo mesh3x3 --cycles 1500 --rate 0.02 --seeds 3 "
        "--jobs 1 --audit=full --trace w.json --manifest w.json.manifest"},
       {{"stdout", 0x9043132bb988f309ull},
        {"w.seed0.json", 0xa867c5d54a23c6e5ull},
        {"w.seed1.json", 0x36b29de25ff1330cull},
        {"w.seed2.json", 0x1a00d557657c0fe2ull},
        {"w.json.manifest", 0xe9f93cb60ac33bf3ull}}},
      {"network_fabric_options",
       {"network --topo torus3x3 --cycles 1500 --rate 0.03 --vcs 3 "
        "--buffers 6 --flow-control=onoff --on-high 5 --on-low 2 "
        "--buffer-model=finite --routing=dor --arbiter err-flits "
        "--pattern transpose --threads 2 --shards 3",
        "network --topo mesh4x4 --cycles 1500 --rate 0.03 "
        "--routing=westfirst --buffer-model=infinite --pattern bitcomp "
        "--arbiter fcfs --seed 5"},
       {{"stdout", 0x2daeffed52ceee6full}}},
      {"soak_fattree_resume",
       {"soak --topo fattree:4 --flow-control=onoff --routing=adaptive "
        "--cycles 3000 --horizon 6000 --window 1000 --rate 0.03 --seed 5 "
        "--checkpoint k.wsnp --manifest k1.json",
        "soak --topo fattree:4 --flow-control=onoff --routing=adaptive "
        "--cycles 6000 --window 1000 --restore k.wsnp --checkpoint k2.wsnp "
        "--manifest k2.json"},
       {{"stdout", 0x9bbf7da7c18d406bull},
        {"k.wsnp", 0x22487dfe38c33a5bull},
        {"k1.json", 0x88cb8ace706077c0ull},
        {"k2.wsnp", 0xdea2f18872f51cc2ull},
        {"k2.json", 0x5915ec75dcb7571dull}}},
      {"soak_traced",
       {"soak --topo mesh3x3 --cycles 2000 --window 500 --stable-windows 2 "
        "--rel-tol 0.5 --audit --faults --fault-window 32 --trace k.json "
        "--trace-csv k.csv --checkpoint-every 800 --checkpoint k.wsnp"},
       {{"stdout", 0xdd682bd4172d065dull},
        {"k.json", 0x0384071b022e14a4ull},
        {"k.csv", 0xde6419b20862a41cull},
        {"k.wsnp", 0x11f9785d8765201full}}},
      {"trace_in_restore",
       {"trace-gen --flows 24 --cycles 1500 --load 0.5 --seed 9 "
        "--incast-every 300 --incast-fanin 8 --out t.wst",
        "network --topo mesh4x4 --trace-in t.wst --pattern hotspot --audit "
        "--faults --fault-seed 5 --trace t.json --trace-csv t.csv "
        "--manifest t1.json --checkpoint-every 500 --checkpoint t.wsnp",
        "network --topo mesh4x4 --restore t.wsnp --manifest t2.json"},
       {{"stdout", 0x91d05e0aae45661dull},
        {"t.wst", 0x5d7b25ec42c55e09ull},
        {"t.json", 0xe7f81f445636833dull},
        {"t.csv", 0xab82373e1c2591d3ull},
        {"t1.json", 0xa24c61211d1c6bceull},
        {"t.wsnp", 0x38c939878e0d316full},
        {"t2.json", 0x45ef53f61b16274eull}}},
  };
  return kCases;
}

class CliGolden : public testing::TestWithParam<std::size_t> {};

TEST_P(CliGolden, OutputsMatchRecordedDigests) {
  const GoldenCase& c = cases()[GetParam()];
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) /
      (std::string("cli_golden_") + c.name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const std::string& args : c.commands) {
    const std::string command = "cd '" + dir.string() +
                                "' && WORMSCHED_GIT_SHA=cli-golden " +
                                WS_CLI + " " + args + " >> stdout";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << args;
    ASSERT_EQ(WEXITSTATUS(status), 0) << args;
  }
  for (const auto& [file, digest] : c.digests) {
    char actual[32];
    std::snprintf(actual, sizeof actual, "0x%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(slurp((dir / file).string()))));
    char expected[32];
    std::snprintf(expected, sizeof expected, "0x%016llx",
                  static_cast<unsigned long long>(digest));
    EXPECT_STREQ(actual, expected) << c.name << ": " << file;
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Cases, CliGolden,
                         testing::Range<std::size_t>(0, cases().size()),
                         [](const testing::TestParamInfo<std::size_t>& p) {
                           return std::string(cases()[p.param].name);
                         });

}  // namespace
