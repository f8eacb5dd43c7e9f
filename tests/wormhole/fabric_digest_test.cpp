// Pinned result digests for the fabric.  Each case runs one network with
// the full-rescan NetworkAuditor attached, requires zero violations, and
// folds everything the run produced into a 64-bit FNV-1a digest: the
// delivered-packet log in delivery order (id, flow, source, dest, length,
// created, delivered), then the end cycle, the delivered flits and the
// generated packets.  The constants were recorded once and must never be
// edited to make a change pass: a different digest means the change
// altered a simulated result, including inside the helpers every router
// loop shares (route_input, try_bind_output, sa_port).
//
// The matrix is the 4x4 mesh under credit flow control and err-cycles
// arbiters at seeds 1-5 x five fault presets, the chaos preset again on
// the sharded tick (which must reproduce the serial constants), and one
// seed each of the other fabric shapes: an on/off fat tree with adaptive
// up/down routing under hotspot traffic, a DOR torus, infinite buffers,
// and the rr and err-flits arbiters.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "validate/faults.hpp"
#include "validate/network_auditor.hpp"
#include "validate/violation.hpp"
#include "wormhole/network.hpp"
#include "wormhole/patterns.hpp"
#include "../common/tick_loop.hpp"

namespace wormsched::wormhole {
namespace {

using validate::AuditLog;
using validate::FaultSpec;

/// FNV-1a over the little-endian bytes of 64-bit words.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

enum class Preset { kNone, kLinkStalls, kCreditStarvation, kChurnBursts,
                    kChaos };

FaultSpec fault_spec(Preset preset) {
  FaultSpec spec;
  switch (preset) {
    case Preset::kNone:
      break;
    case Preset::kLinkStalls:
      spec.enabled = true;
      spec.link_stall_rate = 0.4;
      spec.link_stall_cycles = 6;
      break;
    case Preset::kCreditStarvation:
      spec.enabled = true;
      spec.credit_stall_rate = 0.4;
      spec.credit_stall_cycles = 20;
      break;
    case Preset::kChurnBursts:
      spec.enabled = true;
      spec.churn_rate = 0.25;
      spec.burst_rate = 0.2;
      break;
    case Preset::kChaos:
      spec = FaultSpec::chaos(0);
      break;
  }
  return spec;
}

struct DigestCase {
  std::string name;
  NetworkConfig network;  // default: 4x4 mesh, credit, err-cycles
  PatternSpec pattern;
  Preset faults = Preset::kNone;
  std::uint64_t seed = 1;
  std::uint64_t digest = 0;
};

// Test names carry the case name; print it instead of the struct's bytes.
void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

struct DigestRun {
  std::uint64_t digest = 0;
  std::uint64_t delivered = 0;
  std::uint64_t violations = 0;
  std::uint64_t checks = 0;
};

DigestRun run_case(const DigestCase& c) {
  NetworkConfig config = c.network;
  std::optional<validate::ScheduledFaults> faults;
  FaultSpec spec = fault_spec(c.faults);
  if (spec.enabled) {
    spec.seed += c.seed;
    spec.num_nodes = Topology(config.topo).num_endpoints();
    faults.emplace(spec);
    config.faults = &*faults;
  }
  Network net(config);
  AuditLog log(AuditLog::Mode::kCount);
  validate::NetworkAuditor auditor(
      validate::NetworkAuditorConfig{.mode = validate::AuditMode::kFull}, log);
  net.attach_observer(&auditor);

  NetworkTrafficSource::Config traffic;
  traffic.packets_per_node_per_cycle = 0.04;
  traffic.pattern = c.pattern;
  traffic.inject_until = 1500;
  traffic.seed = c.seed;
  traffic.faults = config.faults;
  NetworkTrafficSource source(net, traffic);

  test::TickLoop loop(source, net);
  loop.run_until(traffic.inject_until);
  const Cycle end = loop.run_until_idle(200'000);
  auditor.finish(end, net);

  Fnv1a h;
  for (const DeliveredPacket& p : net.delivered()) {
    h.add(p.id.value());
    h.add(p.flow.value());
    h.add(p.source.value());
    h.add(p.dest.value());
    h.add(static_cast<std::uint64_t>(p.length));
    h.add(p.created);
    h.add(p.delivered);
  }
  h.add(end);
  h.add(net.delivered_flits());
  h.add(source.generated());
  return DigestRun{h.value(), net.delivered().size(), log.count(),
                   auditor.checks_run()};
}

const char* preset_name(Preset p) {
  switch (p) {
    case Preset::kNone: return "NoFaults";
    case Preset::kLinkStalls: return "LinkStalls";
    case Preset::kCreditStarvation: return "CreditStarvation";
    case Preset::kChurnBursts: return "ChurnBursts";
    case Preset::kChaos: return "Chaos";
  }
  return "";
}

// Recorded on the fabric before its legacy dense tick and dense router
// pipeline were deleted; indexed [seed - 1][preset].
constexpr std::uint64_t kMeshDigests[5][5] = {
    {0xd5f2906c5989d792ull, 0xa17a583098d21d8eull,
     0x193cf1df2e0a1456ull, 0x872518e7f5e3c587ull,
     0x7d8c9150a536273aull},
    {0x4353e4339dec957bull, 0xc1e89c6ef1200447ull,
     0x667d44de6e0d0323ull, 0x11729b0b5a30ece4ull,
     0x2fa18efd7e5205b1ull},
    {0x6a0e30663fa96a1eull, 0xf29c95a774a20e97ull,
     0xe8c5688b6a3bd7eaull, 0x8ed35ed418f0930full,
     0xa04f4d4e244d7983ull},
    {0x8446594d06d312b1ull, 0x1261e37a6ca38bc8ull,
     0xd3333d7725e4ff17ull, 0xecb4cf0555257230ull,
     0x179677045360b4afull},
    {0x25a68cc25e622f00ull, 0x6d34803c4a549b78ull,
     0xe1a4c2f86a2c7fedull, 0xa989e118d57d14f3ull,
     0x612e3568ba1d73fbull},
};

std::vector<DigestCase> digest_cases() {
  std::vector<DigestCase> cases;
  constexpr Preset kPresets[] = {Preset::kNone, Preset::kLinkStalls,
                                 Preset::kCreditStarvation,
                                 Preset::kChurnBursts, Preset::kChaos};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (std::size_t p = 0; p < 5; ++p) {
      DigestCase c;
      c.name = std::string("Mesh4x4_") + preset_name(kPresets[p]) + "_Seed" +
               std::to_string(seed);
      c.faults = kPresets[p];
      c.seed = seed;
      c.digest = kMeshDigests[seed - 1][p];
      cases.push_back(c);
    }
  }
  // The sharded tick reproduces the serial constants.
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    DigestCase c;
    c.name = "Mesh4x4_Chaos_Seed" + std::to_string(seed) + "_Threads2Shards4";
    c.network.threads = 2;
    c.network.shards = 4;
    c.faults = Preset::kChaos;
    c.seed = seed;
    c.digest = kMeshDigests[seed - 1][4];
    cases.push_back(c);
  }
  {
    DigestCase c;
    c.name = "FatTree4_OnOff_UpDownAdaptive_Hotspot";
    c.network.topo = TopologySpec::fat_tree(4);
    c.network.routing = NetworkConfig::Routing::kUpDownAdaptive;
    c.network.router.flow_control = FlowControl::kOnOff;
    c.pattern.kind = PatternSpec::Kind::kHotspot;
    c.pattern.hotspot_fraction = 0.7;
    c.pattern.hotspot = NodeId(0);
    c.digest = 0xce9fbc2286bfecfbull;
    cases.push_back(c);
  }
  {
    DigestCase c;
    c.name = "Torus4x4_Dor";
    c.network.topo = TopologySpec::torus(4, 4);
    c.digest = 0xc059caff46e0416aull;
    cases.push_back(c);
  }
  {
    DigestCase c;
    c.name = "Mesh4x4_InfiniteBuffers";
    c.network.router.buffer_model = BufferModel::kInfinite;
    c.digest = 0x8317b48b1274af29ull;
    cases.push_back(c);
  }
  {
    DigestCase c;
    c.name = "Mesh4x4_RoundRobin";
    c.network.router.arbiter = "rr";
    c.digest = 0x5118e4c332fadb40ull;
    cases.push_back(c);
  }
  {
    DigestCase c;
    c.name = "Mesh4x4_ErrFlits";
    c.network.router.arbiter = "err-flits";
    c.digest = 0x6d16cd60c536fd24ull;
    cases.push_back(c);
  }
  return cases;
}

class FabricDigestTest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(FabricDigestTest, MatchesPinnedDigest) {
  const DigestCase& c = GetParam();
  const DigestRun run = run_case(c);
  EXPECT_GT(run.delivered, 0u);
  EXPECT_GT(run.checks, 0u);
  EXPECT_EQ(run.violations, 0u);
  char actual[32];
  std::snprintf(actual, sizeof actual, "0x%016llxull",
                static_cast<unsigned long long>(run.digest));
  EXPECT_EQ(run.digest, c.digest) << c.name << " digest " << actual;
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, FabricDigestTest, ::testing::ValuesIn(digest_cases()),
    [](const ::testing::TestParamInfo<DigestCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace wormsched::wormhole
