// Crafted network checkpoints: a CRC only guards accidental damage, so a
// router restore must re-derive its pending masks and counters from the
// restored units, a packet-table rebuild must find every flit of a packet
// in agreement, and both must reject a CRC-valid file whose state a run
// cannot produce — with SnapshotError in the library and exit 2 in the
// CLI, never an out-of-bounds walk in the sparse pipeline or an abort at
// ejection.  The crafted files patch fields of a mid-run checkpoint by
// path.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/archive.hpp"
#include "common/snapshot.hpp"
#include "harness/checkpoint.hpp"
#include "traffic/binary_trace.hpp"
#include "traffic/trace_io.hpp"
#include "traffic/trace_synth.hpp"
#include "../common/field_map.hpp"

namespace wormsched::harness {
namespace {

/// The CLI spelling of config() below (everything else at its default).
const char* const kCliGeometry = " --topo mesh4x4";

NetworkScenarioConfig config() {
  NetworkScenarioConfig config;
  config.network.topo = wormhole::TopologySpec::mesh(4, 4);
  config.traffic.packets_per_node_per_cycle = 0.05;
  config.traffic.inject_until = 400;
  return config;
}

/// A mid-run checkpoint with its field map, and the path of an idle ERR
/// output arbiter in it.
struct MidRunCheckpoint {
  MidRunCheckpoint() {
    NetworkRun run(config(), /*seed=*/3);
    run.advance_to(150);
    file = run.make_snapshot_file();
    map = describe_checkpoint(file, config());
    // The first unbound ERR arbiter between opportunities.
    const std::uint32_t vcs = config().network.router.num_vcs;
    for (std::uint32_t n = 0; n < 16 && idle_err.empty(); ++n) {
      for (std::uint32_t d = 0; d < wormhole::kNumDirections; ++d) {
        const auto& arbiter = run.network().router(NodeId(n)).arbiter(
            static_cast<wormhole::Direction>(d), 0);
        const auto* err = dynamic_cast<const wormhole::ErrArbiter*>(&arbiter);
        if (err == nullptr || arbiter.bound() ||
            err->policy().in_opportunity() || err->policy().round() == 0)
          continue;
        idle_err = "NNET.routers[" + std::to_string(n) + "].outputs[" +
                   std::to_string(d * vcs) + "].arbiter.";
        break;
      }
    }
  }

  [[nodiscard]] std::uint64_t value(const std::string& path) const {
    return test::get(file.payload, map, path);
  }
  [[nodiscard]] SnapshotFile with(const std::string& path,
                                  std::uint64_t v) const {
    SnapshotFile out = file;
    test::set(out.payload, map, path, v);
    return out;
  }
  /// The first saved field whose path holds `within` and ends in `leaf`
  /// (empty when there is none).
  [[nodiscard]] std::string first(std::string_view within,
                                  std::string_view leaf) const {
    for (const FieldInfo& f : map)
      if (f.path.find(within) != std::string::npos && f.path.ends_with(leaf))
        return f.path;
    return {};
  }
  /// Every packet record, keyed by packet id: the path prefix of each
  /// queued NIC packet (before ".id") and each flit in flight (before
  /// ".packet"), in payload order.
  [[nodiscard]] std::map<std::uint64_t, std::vector<std::string>> records()
      const {
    std::map<std::uint64_t, std::vector<std::string>> out;
    for (const FieldInfo& f : map) {
      const bool queued = f.path.find(".queue[") != std::string::npos &&
                          f.path.ends_with(".id");
      const bool flit = (f.path.find("flit_wire[") != std::string::npos ||
                         f.path.find(".buffer[") != std::string::npos) &&
                        f.path.ends_with(".packet");
      if (!queued && !flit) continue;
      const std::size_t leaf = f.path.rfind('.');
      out[value(f.path)].push_back(f.path.substr(0, leaf));
    }
    return out;
  }
  /// The checkpoint with `leaf` set to `v` in every record of the packet
  /// whose record holds `path`: the packet stays one consistent worm.
  [[nodiscard]] SnapshotFile with_packet(const std::string& path,
                                         std::string_view leaf,
                                         std::uint64_t v) const {
    const std::string record = path.substr(0, path.size() - leaf.size());
    for (const auto& [id, prefixes] : records()) {
      if (std::find(prefixes.begin(), prefixes.end(), record) ==
          prefixes.end())
        continue;
      SnapshotFile out = file;
      for (const std::string& prefix : prefixes)
        test::set(out.payload, map, prefix + std::string(leaf), v);
      return out;
    }
    ADD_FAILURE() << "no packet record at " << record;
    return file;
  }

  SnapshotFile file;
  FieldMap map;
  std::string idle_err;  // path prefix of an idle ERR arbiter
};

constexpr const char* kLastRouter = "NNET.routers[15].";
constexpr const char* kReservoir = "NNET.latency_quantiles.";

/// The last router's bound mask with bit 63 set: no 2-VC router has a
/// unit there.
SnapshotFile stray_mask_bit(const MidRunCheckpoint& c) {
  const std::string mask = std::string(kLastRouter) + "bound_outputs_mask";
  return c.with(mask, c.value(mask) | (std::uint64_t{1} << 63));
}

/// The last router's local-port SA pointer set to num_vcs (2).
SnapshotFile sa_pointer_out_of_range(const MidRunCheckpoint& c) {
  return c.with(std::string(kLastRouter) + "sa_pointer[0]", 2);
}

/// The checkpoint with its latency reservoir's capacity set to
/// `capacity` and, unless `seen` is 0, its seen count to `seen`.
SnapshotFile with_reservoir(const MidRunCheckpoint& c, std::uint64_t capacity,
                            std::uint64_t seen) {
  SnapshotFile out = c.with(std::string(kReservoir) + "capacity", capacity);
  if (seen != 0)
    test::set(out.payload, c.map, std::string(kReservoir) + "seen", seen);
  return out;
}

/// The idle ERR arbiter's policy opening an opportunity for `flow`.  With
/// `with_counts`, its active and visit counts also match an open
/// opportunity (one flow in service, one visit left) and its allowance
/// and sent are both 0.
SnapshotFile err_serving(const MidRunCheckpoint& c, std::uint32_t flow,
                         bool with_counts = false) {
  SnapshotFile out = c.file;
  std::vector<std::uint8_t>& p = out.payload;
  const std::string& at = c.idle_err;
  test::set(p, c.map, at + "in_opportunity", 1);
  test::set(p, c.map, at + "current", flow);
  if (with_counts) {
    test::set(p, c.map, at + "round_robin_visit_count", 1);
    test::set(p, c.map, at + "active_count", c.value(at + "active_count") + 1);
    test::set(p, c.map, at + "allowance", 0);
    test::set(p, c.map, at + "sent", 0);
  }
  return out;
}

constexpr std::uint32_t kFarFlow = 0x7FFFFFF0;
constexpr std::uint32_t kFarNode = 0x80000000;

/// Capacity equal to the samples held: a full reservoir.
std::uint64_t held(const MidRunCheckpoint& c) {
  return c.value(std::string(kReservoir) + "samples.count");
}

constexpr std::uint64_t kWrappingSeen = ~std::uint64_t{0};
constexpr std::uint64_t kLargestSeen = (std::uint64_t{1} << 63) - 1;

TEST(NetworkRestoreCheck, UnmodifiedCheckpointRestores) {
  const MidRunCheckpoint c;
  NetworkRun resumed(config(), c.file);
  resumed.run_to_completion();
  const NetworkScenarioResult result = resumed.finish();
  EXPECT_EQ(result.delivered_packets, result.generated_packets);
}

TEST(NetworkRestoreCheck, RejectsStrayMaskBit) {
  const MidRunCheckpoint c;
  EXPECT_THROW(NetworkRun(config(), stray_mask_bit(c)), SnapshotError);
}

TEST(NetworkRestoreCheck, RejectsSaPointerOutOfRange) {
  const MidRunCheckpoint c;
  EXPECT_THROW(NetworkRun(config(), sa_pointer_out_of_range(c)),
               SnapshotError);
}

TEST(NetworkRestoreCheck, RejectsZeroReservoirCapacity) {
  // Before the check the restore tripped the reservoir's capacity
  // assertion and aborted.
  const MidRunCheckpoint c;
  EXPECT_THROW(NetworkRun(config(), with_reservoir(c, 0, 0)), SnapshotError);
  // Control: a full reservoir restores and runs.
  NetworkRun resumed(config(), with_reservoir(c, held(c), 0));
  resumed.run_to_completion();
  const NetworkScenarioResult result = resumed.finish();
  EXPECT_EQ(result.delivered_packets, result.generated_packets);
}

TEST(NetworkRestoreCheck, RejectsReservoirSeenCountThatWraps) {
  // Before the check the next tail ejection wrapped the full reservoir's
  // seen count to 0 and divided by it (SIGFPE).
  const MidRunCheckpoint c;
  ASSERT_GT(held(c), 0u) << "no packet delivered before the save";
  EXPECT_THROW(NetworkRun(config(), with_reservoir(c, held(c), kWrappingSeen)),
               SnapshotError);
  EXPECT_THROW(
      NetworkRun(config(), with_reservoir(c, held(c), std::uint64_t{1} << 63)),
      SnapshotError);
  // Control: the largest accepted count restores and keeps sampling.
  NetworkRun resumed(config(), with_reservoir(c, held(c), kLargestSeen));
  resumed.run_to_completion();
  EXPECT_GT(resumed.network().latency_quantiles().sample_count(),
            kLargestSeen);
}

TEST(NetworkRestoreCheck, RejectsErrArbiterServingAnOutOfRangeFlow) {
  // Before the check the next grant indexed the arbiter's pending heads
  // with the restored flow.
  const MidRunCheckpoint c;
  ASSERT_FALSE(c.idle_err.empty()) << "no idle ERR arbiter";
  EXPECT_THROW(NetworkRun(config(), err_serving(c, kFarFlow)), SnapshotError);
}

TEST(NetworkRestoreCheck, RejectsErrArbiterOpportunityReleaseNeverLeaves) {
  // Requester 0 in service with consistent counts passes the policy's own
  // checks, but an unbound arbiter only keeps an opportunity open for a
  // requester with a head pending and allowance left (here none is left);
  // before the check, the next grant aborted on that assertion.
  const MidRunCheckpoint c;
  ASSERT_FALSE(c.idle_err.empty()) << "no idle ERR arbiter";
  EXPECT_THROW(NetworkRun(config(), err_serving(c, 0, true)), SnapshotError);
}

TEST(NetworkRestoreCheck, RejectsLengthLawTheSamplerAborts) {
  // Before the check the restored source's first packet tripped
  // sample_length's assertion (exit 134): a length of 0 flits, and a
  // truncated exponential law (kind 2) with the uniform law's rate 0.
  const MidRunCheckpoint c;
  EXPECT_THROW(NetworkRun(config(), c.with("NCFG.traffic.lengths.lo", 0)),
               SnapshotError);
  EXPECT_THROW(NetworkRun(config(), c.with("NCFG.traffic.lengths.kind", 2)),
               SnapshotError);
  // Control: the bimodal law (kind 3) over the same bounds restores.
  EXPECT_NO_THROW(NetworkRun(config(), c.with("NCFG.traffic.lengths.kind", 3)));
}

TEST(NetworkRestoreCheck, RejectsNicCursorWithNothingQueued) {
  // Before the check the cursor was bounded only under a queued packet;
  // -1 on an empty NIC aborted the run once it next injected.
  const MidRunCheckpoint c;
  std::string idle_nic;
  for (std::uint32_t n = 0; n < 16 && idle_nic.empty(); ++n) {
    const std::string nic = "NNET.nics[" + std::to_string(n) + "].";
    if (c.value(nic + "queue.count") == 0) idle_nic = nic;
  }
  ASSERT_FALSE(idle_nic.empty()) << "every NIC has a packet queued";
  EXPECT_THROW(NetworkRun(config(), c.with(idle_nic + "sent_of_current",
                                           ~std::uint64_t{0})),
               SnapshotError);
}

TEST(NetworkRestoreCheck, RejectsFlitsAndPacketsOfNodesOutsideTheFabric) {
  // Before the check a flit from source 2^31 indexed the per-source
  // latency table on ejection (SIGSEGV), and a dest of 2^31 aborted the
  // run.  Whether an in-range dest agrees with the rest of its worm is a
  // rule across fields, not a range.
  const MidRunCheckpoint c;
  for (const char* within : {"flit_wire[", ".buffer[", ".queue["}) {
    for (const char* leaf : {".source", ".dest"}) {
      const std::string path = c.first(within, leaf);
      ASSERT_FALSE(path.empty()) << "nothing saved under " << within;
      EXPECT_THROW(NetworkRun(config(), c.with(path, kFarNode)), SnapshotError)
          << path;
      EXPECT_THROW(NetworkRun(config(), c.with(path, 16)), SnapshotError)
          << path;
      // Control: the last node restores, set in every record of the
      // packet (one record alone would disagree with the rest of its
      // worm; see RejectsFlitsThatDisagreeWithTheirWorm).
      EXPECT_NO_THROW(NetworkRun(config(), c.with_packet(path, leaf, 15)))
          << path;
    }
  }
}

/// The first packet with at least two flits in flight and no NIC record
/// (its tail has left its NIC): the prefixes of its first two flits.
std::pair<std::string, std::string> worm_in_flight(const MidRunCheckpoint& c) {
  for (const auto& [id, prefixes] : c.records()) {
    if (prefixes.size() < 2 || prefixes[0].find(".queue[") != std::string::npos)
      continue;
    return {prefixes[0], prefixes[1]};
  }
  ADD_FAILURE() << "no packet has two flits in flight";
  return {};
}

/// Expects restoring `file` to throw a SnapshotError naming `path`.
void expect_rejected_at(const SnapshotFile& file, const std::string& path) {
  try {
    NetworkRun run(config(), file);
    ADD_FAILURE() << path << " was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

/// A flit of the worm worm_in_flight() finds with its dest moved to
/// another in-range node.
SnapshotFile flit_off_its_worm(const MidRunCheckpoint& c) {
  const std::string dest = worm_in_flight(c).second + ".dest";
  return c.with(dest, (c.value(dest) + 1) % 16);
}

TEST(NetworkRestoreCheck, RejectsFlitsThatDisagreeWithTheirWorm) {
  // Before the packet table each flit carried its packet's fields, and a
  // body flit whose in-range dest differed from its head's passed the
  // restore and aborted the run at ejection ("flit ejected at the wrong
  // node", exit 134).  The table files a packet once; a flit that
  // disagrees with the others of its id is rejected at its field.
  const MidRunCheckpoint c;
  const std::string second = worm_in_flight(c).second;
  ASSERT_FALSE(second.empty());
  for (const char* leaf : {".flow", ".source", ".dest", ".created"}) {
    const std::string path = second + leaf;
    const std::uint64_t v = c.value(path);
    expect_rejected_at(c.with(path, leaf == std::string(".created") ||
                                            leaf == std::string(".flow")
                                        ? v + 1
                                        : (v + 1) % 16),
                       path);
  }
  expect_rejected_at(flit_off_its_worm(c), second + ".dest");
}

TEST(NetworkRestoreCheck, RejectsTwoFlitsOfOnePacketWithOneIndex) {
  const MidRunCheckpoint c;
  const auto [first, second] = worm_in_flight(c);
  ASSERT_FALSE(second.empty());
  SnapshotFile out = c.with(second + ".index", c.value(first + ".index"));
  test::set(out.payload, c.map, second + ".type", c.value(first + ".type"));
  expect_rejected_at(out, second + ".index");
}

TEST(NetworkRestoreCheck, RejectsFlitsThatContradictTheirNicFront) {
  // A NIC part-way through its front packet has sent that packet's first
  // sent_of_current flits; the flits of its id in flight must agree with
  // the queued record and lie among those flits.
  const MidRunCheckpoint c;
  std::string nic;
  std::string flit;
  for (const auto& [id, prefixes] : c.records()) {
    if (prefixes.size() < 2 || prefixes[0].find(".queue[0]") ==
                                   std::string::npos)
      continue;
    const std::string owner =
        prefixes[0].substr(0, prefixes[0].find(".queue[0]"));
    if (c.value(owner + ".sent_of_current") == 0) continue;
    nic = owner;
    flit = prefixes[1];
    break;
  }
  ASSERT_FALSE(nic.empty()) << "no NIC part-way through a packet in flight";
  const std::string front = nic + ".queue[0]";
  expect_rejected_at(c.with(front + ".dest", (c.value(front + ".dest") + 1) %
                                                 16),
                     flit + ".dest");
  expect_rejected_at(c.with(front + ".created", c.value(front + ".created") + 1),
                     flit + ".created");
  // Its NIC had sent none of the flit's index yet.
  expect_rejected_at(c.with(nic + ".sent_of_current", c.value(flit + ".index")),
                     flit + ".index");
}

TEST(NetworkRestoreCheck, CliRestoreOfCraftedFilesExits2) {
  const MidRunCheckpoint c;
  ASSERT_FALSE(c.idle_err.empty());
  // The unmodified file and the controls restore (exit 0), so the crafted
  // ones fail on the state they change and not on a geometry mismatch.
  const std::vector<std::tuple<std::string, SnapshotFile, int>> cases = {
      {"unmodified", c.file, 0},
      {"stray_mask_bit", stray_mask_bit(c), 2},
      {"sa_pointer_out_of_range", sa_pointer_out_of_range(c), 2},
      {"zero_reservoir_capacity", with_reservoir(c, 0, 0), 2},
      {"full_reservoir", with_reservoir(c, held(c), 0), 0},
      {"wrapping_seen_count", with_reservoir(c, held(c), kWrappingSeen), 2},
      {"largest_seen_count", with_reservoir(c, held(c), kLargestSeen), 0},
      {"err_serving_out_of_range_flow", err_serving(c, kFarFlow), 2},
      {"zero_length_packets", c.with("NCFG.traffic.lengths.lo", 0), 2},
      {"exponential_law_without_rate",
       c.with("NCFG.traffic.lengths.kind", 2), 2},
      {"flit_from_outside_the_fabric",
       c.with(c.first("flit_wire[", ".source"), kFarNode), 2},
      {"packet_to_outside_the_fabric",
       c.with(c.first(".queue[", ".dest"), kFarNode), 2},
      {"flit_off_its_worm", flit_off_its_worm(c), 2},
  };
  for (const auto& [name, file, expected] : cases) {
    const std::string path =
        testing::TempDir() + "network_restore_check_" + name + ".wsnp";
    write_snapshot_file(path, file.manifest_json, file.payload);
    const std::string command = std::string(WS_CLI) + " network" +
                                kCliGeometry + " --restore " + path +
                                " > /dev/null 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << name;
    EXPECT_EQ(WEXITSTATUS(status), expected) << name;
    std::remove(path.c_str());
  }
}

/// Exit status and stderr lines of `wormsched network --restore <path>`.
struct CliOutcome {
  int code = -1;
  std::vector<std::string> err;
};
CliOutcome cli_restore(const std::string& path) {
  const std::string err_path = path + ".stderr";
  const std::string command = std::string(WS_CLI) + " network" +
                              kCliGeometry + " --restore " + path +
                              " > /dev/null 2> " + err_path;
  const int status = std::system(command.c_str());
  CliOutcome o;
  o.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream err(err_path);
  for (std::string line; std::getline(err, line);) o.err.push_back(line);
  std::remove(err_path.c_str());
  return o;
}

// A trace-driven checkpoint records its trace's path, arrival count and
// CRC.  A restore reloads the trace from that path, so a trace changed by
// one byte or deleted since must fail as a bad checkpoint does: with
// SnapshotError, and with one `wormsched:` line and exit 2 in the CLI.
TEST(NetworkRestoreCheck, TraceChangedOrDeletedExits2) {
  traffic::SynthSpec spec;
  spec.num_flows = 16;
  spec.horizon = 600;
  spec.load = 1.0;
  const traffic::Trace trace = traffic::synthesize_trace(spec, 3);
  for (const bool binary : {false, true}) {
    const std::string base = testing::TempDir() + "network_restore_trace_" +
                             std::to_string(::getpid()) +
                             (binary ? "_bin" : "_csv");
    const std::string trace_path = base + (binary ? ".wst" : ".csv");
    const std::string ckpt_path = base + ".wsnp";
    if (binary)
      traffic::save_binary_trace_file(trace_path, trace);
    else
      traffic::save_trace_file(trace_path, trace);
    NetworkScenarioConfig point = config();
    point.trace_in = load_replay_trace(trace_path);
    {
      NetworkRun run(point, /*seed=*/4);
      run.advance_to(300);
      run.save_checkpoint(ckpt_path);
    }
    const CliOutcome intact = cli_restore(ckpt_path);
    EXPECT_EQ(intact.code, 0) << trace_path;
    EXPECT_TRUE(intact.err.empty()) << trace_path;

    // One byte changed: the last character before the final newline of a
    // CSV (a length digit, so the trace still parses), a payload byte of
    // the binary container.
    std::vector<std::uint8_t> bytes = read_file_bytes(trace_path, "trace");
    std::uint8_t& byte = bytes[bytes.size() - (binary ? 8 : 2)];
    byte = binary ? static_cast<std::uint8_t>(byte ^ 1)
                  : static_cast<std::uint8_t>(byte == '9' ? '8' : byte + 1);
    std::ofstream(trace_path, std::ios::binary)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    if (!binary) {
      try {
        const NetworkRun run(config(), read_snapshot_file(ckpt_path));
        ADD_FAILURE() << "a changed trace restored";
      } catch (const SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("NTRC.crc"), std::string::npos)
            << e.what();
      }
    }
    for (const char* state : {"changed", "deleted"}) {
      if (std::string(state) == "deleted") std::remove(trace_path.c_str());
      const CliOutcome o = cli_restore(ckpt_path);
      EXPECT_EQ(o.code, 2) << state << " " << trace_path;
      ASSERT_EQ(o.err.size(), 1u) << state << " " << trace_path;
      EXPECT_EQ(o.err[0].rfind("wormsched: ", 0), 0u) << o.err[0];
    }
    std::remove(ckpt_path.c_str());
  }
}

// A trace given for a checkpoint that replays none is a mismatch too.
TEST(NetworkRestoreCheck, TraceGivenForLawDrivenCheckpointThrows) {
  const MidRunCheckpoint c;
  const std::string path = testing::TempDir() + "network_restore_given_" +
                           std::to_string(::getpid()) + ".csv";
  std::ofstream(path) << "cycle,flow,length\n0,0,2\n";
  NetworkScenarioConfig point = config();
  point.trace_in = load_replay_trace(path);
  EXPECT_THROW({ const NetworkRun run(point, c.file); }, SnapshotError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wormsched::harness
