// Crafted network checkpoints: a CRC only guards accidental damage, so a
// router restore must re-derive its pending masks and counters from the
// restored units, and reject a CRC-valid file whose router state a run
// cannot produce — with SnapshotError in the library and exit 2 in the
// CLI, never an out-of-bounds walk in the sparse pipeline.
//
// The crafted files patch the last router of the NNET section, whose
// saved state ends with the SA pointers (one u32 per port), the port
// stats (four u64 per port), forwarded (u64), buffered flits and bound
// outputs (u32 each) and the routable, requesting and bound masks (u64
// each); the last byte of the section is the top byte of its bound mask.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/snapshot.hpp"
#include "harness/checkpoint.hpp"

namespace wormsched::harness {
namespace {

constexpr std::size_t kSaPointersFromEnd =
    3 * 8 + 2 * 4 + 8 + wormhole::kNumDirections * 4 * 8 +
    wormhole::kNumDirections * 4;

/// The CLI spelling of config() below (everything else at its default).
const char* const kCliGeometry = " --topo mesh4x4";

NetworkScenarioConfig config() {
  NetworkScenarioConfig config;
  config.network.topo = wormhole::TopologySpec::mesh(4, 4);
  config.traffic.packets_per_node_per_cycle = 0.05;
  config.traffic.inject_until = 400;
  return config;
}

/// A mid-run checkpoint and the offset just past its NNET section.
struct MidRunCheckpoint {
  MidRunCheckpoint() {
    NetworkRun run(config(), /*seed=*/3);
    run.advance_to(150);
    file = run.make_snapshot_file();
    SnapshotReader r(file.payload);
    for (const std::uint32_t tag :
         {kCkptMetaTag, kCkptNetConfigTag, kCkptNetworkTag}) {
      r.enter_section(tag);
      r.leave_section();
    }
    nnet_end = file.payload.size() - r.remaining();
  }

  SnapshotFile file;
  std::size_t nnet_end = 0;
};

/// The last router's bound mask with bit 63 set: no 2-VC router has a
/// unit there.
SnapshotFile stray_mask_bit(const MidRunCheckpoint& c) {
  SnapshotFile out = c.file;
  out.payload[c.nnet_end - 1] |= 0x80;
  return out;
}

/// The last router's local-port SA pointer set to num_vcs (2).
SnapshotFile sa_pointer_out_of_range(const MidRunCheckpoint& c) {
  SnapshotFile out = c.file;
  const std::size_t at = c.nnet_end - kSaPointersFromEnd;
  out.payload[at] = 2;
  for (std::size_t i = 1; i < 4; ++i) out.payload[at + i] = 0;
  return out;
}

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

TEST(NetworkRestoreCheck, CliRestoreOfCraftedFilesExits2) {
  const MidRunCheckpoint c;
  // The unmodified file restores (exit 0), so the crafted ones fail on
  // their router state and not on a geometry mismatch.
  const std::vector<std::pair<std::string, SnapshotFile>> cases = {
      {"unmodified", c.file},
      {"stray_mask_bit", stray_mask_bit(c)},
      {"sa_pointer_out_of_range", sa_pointer_out_of_range(c)},
  };
  for (const auto& [name, file] : cases) {
    const std::string path =
        testing::TempDir() + "network_restore_check_" + name + ".wsnp";
    write_snapshot_file(path, file.manifest_json, file.payload);
    const std::string command = std::string(WS_CLI) + " network" +
                                kCliGeometry + " --restore " + path +
                                " > /dev/null 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << name;
    EXPECT_EQ(WEXITSTATUS(status), name == "unmodified" ? 0 : 2) << name;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace wormsched::harness
