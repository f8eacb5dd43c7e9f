// Crafted network checkpoints: a CRC only guards accidental damage, so a
// router restore must re-derive its pending masks and counters from the
// restored units, and reject a CRC-valid file whose router state a run
// cannot produce — with SnapshotError in the library and exit 2 in the
// CLI, never an out-of-bounds walk in the sparse pipeline.
//
// Most crafted files patch the last router of the NNET section, whose
// saved state ends with the SA pointers (one u32 per port), the port
// stats (four u64 per port), forwarded (u64), buffered flits and bound
// outputs (u32 each) and the routable, requesting and bound masks (u64
// each); the last byte of the section is the top byte of its bound mask.
// Others patch the packet-latency reservoir (capacity, seen count, RNG
// state, sorted flag, samples), found by its saved bytes, or an idle ERR
// output arbiter found the same way: its saved state ends with the
// policy's in-opportunity bool, u32 flow in service and f64 allowance,
// sent and largest charge.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>
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

std::uint64_t get_u64(const std::vector<std::uint8_t>& p, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(p[at + i]) << (8 * i);
  return v;
}

void put_u64(std::vector<std::uint8_t>& p, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i)
    p[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// A mid-run checkpoint, the offset just past its NNET section and the
/// offset of its latency reservoir (nnet_end when not found once).
struct MidRunCheckpoint {
  MidRunCheckpoint() {
    NetworkRun run(config(), /*seed=*/3);
    run.advance_to(150);
    file = run.make_snapshot_file();
    const std::vector<std::uint8_t>& p = file.payload;
    SnapshotReader r(p);
    for (const std::uint32_t tag :
         {kCkptMetaTag, kCkptNetConfigTag, kCkptNetworkTag}) {
      r.enter_section(tag);
      r.leave_section();
    }
    nnet_end = p.size() - r.remaining();
    SnapshotWriter w;
    run.network().latency_quantiles().save(w);
    const std::vector<std::uint8_t>& q = w.bytes();
    const auto end = p.begin() + static_cast<std::ptrdiff_t>(nnet_end);
    const auto at = std::search(p.begin(), end, q.begin(), q.end());
    if (at != end && std::search(at + 1, end, q.begin(), q.end()) == end)
      reservoir_at = static_cast<std::size_t>(at - p.begin());
    else
      reservoir_at = nnet_end;
    // The first unbound ERR arbiter between opportunities whose saved
    // state occurs once in the fabric section.
    for (std::uint32_t n = 0; n < 16 && err_end == 0; ++n) {
      for (std::uint32_t d = 0; d < wormhole::kNumDirections; ++d) {
        const auto& arbiter = run.network().router(NodeId(n)).arbiter(
            static_cast<wormhole::Direction>(d), 0);
        const auto* err = dynamic_cast<const wormhole::ErrArbiter*>(&arbiter);
        if (err == nullptr || arbiter.bound() ||
            err->policy().in_opportunity() || err->policy().round() == 0)
          continue;
        SnapshotWriter a;
        arbiter.save_state(a);
        const std::vector<std::uint8_t>& b = a.bytes();
        const auto hit = std::search(p.begin(), end, b.begin(), b.end());
        if (hit == end || std::search(hit + 1, end, b.begin(), b.end()) != end)
          continue;
        err_end = static_cast<std::size_t>(hit - p.begin()) + b.size();
        break;
      }
    }
  }

  SnapshotFile file;
  std::size_t nnet_end = 0;
  std::size_t reservoir_at = 0;
  std::size_t err_end = 0;  // just past an idle ERR arbiter's saved state
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

/// The checkpoint with its latency reservoir's capacity set to
/// `capacity` and, unless `seen` is 0, its seen count to `seen`.
SnapshotFile with_reservoir(const MidRunCheckpoint& c, std::uint64_t capacity,
                            std::uint64_t seen) {
  SnapshotFile out = c.file;
  std::vector<std::uint8_t>& p = out.payload;
  put_u64(p, c.reservoir_at, capacity);
  if (seen != 0) put_u64(p, c.reservoir_at + 8, seen);
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
  const std::size_t in_opportunity_at = c.err_end - 8 * 3 - 4 - 1;
  p[in_opportunity_at] = 1;
  for (std::size_t i = 0; i < 4; ++i)
    p[in_opportunity_at + 1 + i] = static_cast<std::uint8_t>(flow >> (8 * i));
  if (with_counts) {
    // Back over the reset-on-idle bool, round, both MaxSCs and the visit
    // count to the active count.
    const std::size_t visits_at = in_opportunity_at - 1 - 8 * 3 - 8;
    put_u64(p, visits_at, 1);
    put_u64(p, visits_at - 8, get_u64(p, visits_at - 8) + 1);
    put_u64(p, in_opportunity_at + 1 + 4, 0);      // allowance
    put_u64(p, in_opportunity_at + 1 + 4 + 8, 0);  // sent
  }
  return out;
}

constexpr std::uint32_t kFarFlow = 0x7FFFFFF0;

/// Capacity equal to the samples held: a full reservoir.
std::uint64_t held(const MidRunCheckpoint& c) {
  return get_u64(c.file.payload, c.reservoir_at + 25);
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
  ASSERT_LT(c.reservoir_at, c.nnet_end);
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
  ASSERT_LT(c.reservoir_at, c.nnet_end);
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
  ASSERT_GT(c.err_end, 0u) << "no idle ERR arbiter with unique bytes";
  EXPECT_THROW(NetworkRun(config(), err_serving(c, kFarFlow)), SnapshotError);
}

TEST(NetworkRestoreCheck, RejectsErrArbiterOpportunityReleaseNeverLeaves) {
  // Requester 0 in service with consistent counts passes the policy's own
  // checks, but an unbound arbiter only keeps an opportunity open for a
  // requester with a head pending and allowance left (here none is left);
  // before the check, the next grant aborted on that assertion.
  const MidRunCheckpoint c;
  ASSERT_GT(c.err_end, 0u) << "no idle ERR arbiter with unique bytes";
  EXPECT_THROW(NetworkRun(config(), err_serving(c, 0, true)), SnapshotError);
}

TEST(NetworkRestoreCheck, CliRestoreOfCraftedFilesExits2) {
  const MidRunCheckpoint c;
  ASSERT_LT(c.reservoir_at, c.nnet_end);
  ASSERT_GT(c.err_end, 0u);
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

}  // namespace
}  // namespace wormsched::harness
