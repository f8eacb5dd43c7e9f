// Golden snapshot tests: the committed tests/data/golden_v2.wsnp pins
// the v2 checkpoint format (compatibility policy in docs/TESTING.md).
// v2 added flow-control state (router on/off handshake bools, wire
// credit kind, flow-control config in the network fingerprint); the
// retired golden_v1.wsnp stays committed so the version gate itself is
// pinned — an old-format file must exit 2, never misparse.
//
// The golden file was written by `wormsched soak --topo mesh3x3
// --cycles 3000 --horizon 20000 --window 1000 --rate 0.02 --seed 42`:
// a mid-run fabric checkpoint with a trailing SOAK section.  Any layout
// change that still claims version 2 breaks these tests; an intentional
// layout change must bump kSnapshotFormatVersion and commit a new
// golden alongside this one.
//
// The rejection matrix drives the CLI failure contract end to end:
// corrupted, truncated and wrong-version variants must exit 2 with a
// clear stderr message (load_checkpoint_or_exit), and no malformed
// variant may ever reach undefined behaviour (the ASan CI leg runs this
// suite too).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "harness/checkpoint.hpp"
#include "harness/network_sweep.hpp"
#include "harness/soak.hpp"
#include "wormhole/network.hpp"

namespace wormsched::harness {
namespace {

std::string golden_path() { return WS_GOLDEN_SNAPSHOT; }

std::vector<std::uint8_t> golden_bytes() {
  std::ifstream in(golden_path(), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << golden_path();
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

std::string write_variant(const std::string& name,
                          const std::vector<std::uint8_t>& bytes) {
  const std::string path = testing::TempDir() + "golden_" + name + ".wsnp";
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return path;
}

/// The geometry the golden run used (everything else — traffic law,
/// horizon, seed — travels inside the checkpoint).
NetworkScenarioConfig golden_geometry() {
  NetworkScenarioConfig config;
  config.network.topo = wormhole::TopologySpec::mesh(3, 3);
  return config;
}

TEST(SnapshotGolden, LoadsAndCarriesProvenance) {
  const SnapshotFile file = read_snapshot_file(golden_path());
  EXPECT_EQ(file.version, kSnapshotFormatVersion);
  EXPECT_NE(file.manifest_json.find("wormsched-manifest-v1"),
            std::string::npos);

  const CheckpointProvenance prov = read_checkpoint_provenance(file);
  EXPECT_EQ(prov.kind, "network");
  EXPECT_EQ(prov.original_seed, 42u);
  EXPECT_EQ(prov.restore_count, 0u);
  EXPECT_EQ(prov.saved_cycle, 3'000u);
}

TEST(SnapshotGolden, RestoresAndRunsToCompletion) {
  // The load-bearing promise: a version-1 snapshot written by an older
  // build keeps producing the identical run on this one.  The expected
  // values are the golden run's own outputs, pinned at commit time.
  const SnapshotFile file = read_snapshot_file(golden_path());
  NetworkRun run(golden_geometry(), file);
  EXPECT_EQ(run.now(), 3'000u);
  run.run_to_completion();
  const NetworkScenarioResult result = run.finish();
  EXPECT_EQ(result.generated_packets, 3'568u);
  EXPECT_EQ(result.delivered_packets, 3'568u);
  EXPECT_EQ(result.end_cycle, 20'014u);
  EXPECT_GT(result.delivered_flits, result.delivered_packets);
}

/// The bytes of section `tag` (header included) in a checkpoint payload
/// laid out META, NCFG, NNET, NSRC, ...
std::vector<std::uint8_t> section_bytes(const std::vector<std::uint8_t>& p,
                                        std::uint32_t tag) {
  SnapshotReader r(p);
  for (const std::uint32_t t : {kCkptMetaTag, kCkptNetConfigTag,
                                kCkptNetworkTag, kCkptSourceTag}) {
    const std::size_t begin = p.size() - r.remaining();
    r.enter_section(t);
    r.leave_section();
    const std::size_t end = p.size() - r.remaining();
    if (t == tag)
      return std::vector<std::uint8_t>(
          p.begin() + static_cast<std::ptrdiff_t>(begin),
          p.begin() + static_cast<std::ptrdiff_t>(end));
  }
  ADD_FAILURE() << "no section " << tag;
  return {};
}

TEST(SnapshotGolden, ResaveReproducesFabricSections) {
  // Restore the golden and save it again straight away: the run-defining
  // sections must come back byte for byte.  The golden's bound outputs
  // carry the occupancy of every cycle up to its save, written by a build
  // that charged each cycle as it went.  Routers now charge at release
  // and add the uncharged cycles when saving, so a restored router must
  // count from the next tick for this save to add nothing.  (META
  // differs by design: restore count and writing build.)
  const SnapshotFile file = read_snapshot_file(golden_path());
  const NetworkRun run(golden_geometry(), file);
  std::uint32_t bound_outputs = 0;
  const std::uint32_t nodes = run.network().topology().num_nodes();
  for (std::uint32_t n = 0; n < nodes; ++n)
    bound_outputs += static_cast<std::uint32_t>(
        std::popcount(run.network().router(NodeId(n)).bound_outputs_mask()));
  ASSERT_GT(bound_outputs, 0u) << "the golden holds no packet mid-output";
  const std::vector<std::uint8_t> resaved = run.checkpoint_payload();
  for (const std::uint32_t tag :
       {kCkptNetConfigTag, kCkptNetworkTag, kCkptSourceTag}) {
    const std::vector<std::uint8_t> golden = section_bytes(file.payload, tag);
    ASSERT_FALSE(golden.empty());
    EXPECT_TRUE(golden == section_bytes(resaved, tag)) << "section " << tag;
  }
}

TEST(SnapshotGolden, ResumesAsSoakWithTrackerState) {
  // The golden file carries a trailing SOAK section (3 closed windows at
  // save time); resume_soak must pick the tracker up, not start fresh.
  const SnapshotFile file = read_snapshot_file(golden_path());
  SoakOptions options;
  options.cycles = 8'000;
  options.window.window = 1'000;
  const SoakSummary summary = resume_soak(golden_geometry(), file, options);
  EXPECT_EQ(summary.restore_count, 1u);
  EXPECT_EQ(summary.end_cycle, 8'000u);
  EXPECT_EQ(summary.windows_closed, 8u);  // 3 restored + 5 new
}

TEST(SnapshotGoldenDeathTest, WrongVersionExits2WithClearMessage) {
  auto bytes = golden_bytes();
  bytes[8] = 0x7F;  // u32 format version follows the 8-byte magic
  const std::string path = write_variant("wrong_version", bytes);
  EXPECT_EXIT((void)load_checkpoint_or_exit(path),
              ::testing::ExitedWithCode(2), "version");
  std::remove(path.c_str());
}

TEST(SnapshotGoldenDeathTest, V1GoldenRejectedWithVersionMessage) {
  // The real retired v1 image (not a synthetic byte flip): the loader
  // must refuse it at the version gate with exit 2, never attempt to
  // parse v1 state with v2 readers.
  EXPECT_EXIT((void)load_checkpoint_or_exit(WS_GOLDEN_SNAPSHOT_V1),
              ::testing::ExitedWithCode(2), "version");
}

TEST(SnapshotGoldenDeathTest, BadMagicExits2WithClearMessage) {
  auto bytes = golden_bytes();
  bytes[0] = 'X';
  const std::string path = write_variant("bad_magic", bytes);
  EXPECT_EXIT((void)load_checkpoint_or_exit(path),
              ::testing::ExitedWithCode(2), "magic");
  std::remove(path.c_str());
}

TEST(SnapshotGoldenDeathTest, CorruptedPayloadExits2WithClearMessage) {
  auto bytes = golden_bytes();
  bytes[bytes.size() / 2] ^= 0xFF;  // payload byte; CRC must catch it
  const std::string path = write_variant("corrupt", bytes);
  EXPECT_EXIT((void)load_checkpoint_or_exit(path),
              ::testing::ExitedWithCode(2), "CRC");
  std::remove(path.c_str());
}

TEST(SnapshotGoldenDeathTest, TruncatedFileExits2WithClearMessage) {
  auto bytes = golden_bytes();
  bytes.resize(bytes.size() / 3);
  const std::string path = write_variant("truncated", bytes);
  EXPECT_EXIT((void)load_checkpoint_or_exit(path),
              ::testing::ExitedWithCode(2), "truncat");
  std::remove(path.c_str());
}

TEST(SnapshotGoldenDeathTest, MissingFileExits2WithClearMessage) {
  EXPECT_EXIT(
      (void)load_checkpoint_or_exit(golden_path() + ".does-not-exist"),
      ::testing::ExitedWithCode(2), "wormsched:");
}

TEST(SnapshotGolden, EveryTruncationFailsCleanly) {
  // Chop the golden image at every length (byte granularity): each
  // variant must throw SnapshotError from the container parse — never
  // crash, never read out of bounds, never restore garbage.
  const auto bytes = golden_bytes();
  ASSERT_GT(bytes.size(), 0u);
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW((void)parse_snapshot_bytes(cut), SnapshotError) << len;
  }
}

TEST(SnapshotGolden, MetaCorruptionCannotMisreadKind) {
  // Rewrite the container with a corrupted META section (valid CRC, so
  // the container parses): the provenance reader must reject an unknown
  // kind with SnapshotError rather than restore the wrong run type.
  SnapshotFile file = read_snapshot_file(golden_path());
  // META is the first section: tag u32 | len u64 | str kind ("network").
  // Flip a byte of the kind string inside the payload.
  // Section header = 4 (tag) + 8 (len); string = 8 (len) + chars.
  file.payload[4 + 8 + 8] = 'x';
  const std::string path = write_variant("bad_kind", {});
  write_snapshot_file(path, file.manifest_json, file.payload);
  const SnapshotFile reread = read_snapshot_file(path);
  EXPECT_THROW((void)read_checkpoint_provenance(reread), SnapshotError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wormsched::harness
