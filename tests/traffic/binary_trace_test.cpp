// Binary trace container tests (docs/TRACE_FORMAT.md).
//
// The committed tests/data/golden_v1.wst pins the version-1 byte format:
// it was written by `wormsched trace-gen --flows 16 --cycles 400 --seed
// 42` and its header totals are asserted verbatim below.  Any layout
// change that still claims version 1 breaks these tests; an intentional
// change must bump kBinaryTraceFormatVersion and commit a new golden.
//
// The rejection matrix mirrors the snapshot golden suite: bad magic,
// wrong version, CRC corruption, byte-granularity truncation, varint
// overflow and META/stream total disagreement must all throw
// SnapshotError — never crash, never read out of bounds (the ASan CI
// leg runs this suite too).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "traffic/binary_trace.hpp"
#include "traffic/trace_synth.hpp"

namespace wormsched::traffic {
namespace {

std::string golden_path() { return WS_GOLDEN_TRACE; }

std::vector<std::uint8_t> golden_bytes() {
  std::ifstream in(golden_path(), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << golden_path();
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

// File-format constants, restated independently of the implementation so
// a constant drift in binary_trace.cpp cannot silently re-pin the format.
constexpr std::size_t kVersionOffset = 8;  // u32 after the 8-byte magic
constexpr std::size_t kHeaderFixed = 8 + 4 + 4 + 8;  // ... + meta length

/// Payload offset inside a container image (after the meta JSON).
std::size_t payload_offset(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t meta_len = 0;
  std::memcpy(&meta_len, bytes.data() + 16, sizeof(meta_len));
  return kHeaderFixed + static_cast<std::size_t>(meta_len) + 8;
}

/// Rewrites the CRC trailer after a deliberate payload edit, so the test
/// reaches the semantic validation instead of the CRC check.
void refresh_crc(std::vector<std::uint8_t>& bytes) {
  const std::size_t payload = payload_offset(bytes);
  const std::size_t payload_len = bytes.size() - payload - 4;
  const std::uint32_t crc =
      snapshot_crc32(bytes.data() + payload, payload_len);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
}

Trace drain(BinaryTraceReader& reader) {
  Trace trace;
  trace.num_flows = reader.num_flows();
  while (auto entry = reader.next()) trace.entries.push_back(*entry);
  return trace;
}

TEST(BinaryTrace, RoundTripIsBitIdentical) {
  SynthSpec spec;
  spec.num_flows = 64;
  spec.horizon = 2'000;
  spec.elephant_fraction = 0.2;
  spec.churn_epoch = 300;
  spec.incast_every = 500;
  const Trace original = synthesize_trace(spec, 9);
  ASSERT_FALSE(original.entries.empty());

  const auto bytes = encode_binary_trace(original, "{\"k\":1}");
  const Trace decoded = decode_binary_trace(bytes);
  ASSERT_EQ(decoded.num_flows, original.num_flows);
  ASSERT_EQ(decoded.entries.size(), original.entries.size());
  for (std::size_t i = 0; i < original.entries.size(); ++i) {
    EXPECT_EQ(decoded.entries[i].cycle, original.entries[i].cycle);
    EXPECT_EQ(decoded.entries[i].flow, original.entries[i].flow);
    EXPECT_EQ(decoded.entries[i].length, original.entries[i].length);
  }
  // Re-encoding the decode reproduces the image byte for byte.
  EXPECT_EQ(encode_binary_trace(decoded, "{\"k\":1}"), bytes);
}

TEST(BinaryTrace, StreamingReaderMatchesWholeTraceDecode) {
  SynthSpec spec;
  spec.num_flows = 8;
  spec.horizon = 1'000;
  const Trace original = synthesize_trace(spec, 3);
  const auto bytes = encode_binary_trace(original);

  BinaryTraceReader reader(bytes);
  EXPECT_EQ(reader.entry_count(), original.entries.size());
  EXPECT_EQ(reader.total_flits(), original.total_flits());
  EXPECT_EQ(reader.max_length(), original.max_observed_length());
  const Trace streamed = drain(reader);
  const Trace decoded = decode_binary_trace(bytes);
  ASSERT_EQ(streamed.entries.size(), decoded.entries.size());
  for (std::size_t i = 0; i < streamed.entries.size(); ++i)
    EXPECT_EQ(streamed.entries[i].cycle, decoded.entries[i].cycle);
  // Exhausted reader stays exhausted.
  EXPECT_FALSE(reader.next().has_value());
}

TEST(BinaryTrace, EmptyTraceRoundTrips) {
  Trace empty;
  empty.num_flows = 4;
  const auto bytes = encode_binary_trace(empty);
  BinaryTraceReader reader(bytes);
  EXPECT_EQ(reader.entry_count(), 0u);
  EXPECT_EQ(reader.horizon(), 0u);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(BinaryTrace, FileRoundTripAndSniff) {
  SynthSpec spec;
  spec.num_flows = 5;
  spec.horizon = 300;
  const Trace original = synthesize_trace(spec, 11);
  const std::string path = testing::TempDir() + "roundtrip.wst";
  save_binary_trace_file(path, original);
  const std::vector<std::uint8_t> bytes = read_file_bytes(path, "trace");
  EXPECT_TRUE(is_binary_trace(bytes.data(), bytes.size()));
  const Trace loaded = load_binary_trace_file(path);
  EXPECT_EQ(loaded.entries.size(), original.entries.size());
  EXPECT_EQ(loaded.total_flits(), original.total_flits());
  std::remove(path.c_str());
}

// --- Golden format pin -----------------------------------------------

TEST(BinaryTraceGolden, HeaderTotalsArePinned) {
  const auto bytes = golden_bytes();
  ASSERT_EQ(bytes.size(), 236u);
  BinaryTraceReader reader(bytes);
  EXPECT_EQ(reader.num_flows(), 16u);
  EXPECT_EQ(reader.entry_count(), 20u);
  EXPECT_EQ(reader.horizon(), 386u);
  EXPECT_EQ(reader.total_flits(), 435);
  EXPECT_EQ(reader.max_length(), 252);
  EXPECT_NE(reader.meta_json().find("wormsched-trace-meta-v1"),
            std::string::npos);
  EXPECT_NE(reader.meta_json().find("\"seed\":42"), std::string::npos);
}

TEST(BinaryTraceGolden, DecodesAndReencodesBitIdentically) {
  const auto bytes = golden_bytes();
  BinaryTraceReader reader(bytes);
  const std::string meta = reader.meta_json();
  const Trace trace = drain(reader);
  EXPECT_EQ(trace.entries.size(), 20u);
  EXPECT_EQ(trace.total_flits(), 435);
  // The golden bytes are reproducible from their own decode: writer and
  // reader agree on the version-1 layout exactly.
  EXPECT_EQ(encode_binary_trace(trace, meta), bytes);
}

// --- Rejection matrix ------------------------------------------------

TEST(BinaryTraceGolden, BadMagicIsRejected) {
  auto bytes = golden_bytes();
  bytes[0] = 'X';
  EXPECT_THROW((void)decode_binary_trace(bytes), SnapshotError);
  EXPECT_FALSE(is_binary_trace(bytes.data(), bytes.size()));
}

TEST(BinaryTraceGolden, WrongVersionIsRejectedWithClearMessage) {
  auto bytes = golden_bytes();
  bytes[kVersionOffset] = 0x7F;
  try {
    (void)decode_binary_trace(bytes);
    FAIL() << "wrong version was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(BinaryTraceGolden, CrcCatchesAnySinglePayloadCorruption) {
  const auto bytes = golden_bytes();
  const std::size_t payload = payload_offset(bytes);
  for (std::size_t i = payload; i < bytes.size() - 4; ++i) {
    auto mutant = bytes;
    mutant[i] ^= 0xFF;
    EXPECT_THROW((void)decode_binary_trace(mutant), SnapshotError)
        << "corrupted byte " << i << " was accepted";
  }
}

TEST(BinaryTraceGolden, EveryTruncationFailsCleanly) {
  const auto bytes = golden_bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    bool threw = false;
    try {
      BinaryTraceReader reader(cut);
      (void)drain(reader);
    } catch (const SnapshotError&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "truncation at " << len << " was accepted";
  }
}

TEST(BinaryTraceGolden, MetaTotalDisagreementIsCaughtDespiteValidCrc) {
  // META section body starts after the section header (u32 tag +
  // u64 length): num_flows, entry_count, horizon, then i64 total_flits.
  auto bytes = golden_bytes();
  const std::size_t total_flits_at = payload_offset(bytes) + 12 + 24;
  std::int64_t total = 0;
  std::memcpy(&total, bytes.data() + total_flits_at, sizeof(total));
  ++total;
  std::memcpy(bytes.data() + total_flits_at, &total, sizeof(total));
  refresh_crc(bytes);
  EXPECT_THROW((void)decode_binary_trace(bytes), SnapshotError);
}

TEST(BinaryTraceGolden, ShrunkFlowCountRejectsOutOfRangeEntries) {
  // Same valid-CRC trick on num_flows: entries now name flows past the
  // declared range and the per-entry validation must catch them.
  auto bytes = golden_bytes();
  const std::size_t num_flows_at = payload_offset(bytes) + 12;
  const std::uint64_t one = 1;
  std::memcpy(bytes.data() + num_flows_at, &one, sizeof(one));
  refresh_crc(bytes);
  EXPECT_THROW((void)decode_binary_trace(bytes), SnapshotError);
}

TEST(BinaryTraceGolden, ZeroFlowCountIsRejected) {
  auto bytes = golden_bytes();
  const std::size_t num_flows_at = payload_offset(bytes) + 12;
  const std::uint64_t zero = 0;
  std::memcpy(bytes.data() + num_flows_at, &zero, sizeof(zero));
  refresh_crc(bytes);
  EXPECT_THROW((void)decode_binary_trace(bytes), SnapshotError);
}

TEST(BinaryTrace, VarintOverflowIsRejected) {
  // Hand-build a container whose single entry starts with an 11-byte
  // varint (ten continuation bytes): the decoder must throw, not wrap.
  SnapshotWriter payload;
  payload.begin_section(0x4154454D);  // "META"
  payload.u64(1);   // num_flows
  payload.u64(1);   // entry_count
  payload.u64(1);   // horizon
  payload.i64(1);   // total_flits
  payload.i64(1);   // max_length
  payload.end_section();
  payload.begin_section(0x52544E45);  // "ENTR"
  for (int i = 0; i < 10; ++i) payload.u8(0xFF);
  payload.u8(0x01);
  payload.end_section();

  SnapshotWriter file;
  for (const char c : {'W', 'S', 'T', 'R', 'A', 'C', 'E', '\0'})
    file.u8(static_cast<std::uint8_t>(c));
  file.u32(kBinaryTraceFormatVersion);
  file.u32(0);
  file.str("{}");
  file.u64(payload.bytes().size());
  file.raw(payload.bytes().data(), payload.bytes().size());
  file.u32(snapshot_crc32(payload.bytes().data(), payload.bytes().size()));

  EXPECT_THROW((void)decode_binary_trace(file.bytes()), SnapshotError);
}

// --- Synthesizer determinism -----------------------------------------

TEST(TraceSynth, SameSeedSameTraceDifferentSeedDiffers) {
  SynthSpec spec;
  spec.num_flows = 32;
  spec.horizon = 1'500;
  spec.churn_epoch = 250;
  const Trace a = synthesize_trace(spec, 5);
  const Trace b = synthesize_trace(spec, 5);
  const Trace c = synthesize_trace(spec, 6);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].cycle, b.entries[i].cycle);
    EXPECT_EQ(a.entries[i].flow, b.entries[i].flow);
    EXPECT_EQ(a.entries[i].length, b.entries[i].length);
  }
  EXPECT_EQ(encode_binary_trace(a), encode_binary_trace(b));
  EXPECT_NE(encode_binary_trace(a), encode_binary_trace(c));
}

TEST(TraceSynth, StreamingSinkMatchesMaterializedTrace) {
  SynthSpec spec;
  spec.num_flows = 16;
  spec.horizon = 800;
  spec.incast_every = 200;
  const Trace whole = synthesize_trace(spec, 21);
  BinaryTraceWriter writer(spec.num_flows);
  synthesize_trace(spec, 21,
                   [&](const TraceEntry& e) { writer.append(e); });
  EXPECT_EQ(writer.finish(), encode_binary_trace(whole));
}

TEST(TraceSynth, EntriesAreOrderedInRangeAndRoughlyAtLoad) {
  SynthSpec spec;
  spec.num_flows = 100;
  spec.horizon = 20'000;
  spec.load = 0.8;
  const Trace trace = synthesize_trace(spec, 77);
  Cycle prev = 0;
  for (const TraceEntry& e : trace.entries) {
    EXPECT_GE(e.cycle, prev);
    EXPECT_LT(e.cycle, spec.horizon);
    EXPECT_LT(e.flow.index(), spec.num_flows);
    EXPECT_GT(e.length, 0);
    prev = e.cycle;
  }
  const double offered = static_cast<double>(trace.total_flits()) /
                         static_cast<double>(spec.horizon);
  EXPECT_GT(offered, 0.5 * spec.load);
  EXPECT_LT(offered, 1.5 * spec.load);
}

}  // namespace
}  // namespace wormsched::traffic
