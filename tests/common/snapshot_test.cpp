// Snapshot primitive and container tests (docs/TESTING.md).
//
// Two promises under test: (1) every field round-trips bit-exactly —
// doubles travel as raw bit patterns, so NaN payloads and signed zeros
// survive; (2) every malformed input fails with SnapshotError and a
// message naming the problem, never undefined behaviour.  The corruption
// matrix drives parse_snapshot_bytes directly so each mutation lands on
// a known container field.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/snapshot.hpp"

namespace wormsched {
namespace {

TEST(SnapshotPrimitives, ScalarsRoundTripBitExactly) {
  SnapshotWriter w;
  w.u8(0xAB);
  w.b(true);
  w.b(false);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(0.1);  // not representable exactly; must round-trip bit-for-bit
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.str("hello");
  w.str("");

  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 0.1);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(SnapshotPrimitives, ReadPastEndThrows) {
  SnapshotWriter w;
  w.u32(7);
  SnapshotReader r(w.bytes());
  (void)r.u32();
  EXPECT_THROW((void)r.u64(), SnapshotError);
}

TEST(SnapshotPrimitives, TruncatedStringLengthThrows) {
  SnapshotWriter w;
  w.u64(1000);  // claims a 1000-byte string with no bytes behind it
  SnapshotReader r(w.bytes());
  EXPECT_THROW((void)r.str(), SnapshotError);
}

TEST(SnapshotSections, NestAndRoundTrip) {
  SnapshotWriter w;
  w.begin_section(0x11111111u);
  w.u64(1);
  w.begin_section(0x22222222u);
  w.u64(2);
  w.end_section();
  w.u64(3);
  w.end_section();

  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.peek_section(), 0x11111111u);
  r.enter_section(0x11111111u);
  EXPECT_EQ(r.u64(), 1u);
  r.enter_section(0x22222222u);
  EXPECT_EQ(r.u64(), 2u);
  r.leave_section();
  EXPECT_EQ(r.u64(), 3u);
  r.leave_section();
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.peek_section(), 0u);
}

TEST(SnapshotSections, SkipUnknownSection) {
  // Forward compatibility: a reader hops over sections it does not know
  // (how NetworkRun leaves the soak harness's trailing SOAK section
  // unread, and how resume_soak finds it).
  SnapshotWriter w;
  w.begin_section(0x41414141u);
  w.u64(99);
  w.str("future payload this reader cannot interpret");
  w.end_section();
  w.begin_section(0x42424242u);
  w.u64(7);
  w.end_section();

  SnapshotReader r(w.bytes());
  r.skip_section();
  r.enter_section(0x42424242u);
  EXPECT_EQ(r.u64(), 7u);
  r.leave_section();
  EXPECT_TRUE(r.exhausted());
}

TEST(SnapshotSections, LeaveSkipsUnreadRemainder) {
  // A section may grow trailing fields in a newer writer; an older
  // reader leaves them unread without losing stream position.
  SnapshotWriter w;
  w.begin_section(0x51515151u);
  w.u64(1);
  w.u64(2);  // the "new" trailing field
  w.end_section();
  w.u64(77);

  SnapshotReader r(w.bytes());
  r.enter_section(0x51515151u);
  EXPECT_EQ(r.u64(), 1u);
  r.leave_section();  // the unread u64(2) is skipped
  EXPECT_EQ(r.u64(), 77u);
}

TEST(SnapshotSections, WrongTagThrows) {
  SnapshotWriter w;
  w.begin_section(0x61616161u);
  w.end_section();
  SnapshotReader r(w.bytes());
  EXPECT_THROW(r.enter_section(0x99999999u), SnapshotError);
}

TEST(SnapshotSections, SectionBoundsReads) {
  // Reads inside a section must not cross its declared end even when the
  // stream has more bytes after it.
  SnapshotWriter w;
  w.begin_section(0x71717171u);
  w.u8(1);
  w.end_section();
  w.u64(0xFFFFFFFFFFFFFFFFull);
  SnapshotReader r(w.bytes());
  r.enter_section(0x71717171u);
  EXPECT_EQ(r.u8(), 1);
  EXPECT_THROW((void)r.u64(), SnapshotError);  // would cross the boundary
}

TEST(SnapshotSequences, VectorAndDoublesRoundTrip) {
  SnapshotWriter w;
  const std::vector<std::uint32_t> ids = {1, 5, 9};
  save_sequence(w, ids, [](SnapshotWriter& o, std::uint32_t v) { o.u32(v); });
  const std::vector<double> xs = {0.25, -1e300, 3.0};
  save_doubles(w, xs);

  SnapshotReader r(w.bytes());
  std::vector<std::uint32_t> ids2;
  restore_sequence(r, ids2, [](SnapshotReader& in) { return in.u32(); });
  EXPECT_EQ(ids2, ids);
  std::vector<double> xs2;
  restore_doubles(r, xs2);
  EXPECT_EQ(xs2, xs);
}

TEST(SnapshotSequences, CountBeyondRemainingBytesThrowsBeforeAllocating) {
  // A count field set huge (CRC recomputed) must fail as corruption, not
  // as std::length_error / std::bad_alloc from sizing the container.
  SnapshotWriter w;
  w.u64(~std::uint64_t{0});
  w.u32(1);
  SnapshotReader r(w.bytes());
  std::vector<std::uint32_t> v;
  EXPECT_THROW(restore_sequence(r, v,
                                [](SnapshotReader& in) { return in.u32(); }),
               SnapshotError);
  SnapshotReader ring_reader(w.bytes());
  RingBuffer<std::uint32_t> ring;
  EXPECT_THROW(restore_sequence(ring_reader, ring,
                                [](SnapshotReader& in) { return in.u32(); }),
               SnapshotError);

  // The bound is the enclosing section, not the whole stream.
  SnapshotWriter s;
  s.begin_section(0x81818181u);
  s.u64(2);  // claims two elements; one byte left in the section
  s.u8(1);
  s.end_section();
  s.u64(0);  // bytes after the section do not count
  SnapshotReader sr(s.bytes());
  sr.enter_section(0x81818181u);
  std::vector<std::uint8_t> bytes;
  EXPECT_THROW(restore_sequence(sr, bytes,
                                [](SnapshotReader& in) { return in.u8(); }),
               SnapshotError);
}

TEST(SnapshotPrimitives, RemainingTracksTheCurrentScope) {
  SnapshotWriter w;
  w.begin_section(0x91919191u);
  w.u32(5);
  w.end_section();
  w.u8(0);
  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.remaining(), w.bytes().size());
  r.enter_section(0x91919191u);
  EXPECT_EQ(r.remaining(), 4u);
  (void)r.u32();
  EXPECT_EQ(r.remaining(), 0u);
  r.leave_section();
  EXPECT_EQ(r.remaining(), 1u);
}

/// --- File container corruption matrix ------------------------------------

class SnapshotFileTest : public ::testing::Test {
 protected:
  std::string path() const {
    return testing::TempDir() + "snapshot_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".wsnp";
  }

  std::vector<std::uint8_t> valid_image() {
    SnapshotWriter w;
    w.begin_section(0x31313131u);
    w.u64(1234);
    w.end_section();
    const std::string p = path();
    write_snapshot_file(p, "{\"schema\":\"wormsched-manifest-v1\"}",
                        w.bytes());
    std::ifstream in(p, std::ios::binary);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    std::remove(p.c_str());
    return bytes;
  }
};

TEST_F(SnapshotFileTest, WriteReadRoundTrip) {
  SnapshotWriter w;
  w.begin_section(0x31313131u);
  w.u64(1234);
  w.end_section();
  const std::string p = path();
  write_snapshot_file(p, "{\"seed\":7}", w.bytes());
  const SnapshotFile file = read_snapshot_file(p);
  EXPECT_EQ(file.version, kSnapshotFormatVersion);
  EXPECT_EQ(file.manifest_json, "{\"seed\":7}");
  EXPECT_EQ(file.payload, w.bytes());
  std::remove(p.c_str());
}

TEST_F(SnapshotFileTest, MissingFileThrows) {
  EXPECT_THROW((void)read_snapshot_file(path() + ".does-not-exist"),
               SnapshotError);
}

TEST_F(SnapshotFileTest, ValidImageParses) {
  const SnapshotFile file = parse_snapshot_bytes(valid_image());
  SnapshotReader r(file.payload);
  r.enter_section(0x31313131u);
  EXPECT_EQ(r.u64(), 1234u);
}

TEST_F(SnapshotFileTest, BadMagicThrows) {
  auto bytes = valid_image();
  bytes[0] ^= 0xFF;
  try {
    (void)parse_snapshot_bytes(bytes);
    FAIL() << "bad magic accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
}

TEST_F(SnapshotFileTest, WrongVersionThrows) {
  auto bytes = valid_image();
  bytes[8] = 0xEE;  // u32 version follows the 8-byte magic
  try {
    (void)parse_snapshot_bytes(bytes);
    FAIL() << "wrong version accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST_F(SnapshotFileTest, EveryTruncationThrows) {
  // Chop the image at every length: none may read out of bounds (ASan
  // would catch it) and none may parse successfully.
  const auto bytes = valid_image();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)parse_snapshot_bytes(cut), SnapshotError) << len;
  }
}

TEST_F(SnapshotFileTest, PayloadCorruptionFailsCrc) {
  // Flip one bit in every payload byte position; each must be caught by
  // the CRC before any section parsing happens.
  const auto bytes = valid_image();
  // Payload sits between the manifest and the trailing 4-byte CRC.
  const std::size_t crc_start = bytes.size() - 4;
  for (std::size_t pos = crc_start - 9; pos < crc_start; ++pos) {
    auto corrupt = bytes;
    corrupt[pos] ^= 0x01;
    try {
      (void)parse_snapshot_bytes(corrupt);
      FAIL() << "corrupt payload byte " << pos << " accepted";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(SnapshotFileTest, HugePayloadLengthThrowsBeforeAllocating) {
  // The u64 payload length precedes the 20-byte payload (section tag,
  // section length, one u64) and the 4-byte CRC.
  auto bytes = valid_image();
  const std::size_t len_at = bytes.size() - 4 - 20 - 8;
  for (std::size_t i = 0; i < 8; ++i) bytes[len_at + i] = 0xFF;
  EXPECT_THROW((void)parse_snapshot_bytes(bytes), SnapshotError);
}

TEST_F(SnapshotFileTest, CrcFieldCorruptionDetected) {
  auto bytes = valid_image();
  bytes.back() ^= 0xFF;
  EXPECT_THROW((void)parse_snapshot_bytes(bytes), SnapshotError);
}

TEST(SnapshotCrc, KnownVector) {
  // IEEE 802.3 check value: crc32("123456789") == 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(snapshot_crc32(reinterpret_cast<const std::uint8_t*>(s), 9),
            0xCBF43926u);
}

}  // namespace
}  // namespace wormsched
