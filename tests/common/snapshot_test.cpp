// Snapshot primitive and container tests (docs/TESTING.md).
//
// Two promises under test: (1) every field round-trips bit-exactly —
// doubles travel as raw bit patterns, so NaN payloads and signed zeros
// survive; (2) every malformed input fails with SnapshotError and a
// message naming the problem, never undefined behaviour.  The corruption
// matrix drives parse_snapshot_bytes directly so each mutation lands on
// a known container field.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "common/archive.hpp"
#include "common/ring_buffer.hpp"
#include "common/snapshot.hpp"

namespace wormsched {
namespace {

// Byte-at-a-time reference, one polynomial step per bit: shares nothing
// with the sliced tables under test.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k)
      crc = (crc & 1) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> pseudo_random_bytes(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& byte : bytes) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    byte = static_cast<std::uint8_t>(x >> 32);
  }
  return bytes;
}

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

TEST(SnapshotPrimitives, FixedWidthFieldsRoundTripAtOddOffsets) {
  // A leading u8 puts the u32, u64 and f64 at odd offsets (1, 5, 13),
  // so their loads and stores are misaligned.  The bytes are pinned too:
  // fields are little-endian on every host.
  SnapshotWriter w;
  w.u8(0x5A);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-1.5e-300);
  w.u8(0xA5);
  w.u32(0x01020304u);
  const std::vector<std::uint8_t>& bytes = w.bytes();
  ASSERT_EQ(bytes.size(), 1u + 4 + 8 + 8 + 1 + 4);
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin() + 1, bytes.begin() + 5),
            (std::vector<std::uint8_t>{0xEF, 0xBE, 0xAD, 0xDE}));
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin() + 5, bytes.begin() + 13),
            (std::vector<std::uint8_t>{0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45,
                                       0x23, 0x01}));

  SnapshotReader r(bytes);
  EXPECT_EQ(r.u8(), 0x5A);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(-1.5e-300));
  EXPECT_EQ(r.u8(), 0xA5);
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_TRUE(r.exhausted());
}

TEST(SnapshotPrimitives, TakeHandsOverTheBufferAndEmptiesTheWriter) {
  SnapshotWriter w;
  w.begin_section(0x12121212u);
  w.u64(9);
  w.end_section();
  const std::vector<std::uint8_t> expected = w.bytes();
  EXPECT_EQ(w.take(), expected);
  EXPECT_TRUE(w.bytes().empty());
  w.u8(1);  // still usable
  EXPECT_EQ(w.take(), std::vector<std::uint8_t>{1});
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

// Sequences are declared through an Archive (common/archive.hpp): the
// same declaration saves and restores them.
void u32_seq(Archive& a, std::vector<std::uint32_t>& v) {
  a.seq("ids", v, [&a](std::uint32_t& x) { a.u32("", x); });
}

TEST(SnapshotSequences, VectorAndDoublesRoundTrip) {
  SnapshotWriter w;
  std::vector<std::uint32_t> ids = {1, 5, 9};
  std::vector<double> xs = {0.25, -1e300, 3.0};
  Archive saving(w);
  u32_seq(saving, ids);
  saving.doubles("xs", xs);

  SnapshotReader r(w.bytes());
  Archive a(r);
  std::vector<std::uint32_t> ids2;
  u32_seq(a, ids2);
  EXPECT_EQ(ids2, ids);
  std::vector<double> xs2;
  a.doubles("xs", xs2);
  EXPECT_EQ(xs2, xs);
}

TEST(SnapshotSequences, DoublesRoundTripSpecialValuesBitForBit) {
  std::vector<double> xs = {
      std::bit_cast<double>(0x7FF8DEADBEEF1234ull),  // NaN with a payload
      std::bit_cast<double>(0xFFFC00000000ABCDull),  // negative NaN, payload
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  SnapshotWriter w;
  Archive(w).doubles("xs", xs);
  SnapshotReader r(w.bytes());
  std::vector<double> back = {42.0};  // restore replaces, never appends
  Archive(r).doubles("xs", back);
  EXPECT_TRUE(r.exhausted());
  ASSERT_EQ(back.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(xs[i]))
        << i;
}

TEST(SnapshotSequences, BulkDoublesMatchThePerElementEncoding) {
  // The bulk codec is a faster path to the same bytes: a u64 count, then
  // one f64 field per element.  Each side reads what the other wrote, and
  // the describer (a restore with a map) reads them element by element.
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(static_cast<double>(i) * 0.37);
  SnapshotWriter bulk;
  bulk.u8(7);  // misaligns the sequence
  Archive(bulk).doubles("xs", xs);
  SnapshotWriter each;
  each.u8(7);
  Archive per_element(each);
  per_element.seq("xs", xs, [&per_element](double& x) {
    per_element.f64("", x);
  });
  EXPECT_EQ(bulk.bytes(), each.bytes());

  for (const bool describe : {false, true}) {
    FieldMap map;
    SnapshotReader r(each.bytes());
    (void)r.u8();
    std::vector<double> back;
    Archive(r, describe ? &map : nullptr).doubles("xs", back);
    EXPECT_EQ(back, xs);
    if (!describe) continue;
    ASSERT_EQ(map.size(), xs.size() + 1);
    EXPECT_EQ(map[0].path, "xs.count");
    EXPECT_EQ(map[1].path, "xs[0]");
    EXPECT_EQ(map[1].offset, 9u);
    EXPECT_EQ(map.back().path, "xs[999]");
  }
}

TEST(SnapshotSequences, DoubleCountAboveRemainingOverEightThrows) {
  // Three doubles claimed, sixteen bytes left: the count is within the
  // bytes left (the generic sequence bound) but not within bytes / 8.
  SnapshotWriter w;
  w.u64(3);
  w.f64(1.0);
  w.f64(2.0);
  SnapshotReader r(w.bytes());
  std::vector<double> v;
  EXPECT_THROW(Archive(r).doubles("xs", v), SnapshotError);
  EXPECT_TRUE(v.empty());
}

TEST(SnapshotSequences, DoubleCountThatWrapsTimesEightThrows) {
  // From 2^61 up, count * 8 wraps: 2^61 + 2 wraps to exactly the sixteen
  // bytes left, so a bound written as count * 8 > left would pass and
  // the vector would be sized from the untrusted count.
  for (const std::uint64_t count :
       {std::uint64_t{1} << 61, (std::uint64_t{1} << 61) + 2,
        std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
    SnapshotWriter w;
    w.u64(count);
    w.f64(1.0);
    w.f64(2.0);
    SnapshotReader r(w.bytes());
    std::vector<double> v;
    EXPECT_THROW(Archive(r).doubles("xs", v), SnapshotError) << count;
  }
}

TEST(SnapshotSequences, CountBeyondRemainingBytesThrowsBeforeAllocating) {
  // A count field set huge (CRC recomputed) must fail as corruption, not
  // as std::length_error / std::bad_alloc from sizing the container.
  SnapshotWriter w;
  w.u64(~std::uint64_t{0});
  w.u32(1);
  SnapshotReader r(w.bytes());
  std::vector<std::uint32_t> v;
  Archive a(r);
  EXPECT_THROW(u32_seq(a, v), SnapshotError);
  SnapshotReader ring_reader(w.bytes());
  RingBuffer<std::uint32_t> ring;
  Archive ring_archive(ring_reader);
  EXPECT_THROW(ring_archive.seq("ids", ring,
                                [&ring_archive](std::uint32_t& x) {
                                  ring_archive.u32("", x);
                                }),
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
  std::vector<std::uint32_t> ids;
  Archive sa(sr);
  EXPECT_THROW(u32_seq(sa, ids), SnapshotError);
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

TEST_F(SnapshotFileTest, ReadFileBytesReadsRegularFilesWhole) {
  // Sizes on both sides of the 64 KiB a pipe read grows by.
  const std::string p = path();
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{1} << 16,
        (std::size_t{1} << 16) + 1, (std::size_t{1} << 20) + 3}) {
    const std::vector<std::uint8_t> bytes = pseudo_random_bytes(size);
    std::FILE* f = std::fopen(p.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!bytes.empty()) {
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    }
    ASSERT_EQ(std::fclose(f), 0);
    EXPECT_EQ(read_file_bytes(p, "snapshot"), bytes) << size;
  }
  std::remove(p.c_str());
}

TEST_F(SnapshotFileTest, ReadFileBytesReadsAPipeOfUnknownLength) {
  // A FIFO has no length to size the buffer from, so the reader grows it
  // as the bytes arrive.
  const std::string p = path();
  std::remove(p.c_str());
  ASSERT_EQ(::mkfifo(p.c_str(), 0600), 0);
  const std::vector<std::uint8_t> bytes = pseudo_random_bytes(200'000);
  std::thread writer([&p, &bytes] {
    std::FILE* f = std::fopen(p.c_str(), "wb");
    if (f == nullptr) return;
    (void)std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  });
  std::vector<std::uint8_t> got;
  EXPECT_NO_THROW(got = read_file_bytes(p, "snapshot"));
  writer.join();
  std::remove(p.c_str());
  EXPECT_EQ(got, bytes);
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

TEST(SnapshotCrc, MatchesReferenceAtEveryLengthAndAlignment) {
  // Every tail length of the 8-byte loop at every start misalignment.
  const std::vector<std::uint8_t> bytes = pseudo_random_bytes(256 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 256; ++len)
      ASSERT_EQ(snapshot_crc32(bytes.data() + offset, len),
                reference_crc32(bytes.data() + offset, len))
          << "offset " << offset << ", length " << len;
}

TEST(SnapshotCrc, MatchesReferenceOnOneMebibyte) {
  const std::vector<std::uint8_t> bytes = pseudo_random_bytes(1 << 20);
  EXPECT_EQ(snapshot_crc32(bytes.data(), bytes.size()),
            reference_crc32(bytes.data(), bytes.size()));
}

}  // namespace
}  // namespace wormsched
