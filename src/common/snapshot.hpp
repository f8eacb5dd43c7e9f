// Versioned binary snapshot primitives (checkpoint/restore).
//
// A snapshot is a flat byte stream of fixed-width little-endian fields
// grouped into length-prefixed, tagged sections, wrapped in a file
// container that carries the format version, the run's
// wormsched-manifest-v1 provenance JSON, and a CRC32 of the payload.
// Every value is written at full precision — doubles round-trip via
// bit_cast, so restored statistics are bit-identical, which is what the
// restore-equivalence differential tests assert.
//
// Error handling contract: every malformed input (bad magic, unsupported
// version, truncation, CRC mismatch, section-tag mismatch) throws
// SnapshotError with a message that names the problem.  Nothing is ever
// read past the declared bounds, so a corrupted snapshot can fail but
// never invoke undefined behaviour.  CLI front ends catch SnapshotError
// and exit 2.
//
// Compatibility policy (docs/TESTING.md): the payload layout is frozen
// per format version.  Any layout change bumps kSnapshotFormatVersion;
// a committed golden file per version pins the promise that old
// snapshots keep loading (or are rejected with a clear message, never
// misread).
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace wormsched {

/// Bumped whenever the payload layout changes.  The reader accepts only
/// its own version; older builds reject newer files with a clear message.
inline constexpr std::uint32_t kSnapshotFormatVersion = 2;

class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `size` bytes.
[[nodiscard]] std::uint32_t snapshot_crc32(const std::uint8_t* data,
                                           std::size_t size);

/// --- Fixed-width fields --------------------------------------------------
///
/// The one place byte order is handled: every u32/u64/f64 field, section
/// length and CRC trailer goes through these.  On a little-endian host
/// each is a plain copy; elsewhere the bytes are reversed, so files stay
/// little-endian on every host.  (A bulk run of doubles, save_doubles and
/// Archive::doubles, is one copy on a little-endian host and these per
/// element elsewhere.)

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "mixed-endian hosts are not supported");

template <std::unsigned_integral U>
constexpr U to_little_endian(U v) {
  if constexpr (std::endian::native == std::endian::little) {
    return v;
  } else {
    U out = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i, v >>= 8)
      out = static_cast<U>((out << 8) | (v & 0xFFu));
    return out;
  }
}

template <std::unsigned_integral U>
inline void store_le(std::uint8_t* dst, U v) {
  v = to_little_endian(v);
  std::memcpy(dst, &v, sizeof(U));
}

template <std::unsigned_integral U>
[[nodiscard]] inline U load_le(const std::uint8_t* src) {
  U v = 0;
  std::memcpy(&v, src, sizeof(U));
  return to_little_endian(v);
}

class SnapshotWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Exact: the double's bit pattern, not a decimal rendering.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  /// Appends pre-encoded bytes verbatim (no length prefix).  Lets writers
  /// that stream a section body into a side buffer splice it in at the end.
  void raw(const std::uint8_t* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  /// Opens a tagged, length-prefixed section (sections may nest).  The
  /// length lets a reader skip sections it does not understand.
  void begin_section(std::uint32_t tag);
  void end_section();

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    WS_CHECK_MSG(open_sections_.empty(), "unclosed snapshot section");
    return buf_;
  }
  /// Hands the finished buffer over without copying it; the writer is
  /// empty afterwards.
  [[nodiscard]] std::vector<std::uint8_t> take() {
    WS_CHECK_MSG(open_sections_.empty(), "unclosed snapshot section");
    return std::exchange(buf_, {});
  }

 private:
  friend void save_doubles(SnapshotWriter& w, const std::vector<double>& v);

  /// Appends `n` bytes for the caller to fill; the pointer is valid until
  /// the next write.
  std::uint8_t* grow(std::size_t n);

  std::vector<std::uint8_t> buf_;
  std::vector<std::size_t> open_sections_;  // offsets of length fields
};

class SnapshotReader {
 public:
  SnapshotReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit SnapshotReader(const std::vector<std::uint8_t>& payload)
      : SnapshotReader(payload.data(), payload.size()) {}

  [[nodiscard]] std::uint8_t u8() { return *raw(1); }
  [[nodiscard]] bool b() { return u8() != 0; }
  [[nodiscard]] std::uint32_t u32() {
    return load_le<std::uint32_t>(raw(sizeof(std::uint32_t)));
  }
  [[nodiscard]] std::uint64_t u64() {
    return load_le<std::uint64_t>(raw(sizeof(std::uint64_t)));
  }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    const std::uint8_t* s = raw(n);
    return std::string(reinterpret_cast<const char*>(s),
                       static_cast<std::size_t>(n));
  }
  /// Borrows the next `n` bytes verbatim (the counterpart of
  /// SnapshotWriter::raw); bounds-checked before anything is touched.
  [[nodiscard]] const std::uint8_t* raw(std::uint64_t n) {
    need(n);
    const std::uint8_t* at = data_ + pos_;
    pos_ += static_cast<std::size_t>(n);
    return at;
  }

  /// Tag of the next section without consuming it; 0 when the current
  /// scope has no bytes left (0 is never a valid tag).
  [[nodiscard]] std::uint32_t peek_section() const;
  /// Enters the next section, which must carry `tag`.
  void enter_section(std::uint32_t tag);
  /// Leaves the current section, skipping any unread remainder (forward
  /// compatibility: a reader may ignore trailing fields a newer writer
  /// appended within a section).
  void leave_section();
  /// Skips the next section wholesale.
  void skip_section();

  [[nodiscard]] bool exhausted() const { return pos_ >= limit(); }
  /// Offset of the next byte to read.
  [[nodiscard]] std::size_t position() const { return pos_; }
  /// Unread bytes left in the current scope (section or whole stream).
  [[nodiscard]] std::size_t remaining() const { return limit() - pos_; }

 private:
  [[nodiscard]] std::size_t limit() const {
    return section_ends_.empty() ? size_ : section_ends_.back();
  }
  void need(std::uint64_t n) const {
    if (n > limit() - pos_)
      throw SnapshotError("snapshot truncated (read past end of data)");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::vector<std::size_t> section_ends_;
};

/// A u64 count and then each double as an f64 field, written in bulk (the
/// latency reservoir is most of a fabric checkpoint).  Archive::doubles
/// is its declaration and reads it back.
void save_doubles(SnapshotWriter& w, const std::vector<double>& v);

/// --- File container ------------------------------------------------------
///
/// Layout: magic "WSNPSHOT" | u32 version | u32 flags (0) |
///         u64 manifest_len + manifest JSON (wormsched-manifest-v1) |
///         u64 payload_len + payload | u32 crc32(payload).
/// Checks run in that order, so a wrong-version file is reported as such
/// even when the rest is unreadable.

struct SnapshotFile {
  std::uint32_t version = kSnapshotFormatVersion;
  std::string manifest_json;  // provenance, carried verbatim
  std::vector<std::uint8_t> payload;
};

/// Throws std::runtime_error when the path cannot be written.
void write_snapshot_file(const std::string& path,
                         const std::string& manifest_json,
                         const std::vector<std::uint8_t>& payload);

/// Throws SnapshotError on any malformed input (see file comment).
[[nodiscard]] SnapshotFile read_snapshot_file(const std::string& path);

/// The whole file in one buffer, sized once from the file's length.  The
/// reader behind both containers (snapshots and binary traces); `what`
/// names the file kind in the SnapshotError thrown when the path cannot
/// be opened or read.
[[nodiscard]] std::vector<std::uint8_t> read_file_bytes(
    const std::string& path, std::string_view what);

/// Container parse of an in-memory image (the file reader's core; also
/// what the corruption tests drive directly).
[[nodiscard]] SnapshotFile parse_snapshot_bytes(
    const std::vector<std::uint8_t>& bytes);

}  // namespace wormsched
