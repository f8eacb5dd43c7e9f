#include "common/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace wormsched {

namespace {

constexpr char kMagic[8] = {'W', 'S', 'N', 'P', 'S', 'H', 'O', 'T'};

// Slicing-by-8 tables: kCrcTables[0] is the byte-at-a-time table, and
// kCrcTables[k][n] is the CRC of byte n followed by k zero bytes, so one
// step folds eight input bytes with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t n = 0; n < 256; ++n)
      t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFu];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// SnapshotWriter::u32/u64 are out of line on purpose: GCC 12 reports a
// false -Wstringop-overflow when a constant-size vector append is inlined
// into a caller that writes a short, known sequence of fields.
template <std::unsigned_integral U>
void put_le(SnapshotWriter& w, U v) {
  std::uint8_t le[sizeof(U)];
  store_le(le, v);
  w.raw(le, sizeof le);
}

}  // namespace

std::uint32_t snapshot_crc32(const std::uint8_t* data, std::size_t size) {
  const CrcTables& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = load_le<std::uint32_t>(data) ^ crc;
    const std::uint32_t hi = load_le<std::uint32_t>(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size)
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void SnapshotWriter::u32(std::uint32_t v) { put_le(*this, v); }
void SnapshotWriter::u64(std::uint64_t v) { put_le(*this, v); }

std::uint8_t* SnapshotWriter::grow(std::size_t n) {
  const std::size_t at = buf_.size();
  buf_.resize(at + n);
  return buf_.data() + at;
}

void SnapshotWriter::begin_section(std::uint32_t tag) {
  WS_CHECK_MSG(tag != 0, "section tag 0 is reserved");
  u32(tag);
  open_sections_.push_back(buf_.size());
  u64(0);  // placeholder, patched by end_section
}

void SnapshotWriter::end_section() {
  WS_CHECK_MSG(!open_sections_.empty(), "end_section without begin_section");
  const std::size_t length_at = open_sections_.back();
  open_sections_.pop_back();
  const std::uint64_t body = buf_.size() - (length_at + 8);
  store_le(buf_.data() + length_at, body);
}

std::uint32_t SnapshotReader::peek_section() const {
  if (limit() - pos_ < 4) return 0;
  return load_le<std::uint32_t>(data_ + pos_);
}

void SnapshotReader::enter_section(std::uint32_t tag) {
  const std::uint32_t found = u32();
  if (found != tag)
    throw SnapshotError("snapshot section mismatch (expected tag " +
                        std::to_string(tag) + ", found " +
                        std::to_string(found) + ")");
  const std::uint64_t length = u64();
  need(length);
  section_ends_.push_back(pos_ + static_cast<std::size_t>(length));
}

void SnapshotReader::leave_section() {
  WS_CHECK_MSG(!section_ends_.empty(), "leave_section outside a section");
  pos_ = section_ends_.back();
  section_ends_.pop_back();
}

void SnapshotReader::skip_section() {
  (void)u32();
  const std::uint64_t length = u64();
  (void)raw(length);
}

void save_doubles(SnapshotWriter& w, const std::vector<double>& v) {
  w.u64(v.size());
  std::uint8_t* out = w.grow(v.size() * sizeof(double));
  if constexpr (std::endian::native == std::endian::little) {
    // The host's byte order is the file's: one copy.
    if (!v.empty()) std::memcpy(out, v.data(), v.size() * sizeof(double));
  } else {
    for (const double x : v) {
      store_le(out, std::bit_cast<std::uint64_t>(x));
      out += sizeof(double);
    }
  }
}

void write_snapshot_file(const std::string& path,
                         const std::string& manifest_json,
                         const std::vector<std::uint8_t>& payload) {
  SnapshotWriter header;
  for (const char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(kSnapshotFormatVersion);
  header.u32(0);  // flags, reserved
  header.str(manifest_json);
  header.u64(payload.size());

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("cannot open snapshot file for writing: " + path);
  bool ok =
      std::fwrite(header.bytes().data(), 1, header.bytes().size(), f) ==
      header.bytes().size();
  ok = ok && (payload.empty() ||
              std::fwrite(payload.data(), 1, payload.size(), f) ==
                  payload.size());
  std::uint8_t crc_bytes[4];
  store_le(crc_bytes, snapshot_crc32(payload.data(), payload.size()));
  ok = ok && std::fwrite(crc_bytes, 1, 4, f) == 4;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) throw std::runtime_error("short write to snapshot file: " + path);
}

SnapshotFile parse_snapshot_bytes(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    throw SnapshotError("not a wormsched snapshot (bad magic)");
  SnapshotReader r(bytes);
  (void)r.raw(sizeof(kMagic));
  SnapshotFile file;
  file.version = r.u32();
  if (file.version != kSnapshotFormatVersion)
    throw SnapshotError("unsupported snapshot format version " +
                        std::to_string(file.version) +
                        " (this build reads version " +
                        std::to_string(kSnapshotFormatVersion) + ")");
  (void)r.u32();  // flags
  file.manifest_json = r.str();
  const std::uint64_t payload_len = r.u64();
  const std::uint8_t* payload = r.raw(payload_len);
  const std::uint32_t declared_crc = r.u32();
  const auto size = static_cast<std::size_t>(payload_len);
  if (declared_crc != snapshot_crc32(payload, size))
    throw SnapshotError("snapshot payload corrupted (CRC mismatch)");
  file.payload.assign(payload, payload + size);
  return file;
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path,
                                          std::string_view what) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw SnapshotError("cannot open " + std::string(what) + " file: " + path);
  // One byte past the file's length, so the first read already meets the
  // end of the file.  A stream of unknown length (a pipe) grows the
  // buffer as it goes.
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  std::vector<std::uint8_t> bytes(
      size_error ? 0 : static_cast<std::size_t>(size) + 1);
  std::size_t used = 0;
  for (;;) {
    if (used == bytes.size())
      bytes.resize(std::max<std::size_t>(2 * used, std::size_t{1} << 16));
    used += std::fread(bytes.data() + used, 1, bytes.size() - used, f);
    if (used < bytes.size()) break;  // a short read: end of file or error
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error)
    throw SnapshotError("I/O error reading " + std::string(what) + ": " +
                        path);
  bytes.resize(used);
  return bytes;
}

SnapshotFile read_snapshot_file(const std::string& path) {
  return parse_snapshot_bytes(read_file_bytes(path, "snapshot"));
}

}  // namespace wormsched
