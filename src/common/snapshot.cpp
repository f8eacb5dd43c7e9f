#include "common/snapshot.hpp"

#include <cstdio>
#include <cstring>

namespace wormsched {

namespace {

constexpr char kMagic[8] = {'W', 'S', 'N', 'P', 'S', 'H', 'O', 'T'};

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[n] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t snapshot_crc32(const std::uint8_t* data, std::size_t size) {
  const auto& table = crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
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
  for (int i = 0; i < 8; ++i)
    buf_[length_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(body >> (8 * i));
}

std::uint32_t SnapshotReader::peek_section() const {
  if (limit() - pos_ < 4) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  return v;
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
  need(length);
  pos_ += static_cast<std::size_t>(length);
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
  const std::uint32_t crc = snapshot_crc32(payload.data(), payload.size());
  std::uint8_t crc_bytes[4];
  for (int i = 0; i < 4; ++i)
    crc_bytes[i] = static_cast<std::uint8_t>(crc >> (8 * i));
  ok = ok && std::fwrite(crc_bytes, 1, 4, f) == 4;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) throw std::runtime_error("short write to snapshot file: " + path);
}

SnapshotFile parse_snapshot_bytes(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    throw SnapshotError("not a wormsched snapshot (bad magic)");
  SnapshotReader r(bytes.data(), bytes.size());
  for (std::size_t i = 0; i < sizeof(kMagic); ++i) (void)r.u8();
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
  if (payload_len > r.remaining())
    throw SnapshotError("snapshot truncated (read past end of data)");
  file.payload.resize(static_cast<std::size_t>(payload_len));
  for (auto& byte : file.payload) byte = r.u8();
  const std::uint32_t declared_crc = r.u32();
  const std::uint32_t actual_crc =
      snapshot_crc32(file.payload.data(), file.payload.size());
  if (declared_crc != actual_crc)
    throw SnapshotError("snapshot payload corrupted (CRC mismatch)");
  return file;
}

SnapshotFile read_snapshot_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw SnapshotError("cannot open snapshot file: " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
    bytes.insert(bytes.end(), chunk, chunk + got);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) throw SnapshotError("I/O error reading snapshot: " + path);
  return parse_snapshot_bytes(bytes);
}

}  // namespace wormsched
