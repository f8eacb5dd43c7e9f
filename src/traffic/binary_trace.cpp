#include "traffic/binary_trace.hpp"

#include <cstdio>
#include <cstring>
#include <limits>

#include "common/assert.hpp"

namespace wormsched::traffic {

namespace {

constexpr char kMagic[8] = {'W', 'S', 'T', 'R', 'A', 'C', 'E', '\0'};

// Payload section tags ("META" / "ENTR" as little-endian u32).
constexpr std::uint32_t kMetaTag = 0x4154454D;
constexpr std::uint32_t kEntriesTag = 0x52544E45;

// LEB128: 7 value bits per byte, high bit = continuation.
void put_varint(SnapshotWriter& w, std::uint64_t v) {
  while (v >= 0x80) {
    w.u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  w.u8(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(SnapshotReader& r) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const std::uint8_t byte = r.u8();
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // The 10th byte holds the top bit only; anything above overflows.
      if (shift == 63 && byte > 1)
        throw SnapshotError("binary trace varint overflows 64 bits");
      return v;
    }
  }
  throw SnapshotError("binary trace varint overflows 64 bits");
}

}  // namespace

BinaryTraceWriter::BinaryTraceWriter(std::size_t num_flows)
    : num_flows_(num_flows) {
  WS_CHECK_MSG(num_flows > 0, "binary trace needs at least one flow");
}

void BinaryTraceWriter::append(const TraceEntry& entry) {
  WS_CHECK_MSG(entry.flow.index() < num_flows_,
               "trace entry names an out-of-range flow");
  WS_CHECK_MSG(entry.length > 0, "trace entry with non-positive length");
  WS_CHECK_MSG(entry.cycle >= last_cycle_,
               "trace entries must be in non-decreasing cycle order");
  put_varint(entries_, entry.cycle - last_cycle_);
  put_varint(entries_, entry.flow.value());
  put_varint(entries_, static_cast<std::uint64_t>(entry.length));
  last_cycle_ = entry.cycle;
  horizon_ = entry.cycle + 1;
  total_flits_ += entry.length;
  if (entry.length > max_length_) max_length_ = entry.length;
  ++entry_count_;
}

std::vector<std::uint8_t> BinaryTraceWriter::finish(
    std::string_view meta_json) const {
  SnapshotWriter payload;
  payload.begin_section(kMetaTag);
  payload.u64(num_flows_);
  payload.u64(entry_count_);
  payload.u64(horizon_);
  payload.i64(total_flits_);
  payload.i64(max_length_);
  payload.end_section();
  payload.begin_section(kEntriesTag);
  payload.raw(entries_.bytes().data(), entries_.bytes().size());
  payload.end_section();

  const std::vector<std::uint8_t> body = payload.take();
  SnapshotWriter file;
  for (const char c : kMagic) file.u8(static_cast<std::uint8_t>(c));
  file.u32(kBinaryTraceFormatVersion);
  file.u32(0);  // flags, reserved
  file.str(meta_json);
  file.u64(body.size());
  file.raw(body.data(), body.size());
  file.u32(snapshot_crc32(body.data(), body.size()));
  return file.take();
}

BinaryTraceReader::BinaryTraceReader(const std::uint8_t* data,
                                     std::size_t size) {
  if (size < sizeof(kMagic) ||
      std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
    throw SnapshotError("not a wormsched binary trace (bad magic)");
  SnapshotReader header(data, size);
  (void)header.raw(sizeof(kMagic));
  const std::uint32_t version = header.u32();
  if (version != kBinaryTraceFormatVersion)
    throw SnapshotError("unsupported binary trace format version " +
                        std::to_string(version) +
                        " (this build reads version " +
                        std::to_string(kBinaryTraceFormatVersion) + ")");
  (void)header.u32();  // flags
  meta_json_ = header.str();
  const std::uint64_t payload_len = header.u64();
  // Borrow the payload span in place; the declared trailer must fit too.
  if (payload_len > header.remaining() ||
      header.remaining() - payload_len < 4)
    throw SnapshotError("binary trace truncated (read past end of data)");
  const std::uint8_t* payload = header.raw(payload_len);
  const std::uint32_t declared_crc = header.u32();
  if (declared_crc !=
      snapshot_crc32(payload, static_cast<std::size_t>(payload_len)))
    throw SnapshotError("binary trace payload corrupted (CRC mismatch)");

  r_ = SnapshotReader(payload, static_cast<std::size_t>(payload_len));
  r_.enter_section(kMetaTag);
  num_flows_ = static_cast<std::size_t>(r_.u64());
  if (num_flows_ == 0)
    throw SnapshotError("binary trace declares zero flows");
  entry_count_ = r_.u64();
  horizon_ = r_.u64();
  total_flits_ = r_.i64();
  max_length_ = r_.i64();
  if (total_flits_ < 0 || max_length_ < 0)
    throw SnapshotError("binary trace header totals are negative");
  r_.leave_section();
  r_.enter_section(kEntriesTag);
}

std::optional<TraceEntry> BinaryTraceReader::next() {
  if (finished_) return std::nullopt;
  if (read_ == entry_count_) {
    // End of stream: the redundant META totals must agree with what the
    // entry stream actually carried.
    if (seen_flits_ != total_flits_ || seen_max_ != max_length_ ||
        (entry_count_ > 0 && cycle_ + 1 != horizon_) ||
        (entry_count_ == 0 && horizon_ != 0))
      throw SnapshotError(
          "binary trace entry stream disagrees with its header totals");
    r_.leave_section();
    finished_ = true;
    return std::nullopt;
  }
  cycle_ += get_varint(r_);
  const std::uint64_t flow = get_varint(r_);
  if (flow >= num_flows_)
    throw SnapshotError("binary trace entry names an out-of-range flow");
  const std::uint64_t length = get_varint(r_);
  if (length == 0 ||
      length > static_cast<std::uint64_t>(std::numeric_limits<Flits>::max()))
    throw SnapshotError("binary trace entry has an invalid length");
  ++read_;
  const Flits flits = static_cast<Flits>(length);
  seen_flits_ += flits;
  if (flits > seen_max_) seen_max_ = flits;
  return TraceEntry{cycle_, FlowId(static_cast<std::uint32_t>(flow)), flits};
}

std::vector<std::uint8_t> encode_binary_trace(const Trace& trace,
                                              std::string_view meta_json) {
  BinaryTraceWriter w(trace.num_flows);
  for (const TraceEntry& e : trace.entries) w.append(e);
  return w.finish(meta_json);
}

Trace decode_binary_trace(const std::vector<std::uint8_t>& bytes) {
  BinaryTraceReader r(bytes);
  Trace trace;
  trace.num_flows = r.num_flows();
  trace.entries.reserve(static_cast<std::size_t>(r.entry_count()));
  while (auto entry = r.next()) trace.entries.push_back(*entry);
  return trace;
}

void save_binary_trace_file(const std::string& path, const Trace& trace,
                            std::string_view meta_json) {
  write_binary_trace_bytes(path, encode_binary_trace(trace, meta_json));
}

void write_binary_trace_bytes(const std::string& path,
                              const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("cannot open trace file for writing: " + path);
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) throw std::runtime_error("short write to trace file: " + path);
}

Trace load_binary_trace_file(const std::string& path) {
  return decode_binary_trace(read_file_bytes(path, "trace"));
}

bool is_binary_trace(const std::uint8_t* data, std::size_t size) {
  return size >= sizeof(kMagic) &&
         std::memcmp(data, kMagic, sizeof(kMagic)) == 0;
}

}  // namespace wormsched::traffic
