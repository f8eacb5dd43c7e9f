// Binary arrival-trace persistence (docs/TRACE_FORMAT.md).
//
// The CSV format in trace_io.hpp is fine for the paper-scale figures but
// costs ~20 bytes and a strtoll per field at million-flow scale.  This is
// the compact companion: a length-tagged binary container in the same
// discipline as the snapshot container (magic | version | flags | metadata
// JSON | payload | CRC32 trailer), with the payload split into tagged
// sections so future versions can add sections without breaking readers.
//
//   magic "WSTRACE\0" | u32 version | u32 flags (0) |
//   u64 meta_len + metadata JSON | u64 payload_len + payload |
//   u32 crc32(payload)
//
// Payload sections:
//   META — u64 num_flows, u64 entry_count, u64 horizon (last cycle + 1),
//          i64 total_flits, i64 max_length.  Redundant with the entry
//          stream on purpose: the reader cross-checks the totals, so a
//          bit-flip that survives the CRC still cannot misreport a trace.
//   ENTR — per entry, three LEB128 varints: cycle delta from the previous
//          entry (traces are time-ordered, so deltas stay tiny), flow id,
//          and length in flits.  Typical entries take 3-6 bytes against
//          CSV's ~15.
//
// Error handling matches snapshot.hpp: every malformed input — bad magic,
// wrong version, truncation anywhere, CRC mismatch, varint overflow,
// out-of-range flow, non-positive length, totals disagreeing with META —
// throws SnapshotError and never reads out of bounds.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/snapshot.hpp"
#include "traffic/workload.hpp"

namespace wormsched::traffic {

/// Bumped whenever the payload layout changes; readers accept only their
/// own version and reject others with a clear message.
inline constexpr std::uint32_t kBinaryTraceFormatVersion = 1;

/// Streaming encoder.  Append entries in trace order (non-decreasing
/// cycle — checked), then finish() to get the complete file image.
class BinaryTraceWriter {
 public:
  explicit BinaryTraceWriter(std::size_t num_flows);

  void append(const TraceEntry& entry);

  /// Seals the container; `meta_json` is carried verbatim as provenance.
  /// The writer is spent afterwards.
  [[nodiscard]] std::vector<std::uint8_t> finish(
      std::string_view meta_json = "{}") const;

  [[nodiscard]] std::uint64_t entry_count() const { return entry_count_; }
  [[nodiscard]] Flits total_flits() const { return total_flits_; }

 private:
  std::size_t num_flows_;
  SnapshotWriter entries_;  // the raw varint stream, spliced in by finish()
  std::uint64_t entry_count_ = 0;
  Cycle last_cycle_ = 0;
  Cycle horizon_ = 0;
  Flits total_flits_ = 0;
  Flits max_length_ = 0;
};

/// Streaming decoder over a borrowed byte image (zero-copy: entries decode
/// straight out of the caller's buffer).  The constructor validates the
/// container (magic, version, CRC) and the META section; next() yields
/// entries until the stream is exhausted, then cross-checks the totals.
class BinaryTraceReader {
 public:
  BinaryTraceReader(const std::uint8_t* data, std::size_t size);
  explicit BinaryTraceReader(const std::vector<std::uint8_t>& bytes)
      : BinaryTraceReader(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::size_t num_flows() const { return num_flows_; }
  [[nodiscard]] std::uint64_t entry_count() const { return entry_count_; }
  [[nodiscard]] Cycle horizon() const { return horizon_; }
  [[nodiscard]] Flits total_flits() const { return total_flits_; }
  [[nodiscard]] Flits max_length() const { return max_length_; }
  [[nodiscard]] const std::string& meta_json() const { return meta_json_; }

  /// Next entry, or nullopt once all `entry_count()` entries were read
  /// (at which point the META totals have been verified).
  [[nodiscard]] std::optional<TraceEntry> next();

 private:
  SnapshotReader r_{nullptr, std::size_t{0}};
  std::string meta_json_;
  std::size_t num_flows_ = 0;
  std::uint64_t entry_count_ = 0;
  Cycle horizon_ = 0;
  Flits total_flits_ = 0;
  Flits max_length_ = 0;

  std::uint64_t read_ = 0;
  Cycle cycle_ = 0;
  Flits seen_flits_ = 0;
  Flits seen_max_ = 0;
  bool finished_ = false;
};

/// Whole-trace conveniences over the streaming pair.
[[nodiscard]] std::vector<std::uint8_t> encode_binary_trace(
    const Trace& trace, std::string_view meta_json = "{}");
[[nodiscard]] Trace decode_binary_trace(const std::vector<std::uint8_t>& bytes);

/// File I/O.  Writing throws std::runtime_error on I/O failure; loading
/// throws SnapshotError on malformed content (matching snapshot files).
void save_binary_trace_file(const std::string& path, const Trace& trace,
                            std::string_view meta_json = "{}");
/// Writes a pre-encoded image (BinaryTraceWriter::finish()) to disk — the
/// streaming producers' path, which never materialises a Trace.
void write_binary_trace_bytes(const std::string& path,
                              const std::vector<std::uint8_t>& bytes);
[[nodiscard]] Trace load_binary_trace_file(const std::string& path);

/// Magic sniff, so front ends can accept binary and CSV traces through
/// one flag.  False for short or non-matching prefixes; never throws.
[[nodiscard]] bool is_binary_trace(const std::uint8_t* data, std::size_t size);

}  // namespace wormsched::traffic
