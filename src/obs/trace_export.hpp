// Exporters for recorded trace windows (docs/OBSERVABILITY.md).
//
// Two renderings of one TraceSink:
//   * Chrome trace JSON — loads directly in chrome://tracing (or
//     https://ui.perfetto.dev): every event becomes an instant event on
//     the timeline, with the cycle number as the timestamp and the flow
//     (scheduler events) or fabric node (network events) as the track.
//   * Per-flow service timeline CSV — the packet/opportunity/ejection
//     events as flat rows, the format fairness post-analyses consume.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/trace_sink.hpp"

namespace wormsched::obs {

/// What a run should trace and where the exports go.  Carried by run
/// configs (harness::NetworkScenarioConfig) and built from the CLI's
/// --trace* options.
struct TraceRequest {
  /// Chrome trace JSON output path; empty = none.
  std::string chrome_path;
  /// Per-flow service timeline CSV path; empty = none.
  std::string timeline_csv;
  std::uint32_t mask = kAllEventsMask;
  std::size_t capacity = std::size_t{1} << 16;

  /// Tracing is on iff at least one export is requested.
  [[nodiscard]] bool enabled() const {
    return !chrome_path.empty() || !timeline_csv.empty();
  }
};

/// Provenance of a trace window recorded by a run restored from a
/// checkpoint.  Exported into the Chrome JSON's otherData block so a
/// violation-window dump names the snapshot it continued from (the saving
/// build's git SHA, the run's original seed, the restore cycle) — the
/// evidence a post-mortem needs to regenerate the exact run.
struct TraceProvenance {
  bool restored = false;
  std::string restored_from_sha;
  std::uint64_t original_seed = 0;
  std::uint64_t restore_cycle = 0;
};

/// Writes the sink's retained window as Chrome trace JSON (object form,
/// {"traceEvents": [...]}).  Deterministic for a given event sequence.
/// `provenance` (optional) lands in otherData.
void write_chrome_trace(std::ostream& os, const TraceSink& sink,
                        const TraceProvenance* provenance = nullptr);

/// Writes the service-relevant events (packet enqueue/dequeue, ERR
/// opportunities, tail-flit ejections) as a per-flow timeline CSV with
/// header `cycle,event,flow,node,id,units,allowance,surplus`.
void write_service_timeline_csv(std::ostream& os, const TraceSink& sink);

/// File wrappers; throw std::runtime_error when the path cannot open.
void write_chrome_trace_file(const std::string& path, const TraceSink& sink,
                             const TraceProvenance* provenance = nullptr);
void write_service_timeline_csv_file(const std::string& path,
                                     const TraceSink& sink);

/// Runs both requested exports (chrome_path / timeline_csv) for `sink`.
void export_trace(const TraceRequest& request, const TraceSink& sink);

/// "trace.json" -> "trace.seed3.json" (suffix before the last extension;
/// appended when the path has none).  Multi-seed sweeps name each
/// per-run trace this way so parallel workers never share a file.
[[nodiscard]] std::string with_seed_suffix(const std::string& path,
                                           std::uint64_t seed_index);

/// Minimal JSON string escaping (quotes, backslashes, control chars).
[[nodiscard]] std::string json_escape(const std::string& text);

}  // namespace wormsched::obs
