// Run manifests: the provenance record written next to every bench /
// sweep / traced output (docs/OBSERVABILITY.md).
//
// A manifest answers "what exactly produced this file?": git SHA, seed,
// the full effective configuration, the headline counters, and the
// auditor verdict.  A result file without one is unreviewable — the same
// argument BENCH_perf.json's provenance block already makes, promoted to
// a reusable layer.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace wormsched::obs {

/// The checkout's commit SHA: $WORMSCHED_GIT_SHA when set (reproduce.sh
/// and CI export it; read on every call), else `git rev-parse HEAD` in
/// the working directory (run once per process, on the first call that
/// needs it), else "unknown".  Never fails.
[[nodiscard]] std::string current_git_sha();

struct RunManifest {
  std::string tool;  // e.g. "wormsched network" or "bench_perf_kernel"
  std::string git_sha = current_git_sha();
  std::uint64_t seed = 0;
  /// Effective configuration, key order preserved (CLI front ends feed
  /// every declared option through CliParser::items()).
  std::vector<std::pair<std::string, std::string>> config;
  /// Headline result counters (delivered packets, end cycle, ...).
  std::vector<std::pair<std::string, double>> counters;
  /// Total auditor violations (0 when auditing was off or clean).
  std::uint64_t violations = 0;
  /// Trace exports attached to the run (empty when tracing was off).
  std::string trace_path;
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;

  void add_config(std::string key, std::string value) {
    config.emplace_back(std::move(key), std::move(value));
  }
  void add_counter(std::string key, double value) {
    counters.emplace_back(std::move(key), value);
  }

  /// JSON (schema "wormsched-manifest-v1"), deterministic field order.
  void write(std::ostream& os) const;
  /// Throws std::runtime_error when the path cannot open.
  void write_file(const std::string& path) const;
};

}  // namespace wormsched::obs
