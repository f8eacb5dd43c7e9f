// Windowed steady-state metrics for unbounded (soak) horizons.
//
// A soak run cannot keep per-packet logs: it needs O(1)-memory statistics
// plus a way to tell when the transient (cold queues, empty pipelines)
// has washed out so the reported steady-state numbers exclude it.  The
// tracker slices time into fixed-width cycle windows and derives each
// window's mean delay and throughput as *deltas* of the cumulative
// RunningStat sums — no samples are retained, so memory stays constant no
// matter how long the run is.
//
// Warm-up detection: the run is declared warmed up after `stable_windows`
// consecutive windows whose mean delay stays within `rel_tol` of the
// previous window's (windows with no departures never qualify).  From
// that point the steady-state accumulator aggregates window means, so
// `steady_mean_delay()` is the transient-free average the soak harness
// reports.
//
// The tracker is itself checkpointable: a soak segment restores it along
// with the network, so warm-up status and steady-state sums survive a
// checkpoint/restore boundary bit-exactly.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace wormsched {
class SnapshotReader;
class SnapshotWriter;
}  // namespace wormsched

namespace wormsched::metrics {

struct WindowedConfig {
  /// Window width in cycles.
  Cycle window = 10'000;
  /// Consecutive stable windows required to declare warm-up complete.
  std::size_t stable_windows = 5;
  /// Relative tolerance for "stable": |mean - prev_mean| <= rel_tol * prev.
  double rel_tol = 0.10;
};

class SteadyStateTracker {
 public:
  explicit SteadyStateTracker(const WindowedConfig& config = {});

  /// Feeds the cumulative delay accumulator and delivery counters at cycle
  /// `now`.  Call once per tick (or less often); the tracker closes every
  /// window boundary crossed since the previous call.  `cumulative` must
  /// be the run-wide accumulator (monotone count/sum).
  void observe(Cycle now, const RunningStat& cumulative,
               std::uint64_t delivered_flits);

  [[nodiscard]] bool warmed_up() const { return warmed_up_; }
  /// Cycle at which warm-up was declared (0 while still in transient).
  [[nodiscard]] Cycle warmup_end() const { return warmup_end_; }
  [[nodiscard]] std::uint64_t windows_closed() const {
    return windows_closed_;
  }

  /// Mean packet delay across post-warm-up windows (weighted by each
  /// window's packet count).  0 before warm-up completes.
  [[nodiscard]] double steady_mean_delay() const;
  /// Mean delivered flits/cycle across post-warm-up windows.
  [[nodiscard]] double steady_throughput() const;
  /// Per-window mean-delay spread, for flatness assertions in tests.
  [[nodiscard]] const RunningStat& window_means() const {
    return window_means_;
  }

  /// Checkpoint state (a window of at least one cycle); save() and
  /// restore() forward to it.
  void fields(Archive& a);
  void save(SnapshotWriter& w) const;
  void restore(SnapshotReader& r);

 private:
  void close_window(Cycle boundary, const RunningStat& cumulative,
                    std::uint64_t delivered_flits);

  Cycle window_;
  std::size_t stable_windows_;
  double rel_tol_;

  Cycle next_boundary_;
  std::uint64_t windows_closed_ = 0;

  // Cumulative totals at the last closed boundary (delta base).
  std::uint64_t count_at_boundary_ = 0;
  double sum_at_boundary_ = 0.0;
  std::uint64_t flits_at_boundary_ = 0;

  // Warm-up detection state.
  double prev_window_mean_ = 0.0;
  bool have_prev_window_ = false;
  std::size_t stable_run_ = 0;
  bool warmed_up_ = false;
  Cycle warmup_end_ = 0;

  // Steady-state aggregates (post-warm-up windows only).
  std::uint64_t steady_count_ = 0;
  double steady_sum_ = 0.0;
  std::uint64_t steady_flits_ = 0;
  Cycle steady_cycles_ = 0;
  RunningStat window_means_;
};

}  // namespace wormsched::metrics
