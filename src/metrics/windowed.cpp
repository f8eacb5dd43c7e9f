#include "metrics/windowed.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/archive.hpp"

namespace wormsched::metrics {

SteadyStateTracker::SteadyStateTracker(const WindowedConfig& config)
    : window_(config.window),
      stable_windows_(config.stable_windows),
      rel_tol_(config.rel_tol),
      next_boundary_(config.window) {
  WS_CHECK_MSG(config.window > 0, "window width must be positive");
  WS_CHECK_MSG(config.stable_windows > 0, "need at least one stable window");
  WS_CHECK_MSG(config.rel_tol >= 0.0, "tolerance must be non-negative");
}

void SteadyStateTracker::observe(Cycle now, const RunningStat& cumulative,
                                 std::uint64_t delivered_flits) {
  while (now >= next_boundary_) {
    close_window(next_boundary_, cumulative, delivered_flits);
    next_boundary_ += window_;
  }
}

void SteadyStateTracker::close_window(Cycle boundary,
                                      const RunningStat& cumulative,
                                      std::uint64_t delivered_flits) {
  // Window aggregates as deltas of the cumulative totals: O(1) memory and
  // exact (sums of doubles subtract bit-deterministically).
  const std::uint64_t count = cumulative.count() - count_at_boundary_;
  const double sum = cumulative.sum() - sum_at_boundary_;
  const std::uint64_t flits = delivered_flits - flits_at_boundary_;
  count_at_boundary_ = cumulative.count();
  sum_at_boundary_ = cumulative.sum();
  flits_at_boundary_ = delivered_flits;
  ++windows_closed_;

  const double mean = count > 0 ? sum / static_cast<double>(count) : 0.0;

  if (!warmed_up_) {
    if (count > 0 && have_prev_window_) {
      const double tol = rel_tol_ * std::abs(prev_window_mean_);
      if (std::abs(mean - prev_window_mean_) <= tol) {
        if (++stable_run_ >= stable_windows_) {
          warmed_up_ = true;
          warmup_end_ = boundary;
        }
      } else {
        stable_run_ = 0;
      }
    } else if (count == 0) {
      stable_run_ = 0;  // an empty window is not evidence of steady state
    }
    if (count > 0) {
      prev_window_mean_ = mean;
      have_prev_window_ = true;
    }
    return;
  }

  steady_count_ += count;
  steady_sum_ += sum;
  steady_flits_ += flits;
  steady_cycles_ += window_;
  if (count > 0) window_means_.add(mean);
}

double SteadyStateTracker::steady_mean_delay() const {
  return steady_count_ > 0 ? steady_sum_ / static_cast<double>(steady_count_)
                           : 0.0;
}

double SteadyStateTracker::steady_throughput() const {
  return steady_cycles_ > 0 ? static_cast<double>(steady_flits_) /
                                  static_cast<double>(steady_cycles_)
                            : 0.0;
}

void SteadyStateTracker::fields(Archive& a) {
  a.u64("window", window_, at_least<Cycle>(1));
  a.size("stable_windows", stable_windows_);
  a.f64("rel_tol", rel_tol_);
  a.u64("next_boundary", next_boundary_);
  a.u64("windows_closed", windows_closed_);
  a.u64("count_at_boundary", count_at_boundary_);
  a.f64("sum_at_boundary", sum_at_boundary_);
  a.u64("flits_at_boundary", flits_at_boundary_);
  a.f64("prev_window_mean", prev_window_mean_);
  a.b("have_prev_window", have_prev_window_);
  a.size("stable_run", stable_run_);
  a.b("warmed_up", warmed_up_);
  a.u64("warmup_end", warmup_end_);
  a.u64("steady_count", steady_count_);
  a.f64("steady_sum", steady_sum_);
  a.u64("steady_flits", steady_flits_);
  a.u64("steady_cycles", steady_cycles_);
  const Archive::Scope s = a.scope("window_means");
  window_means_.fields(a);
}

void SteadyStateTracker::save(SnapshotWriter& w) const {
  save_fields(w, *this);
}

void SteadyStateTracker::restore(SnapshotReader& r) {
  restore_fields(r, *this);
}

}  // namespace wormsched::metrics
