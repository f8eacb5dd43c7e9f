// Statistical accumulators used by the metrics layer and the benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace wormsched {

class Archive;

/// Streaming mean/variance/min/max (Welford's algorithm): O(1) memory,
/// numerically stable over the multi-million-sample runs of Fig. 5.
class RunningStat {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStat& other);

  void reset() { *this = RunningStat{}; }

  /// Checkpoint state (common/archive.hpp): doubles round-trip
  /// bit-exactly (mean, M2 and sum are their raw bit patterns), so a
  /// restored accumulator continues the identical floating-point stream.
  void fields(Archive& a);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width-bin histogram over [lo, hi); out-of-range samples land in
/// saturating underflow/overflow bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] std::uint64_t bin(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const;
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Multi-line ASCII rendering (one row per nonempty bin with a bar).
  [[nodiscard]] std::string to_string(std::size_t bar_width = 40) const;

 private:
  double lo_;
  double hi_;
  double bin_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

/// Exact quantiles over a retained sample set.  For runs that would retain
/// too many samples, construct with a capacity: beyond it the accumulator
/// switches to uniform reservoir sampling (Vitter's algorithm R), which
/// keeps quantile estimates unbiased.
class QuantileEstimator {
 public:
  explicit QuantileEstimator(std::size_t reservoir_capacity = 1u << 20,
                             std::uint64_t seed = 0xC0FFEE);

  void add(double x);

  [[nodiscard]] std::size_t sample_count() const { return seen_; }

  /// q in [0,1]; 0.5 is the median.  Returns 0 for an empty estimator.
  [[nodiscard]] double quantile(double q) const;

  /// Checkpoint state: reservoir contents, the replacement RNG state and
  /// the seen count all round-trip, so a restored estimator makes the
  /// identical future replacement decisions.
  void fields(Archive& a);

 private:
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_state_;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace wormsched
