#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "common/assert.hpp"
#include "common/archive.hpp"

namespace wormsched {

void RunningStat::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void RunningStat::merge(const RunningStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStat::fields(Archive& a) {
  a.size("count", count_);
  a.f64("mean", mean_);
  a.f64("m2", m2_);
  a.f64("sum", sum_);
  a.f64("min", min_);
  a.f64("max", max_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bin_width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  WS_CHECK(hi > lo);
  WS_CHECK(bins > 0);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / bin_width_);
  if (idx >= counts_.size()) idx = counts_.size() - 1;  // fp edge at hi
  ++counts_[idx];
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + static_cast<double>(i) * bin_width_;
}

double Histogram::bin_hi(std::size_t i) const {
  return lo_ + static_cast<double>(i + 1) * bin_width_;
}

std::string Histogram::to_string(std::size_t bar_width) const {
  std::uint64_t peak = 1;
  for (const auto c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const auto bar = static_cast<std::size_t>(
        (static_cast<double>(counts_[i]) / static_cast<double>(peak)) *
        static_cast<double>(bar_width));
    out << "[" << bin_lo(i) << ", " << bin_hi(i) << ") " << counts_[i] << " "
        << std::string(bar, '#') << "\n";
  }
  if (underflow_ != 0) out << "underflow: " << underflow_ << "\n";
  if (overflow_ != 0) out << "overflow: " << overflow_ << "\n";
  return out.str();
}

QuantileEstimator::QuantileEstimator(std::size_t reservoir_capacity,
                                     std::uint64_t seed)
    : capacity_(reservoir_capacity), rng_state_(seed | 1) {
  WS_CHECK(capacity_ > 0);
  samples_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void QuantileEstimator::add(double x) {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(x);
    sorted_ = false;
    return;
  }
  // Algorithm R: replace a uniformly random retained sample with
  // probability capacity/seen.
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  const std::uint64_t slot = rng_state_ % seen_;
  if (slot < capacity_) {
    samples_[static_cast<std::size_t>(slot)] = x;
    sorted_ = false;
  }
}

void QuantileEstimator::fields(Archive& a) {
  std::uint64_t capacity = capacity_;
  a.u64("capacity", capacity, at_least<std::uint64_t>(1));
  if (a.loading()) capacity_ = static_cast<std::size_t>(capacity);
  // No run reaches 2^63 samples; a count near 2^64 would wrap add()'s
  // ++seen_ to 0 and divide by it.
  a.u64("seen", seen_, at_most((std::uint64_t{1} << 63) - 1));
  a.u64("rng_state", rng_state_);
  // The reservoir is saved in its current array order (with the lazy-sort
  // flag): future Algorithm R replacements address samples by slot, so
  // the order itself is state.
  a.b("sorted", sorted_);
  a.doubles("samples", samples_);
}

double QuantileEstimator::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(samples_.size() - 1) + 0.5);
  return samples_[idx];
}

}  // namespace wormsched
