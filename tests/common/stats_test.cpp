#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/archive.hpp"
#include "common/snapshot.hpp"

namespace wormsched {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, KnownMoments) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(RunningStat, MergeEqualsSequential) {
  RunningStat all, left, right;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform_real(0, 100);
    all.add(x);
    (i < 500 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.0);   // bin 0
  h.add(1.99);  // bin 0
  h.add(2.0);   // bin 1
  h.add(9.99);  // bin 4
  h.add(-1.0);  // underflow
  h.add(10.0);  // overflow (hi is exclusive)
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(1), 1u);
  EXPECT_EQ(h.bin(4), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

TEST(Histogram, ToStringMentionsCounts) {
  Histogram h(0.0, 4.0, 2);
  h.add(1.0);
  h.add(3.0);
  h.add(3.5);
  const std::string s = h.to_string();
  EXPECT_NE(s.find("1 "), std::string::npos);
  EXPECT_NE(s.find("2 "), std::string::npos);
}

TEST(QuantileEstimator, ExactWhenUnderCapacity) {
  QuantileEstimator q(1000);
  for (int i = 1; i <= 100; ++i) q.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
  EXPECT_NEAR(q.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(q.quantile(0.9), 90.0, 1.0);
}

TEST(QuantileEstimator, ReservoirApproximatesUniform) {
  QuantileEstimator q(512);
  Rng rng(77);
  for (int i = 0; i < 200000; ++i) q.add(rng.uniform_real(0, 1000));
  EXPECT_NEAR(q.quantile(0.5), 500.0, 80.0);
  EXPECT_NEAR(q.quantile(0.95), 950.0, 60.0);
  EXPECT_EQ(q.sample_count(), 200000u);
}

TEST(QuantileEstimator, EmptyReturnsZero) {
  QuantileEstimator q;
  EXPECT_EQ(q.quantile(0.5), 0.0);
}

/// A saved reservoir: capacity, seen count, RNG state, sorted flag, and
/// `held` samples 0, 1, ...
std::vector<std::uint8_t> saved_reservoir(std::uint64_t capacity,
                                          std::uint64_t seen,
                                          std::uint64_t held) {
  SnapshotWriter w;
  w.u64(capacity);
  w.u64(seen);
  w.u64(1);
  w.b(false);
  w.u64(held);
  for (std::uint64_t i = 0; i < held; ++i) w.f64(static_cast<double>(i));
  return w.bytes();
}

TEST(QuantileEstimator, RestoreRejectsZeroCapacity) {
  QuantileEstimator q;
  const std::vector<std::uint8_t> zero = saved_reservoir(0, 0, 0);
  SnapshotReader zero_reader(zero);
  EXPECT_THROW(restore_fields(zero_reader, q), SnapshotError);
  // Control: a one-sample reservoir restores and samples.
  const std::vector<std::uint8_t> one = saved_reservoir(1, 0, 0);
  SnapshotReader one_reader(one);
  restore_fields(one_reader, q);
  q.add(5.0);
  EXPECT_EQ(q.quantile(0.5), 5.0);
}

TEST(QuantileEstimator, RestoreRejectsSeenCountThatWraps) {
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 63;
  for (const std::uint64_t seen : {~std::uint64_t{0}, kLimit}) {
    QuantileEstimator q;
    const std::vector<std::uint8_t> bytes = saved_reservoir(4, seen, 4);
    SnapshotReader r(bytes);
    EXPECT_THROW(restore_fields(r, q), SnapshotError) << seen;
  }
  // Control: the largest accepted count restores, and the full reservoir
  // keeps sampling.
  QuantileEstimator q;
  const std::vector<std::uint8_t> bytes = saved_reservoir(4, kLimit - 1, 4);
  SnapshotReader r(bytes);
  restore_fields(r, q);
  for (int i = 0; i < 100; ++i) q.add(100.0);
  EXPECT_EQ(q.sample_count(), kLimit + 99);
}

}  // namespace
}  // namespace wormsched
