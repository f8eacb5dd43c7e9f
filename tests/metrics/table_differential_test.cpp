// The per-flow metrics tables against the dense layout they replaced.
//
// ServiceLog, ActivityTracker and DelayStats keep a row only for a flow
// that carried traffic (common/flow_rows.hpp).  The reference models
// below keep one slot per configured flow, as the tables did before, and
// are the specification: over random event streams on many flows, most of
// them idle, every accessor must give the same answer and every save the
// same bytes, including across save/restore at random split points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/archive.hpp"
#include "common/snapshot.hpp"
#include "common/stats.hpp"
#include "metrics/activity.hpp"
#include "metrics/delay.hpp"
#include "metrics/service_log.hpp"

namespace wormsched::metrics {
namespace {

constexpr std::uint64_t kSeeds = 40;
constexpr Cycle kCycles = 3'000;

/// The bytes of a table (its fields()) or of a dense reference (its own
/// hand-written save, the layout the tables must keep).
template <typename T>
std::vector<std::uint8_t> saved(const T& state) {
  SnapshotWriter w;
  if constexpr (requires { state.save(w); })
    state.save(w);
  else
    save_fields(w, state);
  return w.bytes();
}

FlowId flow_id(std::size_t i) {
  return FlowId(static_cast<FlowId::rep_type>(i));
}

/// Reference ServiceLog: a cycle vector for every configured flow.
class DenseServiceLog {
 public:
  DenseServiceLog(std::size_t num_flows, Bytes flit_bytes)
      : flit_cycles_(num_flows), flit_bytes_(flit_bytes) {}

  void on_flit(Cycle now, FlowId flow) {
    flit_cycles_[flow.index()].push_back(now);
  }
  [[nodiscard]] Flits sent(FlowId flow, Cycle t1, Cycle t2) const {
    const auto& cycles = flit_cycles_[flow.index()];
    const auto lo = std::lower_bound(cycles.begin(), cycles.end(), t1);
    const auto hi = std::lower_bound(lo, cycles.end(), t2);
    return static_cast<Flits>(hi - lo);
  }
  [[nodiscard]] Flits total(FlowId flow) const {
    return static_cast<Flits>(flit_cycles_[flow.index()].size());
  }
  [[nodiscard]] Flits grand_total() const {
    Flits total = 0;
    for (const auto& cycles : flit_cycles_)
      total += static_cast<Flits>(cycles.size());
    return total;
  }
  [[nodiscard]] std::optional<Cycle> last_cycle() const {
    std::optional<Cycle> last;
    for (const auto& cycles : flit_cycles_)
      if (!cycles.empty() && (!last || cycles.back() > *last))
        last = cycles.back();
    return last;
  }
  void save(SnapshotWriter& w) const {
    w.u64(flit_cycles_.size());
    for (const auto& cycles : flit_cycles_) {
      w.u64(cycles.size());
      for (const Cycle c : cycles) w.u64(c);
    }
    w.u64(flit_bytes_);
  }
  void restore(SnapshotReader& r) {
    EXPECT_EQ(r.u64(), flit_cycles_.size());
    for (auto& cycles : flit_cycles_) {
      cycles.resize(static_cast<std::size_t>(r.u64()));
      for (Cycle& c : cycles) c = r.u64();
    }
    flit_bytes_ = static_cast<Bytes>(r.u64());
  }

 private:
  std::vector<std::vector<Cycle>> flit_cycles_;
  Bytes flit_bytes_;
};

/// Reference ActivityTracker: a window vector for every configured flow.
class DenseActivity {
 public:
  explicit DenseActivity(std::size_t num_flows)
      : windows_(num_flows), currently_active_(num_flows, false) {}

  void record(Cycle now, FlowId flow, bool active) {
    const std::size_t i = flow.index();
    if (active == currently_active_[i]) return;
    if (active)
      windows_[i].push_back(Window{now, kCycleMax});
    else
      windows_[i].back().end = now;
    currently_active_[i] = active;
  }
  void finish(Cycle end) {
    for (std::size_t i = 0; i < windows_.size(); ++i) {
      if (currently_active_[i]) {
        windows_[i].back().end = end;
        currently_active_[i] = false;
      }
    }
    finished_ = true;
  }
  [[nodiscard]] bool active_throughout(FlowId flow, Cycle t1, Cycle t2) const {
    if (t1 == t2) return true;
    const auto& windows = windows_[flow.index()];
    const auto it = std::upper_bound(
        windows.begin(), windows.end(), t1,
        [](Cycle t, const Window& w) { return t < w.start; });
    if (it == windows.begin()) return false;
    const Window& w = *(it - 1);
    return w.start <= t1 && t2 <= w.end;
  }
  [[nodiscard]] bool active(FlowId flow) const {
    return currently_active_[flow.index()];
  }
  [[nodiscard]] std::optional<Cycle> last_change() const {
    std::optional<Cycle> last;
    for (const auto& windows : windows_) {
      for (const Window& w : windows) {
        if (!last || w.start > *last) last = w.start;
        if (w.end != kCycleMax && w.end > *last) last = w.end;
      }
    }
    return last;
  }
  void save(SnapshotWriter& w) const {
    w.u64(windows_.size());
    for (const auto& windows : windows_) {
      w.u64(windows.size());
      for (const Window& win : windows) {
        w.u64(win.start);
        w.u64(win.end);
      }
    }
    for (const bool b : currently_active_) w.b(b);
    w.b(finished_);
  }
  void restore(SnapshotReader& r) {
    EXPECT_EQ(r.u64(), windows_.size());
    for (auto& windows : windows_) {
      windows.resize(static_cast<std::size_t>(r.u64()));
      for (Window& win : windows) {
        win.start = r.u64();
        win.end = r.u64();
      }
    }
    for (std::size_t i = 0; i < currently_active_.size(); ++i)
      currently_active_[i] = r.b();
    finished_ = r.b();
  }

 private:
  struct Window {
    Cycle start;
    Cycle end;
  };
  std::vector<std::vector<Window>> windows_;
  std::vector<bool> currently_active_;
  bool finished_ = false;
};

/// Reference DelayStats: a RunningStat and a reservoir slot for every
/// configured flow.
class DenseDelays {
 public:
  explicit DenseDelays(std::size_t num_flows)
      : per_flow_(num_flows),
        capacity_(std::clamp<std::size_t>((std::size_t{1} << 22) / num_flows,
                                          512, std::size_t{1} << 18)),
        per_flow_quantiles_(num_flows) {}

  void on_departure(Cycle now, const core::Packet& packet) {
    const auto delay = static_cast<double>(now - packet.arrival);
    overall_.add(delay);
    per_flow_[packet.flow.index()].add(delay);
    quantiles_.add(delay);
    auto& est = per_flow_quantiles_[packet.flow.index()];
    if (!est) est.emplace(capacity_);
    est->add(delay);
  }
  [[nodiscard]] const RunningStat& overall() const { return overall_; }
  [[nodiscard]] const RunningStat& flow(FlowId flow) const {
    return per_flow_[flow.index()];
  }
  [[nodiscard]] double quantile(double q) const {
    return quantiles_.quantile(q);
  }
  [[nodiscard]] double flow_quantile(FlowId flow, double q) const {
    const auto& est = per_flow_quantiles_[flow.index()];
    return est ? est->quantile(q) : 0.0;
  }
  void save(SnapshotWriter& w) const {
    save_fields(w, overall_);
    w.u64(per_flow_.size());
    for (const RunningStat& s : per_flow_) save_fields(w, s);
    save_fields(w, quantiles_);
    w.u64(capacity_);
    for (const auto& est : per_flow_quantiles_) {
      w.b(est.has_value());
      if (est) save_fields(w, *est);
    }
  }
  void restore(SnapshotReader& r) {
    restore_fields(r, overall_);
    EXPECT_EQ(r.u64(), per_flow_.size());
    for (RunningStat& s : per_flow_) restore_fields(r, s);
    restore_fields(r, quantiles_);
    capacity_ = r.u64();
    for (auto& est : per_flow_quantiles_) {
      if (r.b()) {
        if (!est) est.emplace(capacity_);
        restore_fields(r, *est);
      } else {
        est.reset();
      }
    }
  }

 private:
  RunningStat overall_;
  std::vector<RunningStat> per_flow_;
  QuantileEstimator quantiles_;
  std::size_t capacity_;
  std::vector<std::optional<QuantileEstimator>> per_flow_quantiles_;
};

/// The three tables under test beside their references.
struct Tables {
  explicit Tables(std::size_t n)
      : log(n, 8), activity(n), delays(n), ref_log(n, 8), ref_activity(n),
        ref_delays(n) {}

  ServiceLog log;
  ActivityTracker activity;
  DelayStats delays;
  DenseServiceLog ref_log;
  DenseActivity ref_activity;
  DenseDelays ref_delays;
};

/// Saves both sides, requires equal bytes, and restores fresh tables
/// from them (a new Tables per split, as a restored run builds).
void save_and_restore(std::unique_ptr<Tables>& t, std::size_t n) {
  const std::vector<std::uint8_t> log = saved(t->log);
  const std::vector<std::uint8_t> activity = saved(t->activity);
  const std::vector<std::uint8_t> delays = saved(t->delays);
  ASSERT_EQ(log, saved(t->ref_log));
  ASSERT_EQ(activity, saved(t->ref_activity));
  ASSERT_EQ(delays, saved(t->ref_delays));
  auto fresh = std::make_unique<Tables>(n);
  SnapshotReader rl(log);
  restore_fields(rl, fresh->log);
  SnapshotReader ra(activity);
  restore_fields(ra, fresh->activity);
  SnapshotReader rd(delays);
  restore_fields(rd, fresh->delays);
  SnapshotReader rrl(log);
  fresh->ref_log.restore(rrl);
  SnapshotReader rra(activity);
  fresh->ref_activity.restore(rra);
  SnapshotReader rrd(delays);
  fresh->ref_delays.restore(rrd);
  // A restore followed by a save reproduces the file byte for byte.
  ASSERT_EQ(saved(fresh->log), log);
  ASSERT_EQ(saved(fresh->activity), activity);
  ASSERT_EQ(saved(fresh->delays), delays);
  t = std::move(fresh);
}

/// Every accessor, for every flow (and random intervals), on both sides.
void expect_same_answers(const Tables& t, std::size_t n, Rng& rng) {
  EXPECT_EQ(t.log.num_flows(), n);
  EXPECT_EQ(t.activity.num_flows(), n);
  EXPECT_EQ(t.log.grand_total(), t.ref_log.grand_total());
  EXPECT_EQ(t.log.last_cycle(), t.ref_log.last_cycle());
  EXPECT_EQ(t.activity.last_change(), t.ref_activity.last_change());
  EXPECT_EQ(saved(t.delays.overall()), saved(t.ref_delays.overall()));
  EXPECT_EQ(t.delays.packets(), t.ref_delays.overall().count());
  for (const double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_EQ(t.delays.quantile(q), t.ref_delays.quantile(q)) << q;
  for (std::size_t i = 0; i < n; ++i) {
    const FlowId f = flow_id(i);
    Cycle t1 = rng.uniform_u64(kCycles + 2);
    Cycle t2 = rng.uniform_u64(kCycles + 2);
    if (t1 > t2) std::swap(t1, t2);
    ASSERT_EQ(t.log.total(f), t.ref_log.total(f)) << i;
    ASSERT_EQ(t.log.sent(f, t1, t2), t.ref_log.sent(f, t1, t2)) << i;
    ASSERT_EQ(t.log.sent(f, 0, kCycles), t.ref_log.sent(f, 0, kCycles)) << i;
    ASSERT_EQ(t.activity.active(f), t.ref_activity.active(f)) << i;
    ASSERT_EQ(saved(t.delays.flow(f)), saved(t.ref_delays.flow(f))) << i;
    ASSERT_EQ(t.delays.flow(f).mean(), t.ref_delays.flow(f).mean()) << i;
    for (const double q : {0.0, 0.5, 1.0})
      ASSERT_EQ(t.delays.flow_quantile(f, q), t.ref_delays.flow_quantile(f, q))
          << i;
    if (t.activity.finished()) {
      ASSERT_EQ(t.activity.active_throughout(f, t1, t2),
                t.ref_activity.active_throughout(f, t1, t2))
          << i << " [" << t1 << ", " << t2 << ")";
      ASSERT_EQ(t.activity.active_throughout(f, t1, t1 + 1),
                t.ref_activity.active_throughout(f, t1, t1 + 1))
          << i;
      ASSERT_EQ(t.activity.active_throughout(f, t1, t1),
                t.ref_activity.active_throughout(f, t1, t1))
          << i;
    }
  }
}

class MetricsTableDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricsTableDifferential, SparseRowsMatchDenseLayout) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  // Many flows, few of them hot; a cold flow gets a rare stray event.
  const std::size_t n = 500 + rng.uniform_u64(4'000);
  std::vector<FlowId> hot;
  const std::size_t num_hot = 1 + rng.uniform_u64(24);
  for (std::size_t k = 0; k < num_hot; ++k)
    hot.push_back(flow_id(rng.uniform_u64(n)));
  const auto pick = [&]() {
    return rng.uniform_real() < 0.97 ? hot[rng.uniform_u64(hot.size())]
                                     : flow_id(rng.uniform_u64(n));
  };
  std::vector<Cycle> splits;
  for (std::uint64_t k = 0, count = 1 + rng.uniform_u64(3); k < count; ++k)
    splits.push_back(rng.uniform_u64(kCycles));
  std::sort(splits.begin(), splits.end());

  auto t = std::make_unique<Tables>(n);
  std::size_t next_split = 0;
  std::uint64_t packet = 0;
  std::vector<FlowId> recorded;
  for (Cycle now = 0; now < kCycles; ++now) {
    while (next_split < splits.size() && splits[next_split] == now) {
      save_and_restore(t, n);
      if (HasFatalFailure()) return;
      ++next_split;
    }
    if (rng.uniform_real() < 0.6) {
      core::FlitEvent flit;
      flit.flow = pick();
      flit.packet = PacketId(packet);
      t->log.on_flit(now, flit);
      t->ref_log.on_flit(now, flit.flow);
    }
    // At most one record per flow per cycle, as the scenario core does:
    // a window never opens and closes in the same cycle.
    recorded.clear();
    for (std::uint64_t k = 0, count = rng.uniform_u64(3); k < count; ++k) {
      const FlowId f = pick();
      if (std::find(recorded.begin(), recorded.end(), f) != recorded.end())
        continue;
      recorded.push_back(f);
      const bool active = rng.uniform_real() < 0.5;
      t->activity.record(now, f, active);
      t->ref_activity.record(now, f, active);
    }
    if (rng.uniform_real() < 0.2) {
      core::Packet p;
      p.id = PacketId(packet++);
      p.flow = pick();
      p.length = 1;
      p.arrival = now - std::min<Cycle>(now, rng.uniform_u64(200));
      t->delays.on_packet_departure(now, p);
      t->ref_delays.on_departure(now, p);
    }
  }
  // At least one flow is still active, so finish() has a window to close.
  t->activity.record(kCycles, hot.front(), true);
  t->ref_activity.record(kCycles, hot.front(), true);
  expect_same_answers(*t, n, rng);
  t->activity.finish(kCycles + 1);
  t->ref_activity.finish(kCycles + 1);
  expect_same_answers(*t, n, rng);
  EXPECT_EQ(saved(t->log), saved(t->ref_log));
  EXPECT_EQ(saved(t->activity), saved(t->ref_activity));
  EXPECT_EQ(saved(t->delays), saved(t->ref_delays));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsTableDifferential,
                         ::testing::Range<std::uint64_t>(1, kSeeds + 1));

TEST(MetricsTables, FlowsWithoutRowsAnswerLikeIdleFlows) {
  ServiceLog log(4);
  ActivityTracker activity(4);
  DelayStats delays(4);
  activity.finish(10);
  EXPECT_EQ(log.sent(FlowId(3), 0, 10), 0);
  EXPECT_EQ(log.total(FlowId(3)), 0);
  EXPECT_EQ(log.grand_total(), 0);
  EXPECT_EQ(log.last_cycle(), std::nullopt);
  EXPECT_FALSE(activity.active(FlowId(3)));
  EXPECT_FALSE(activity.active_throughout(FlowId(3), 2, 5));
  EXPECT_TRUE(activity.active_throughout(FlowId(3), 4, 4));
  EXPECT_EQ(activity.last_change(), std::nullopt);
  EXPECT_EQ(delays.flow(FlowId(3)).count(), 0u);
  EXPECT_EQ(saved(delays.flow(FlowId(3))), saved(RunningStat{}));
  EXPECT_EQ(delays.flow_quantile(FlowId(3), 0.5), 0.0);
}

TEST(MetricsTables, RestoreKeepsADelayRecordThatIsNotEmpty) {
  // A record with no samples but a field off its initial bits (here a
  // mean of -0.0) is not the empty record: the restore keeps a row for it,
  // so a save gives back the same bytes.
  std::vector<std::uint8_t> bytes = saved(DelayStats(2));
  // Overall stat (48 bytes), flow count, then flow 0's count and mean.
  const std::size_t mean_sign_byte = 48 + 8 + 8 + 7;
  ASSERT_EQ(bytes[mean_sign_byte], 0u);
  bytes[mean_sign_byte] = 0x80;
  DelayStats delays(2);
  SnapshotReader r(bytes);
  restore_fields(r, delays);
  EXPECT_EQ(delays.flow(FlowId(0)).count(), 0u);
  EXPECT_EQ(saved(delays), bytes);
}

}  // namespace
}  // namespace wormsched::metrics
