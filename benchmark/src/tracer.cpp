#include "tracer.hpp"

#include <algorithm>
#include <bit>
#include <vector>

namespace wsbench {

std::size_t Histogram::index(std::uint64_t v) {
  if (v < kSub) return static_cast<std::size_t>(v);
  const auto e = static_cast<std::size_t>(std::bit_width(v) - 1);  // >= 3
  const std::size_t sub = static_cast<std::size_t>(v >> (e - 3)) - kSub;
  return std::min(kSub + (e - 3) * kSub + sub, kBuckets - 1);
}

double Histogram::lower(std::size_t i) {
  if (i < kSub) return static_cast<double>(i);
  const std::size_t e = (i - kSub) / kSub + 3;
  const std::size_t sub = (i - kSub) % kSub;
  return static_cast<double>((kSub + sub) << (e - 3));
}

double Histogram::width(std::size_t i) {
  if (i < kSub) return 1.0;
  const std::size_t e = (i - kSub) / kSub + 3;
  return static_cast<double>(std::uint64_t{1} << (e - 3));
}

void Histogram::add(std::int64_t ns) {
  ++buckets_[index(static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0)))];
  ++count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  double seen = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const auto n = static_cast<double>(buckets_[i]);
    if (n == 0.0) continue;
    if (seen + n >= target)
      return lower(i) + width(i) * std::clamp((target - seen) / n, 0.0, 1.0);
    seen += n;
  }
  return lower(kBuckets - 1);
}

const char* site_layer(Site s) {
  switch (s) {
    case Site::kDecode:
    case Site::kSourceTick: return "traffic";
    case Site::kEnqueue:
    case Site::kPull: return "core";
    case Site::kObserver:
    case Site::kActivity:
    case Site::kSoakObserve: return "metrics";
    case Site::kEngine: return "sim";
    case Site::kTick: return "wormhole";
    case Site::kNetAudit:
    case Site::kErrAudit: return "validate";
    case Site::kScenario:
    case Site::kBuild:
    case Site::kCheckpointSave:
    case Site::kRestore:
    case Site::kFinish: return "harness";
  }
  return "?";
}

const char* site_name(Site s) {
  switch (s) {
    case Site::kDecode: return "traffic.decode";
    case Site::kSourceTick: return "traffic.source_tick";
    case Site::kEnqueue: return "core.enqueue";
    case Site::kPull: return "core.pull";
    case Site::kObserver: return "metrics.observer";
    case Site::kActivity: return "metrics.activity";
    case Site::kSoakObserve: return "metrics.soak_observe";
    case Site::kEngine: return "sim.engine";
    case Site::kTick: return "wormhole.tick";
    case Site::kNetAudit: return "validate.net_audit";
    case Site::kErrAudit: return "validate.err_audit";
    case Site::kScenario: return "harness.scenario";
    case Site::kBuild: return "harness.build";
    case Site::kCheckpointSave: return "harness.checkpoint_save";
    case Site::kRestore: return "harness.restore";
    case Site::kFinish: return "harness.finish";
  }
  return "?";
}

void Tracer::calibrate() {
  constexpr int kTrials = 20001;
  std::vector<std::int64_t> gaps(kTrials);
  for (auto& gap : gaps) {
    const std::int64_t a = now_ns();
    gap = now_ns() - a;
  }
  std::nth_element(gaps.begin(), gaps.begin() + kTrials / 2, gaps.end());
  clock_cost_ = gaps[kTrials / 2];

  // Median over batches of empty spans, recorded into a scratch tracer so
  // the real totals stay untouched.
  constexpr int kBatches = 51;
  constexpr int kSpansPerBatch = 2000;
  Tracer scratch;
  scratch.clock_cost_ = clock_cost_;
  std::vector<std::int64_t> per_span(kBatches);
  for (auto& cost : per_span) {
    const std::int64_t start = now_ns();
    for (int i = 0; i < kSpansPerBatch; ++i) {
      scratch.begin(Site::kScenario);
      scratch.end();
    }
    cost = (now_ns() - start) / kSpansPerBatch;
  }
  std::nth_element(per_span.begin(), per_span.begin() + kBatches / 2,
                   per_span.end());
  span_cost_ = per_span[kBatches / 2];
}

std::int64_t Tracer::accounted_ns() const {
  std::int64_t sum = overhead_ns_;
  for (const SiteTotals& t : totals_) sum += t.self_ns;
  return sum;
}

}  // namespace wsbench
