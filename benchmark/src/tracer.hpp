// In-memory span tracing for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own files, around the
// calls it makes into each library layer (the library itself carries no
// instrumentation).  Every span belongs to one call site; per site the
// tracer keeps a count, the total and self time, and a log-linear
// histogram of per-call self time.  Self time is a span's duration minus
// the durations of the spans it encloses.  The cost of one clock read is
// calibrated at start and subtracted from every span; the calibrated cost
// of recording a span is charged to tracing itself, not to the enclosing
// span, so the layers' self times plus that overhead add up to the traced
// wall time.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace wsbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Log-linear histogram of non-negative nanosecond values: exact below 8,
/// then 8 linear sub-buckets per power of two (at most 12.5% bucket
/// width), so p50/p99 come out within a few percent.
class Histogram {
 public:
  void add(std::int64_t ns);
  /// Interpolated quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  static constexpr std::size_t kSub = 8;
  static constexpr std::size_t kBuckets = kSub + 60 * kSub;
  [[nodiscard]] static std::size_t index(std::uint64_t v);
  [[nodiscard]] static double lower(std::size_t index);
  [[nodiscard]] static double width(std::size_t index);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

/// The call sites the benchmark times, named <layer>.<call> after the
/// library module that does the work.
enum class Site : std::uint8_t {
  kDecode,          // traffic: load_binary_trace_file
  kSourceTick,      // traffic: NetworkTrafficSource::tick
  kEnqueue,         // core: Scheduler::enqueue
  kPull,            // core: Scheduler::pull_flit
  kObserver,        // metrics: ServiceLog + DelayStats callbacks
  kActivity,        // metrics: the per-cycle ActivityTracker::record sweep
  kSoakObserve,     // metrics: SteadyStateTracker::observe
  kEngine,          // sim: Engine::run_until / run_until_idle
  kTick,            // wormhole: Network::tick
  kNetAudit,        // validate: NetworkAuditor::on_cycle_end
  kErrAudit,        // validate: ErrAuditor::on_opportunity
  kScenario,        // harness: the replay loop around the scheduler
  kBuild,           // harness: fabric wiring (network, source, auditors)
  kCheckpointSave,  // harness: save_state + write_snapshot_file
  kRestore,         // harness: read_snapshot_file + restore_state
  kFinish,          // harness: end-of-run flush and result collection
};
inline constexpr std::size_t kNumSites = 16;

[[nodiscard]] const char* site_layer(Site s);
[[nodiscard]] const char* site_name(Site s);

class Tracer {
 public:
  struct SiteTotals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    Histogram self_hist;
  };

  /// Measures the median cost of one clock read, subtracted from every
  /// span, and the full cost of recording one span, which is charged to
  /// tracing instead of to the enclosing span's self time.
  void calibrate();
  [[nodiscard]] std::int64_t clock_cost_ns() const { return clock_cost_; }
  [[nodiscard]] std::int64_t span_cost_ns() const { return span_cost_; }
  /// Estimated time spent recording spans (span_cost per span).
  [[nodiscard]] std::int64_t overhead_ns() const { return overhead_ns_; }

  void begin(Site site) {
    stack_[depth_++] = Frame{site, now_ns(), 0};
  }
  void end() {
    const std::int64_t stop = now_ns();
    const Frame frame = stack_[--depth_];
    std::int64_t raw = stop - frame.start - clock_cost_;
    if (raw < 0) raw = 0;
    std::int64_t self = raw - frame.children;
    if (self < 0) self = 0;
    SiteTotals& t = totals_[static_cast<std::size_t>(frame.site)];
    ++t.count;
    t.total_ns += raw;
    t.self_ns += self;
    t.self_hist.add(self);
    overhead_ns_ += span_cost_;
    if (depth_ > 0) stack_[depth_ - 1].children += raw + span_cost_;
  }

  [[nodiscard]] const SiteTotals& totals(Site s) const {
    return totals_[static_cast<std::size_t>(s)];
  }
  /// Sum of every site's self time plus the tracing overhead: the time
  /// the spans account for.
  [[nodiscard]] std::int64_t accounted_ns() const;

 private:
  struct Frame {
    Site site;
    std::int64_t start;
    std::int64_t children;
  };
  // Span nesting in the benchmark is at most three deep
  // (engine > tick > audit); eight leaves room without a bounds check on
  // the hot path.
  std::array<Frame, 8> stack_{};
  std::size_t depth_ = 0;
  std::int64_t clock_cost_ = 0;
  std::int64_t span_cost_ = 0;
  std::int64_t overhead_ns_ = 0;
  std::array<SiteTotals, kNumSites> totals_{};
};

/// RAII span.
class Span {
 public:
  Span(Tracer& tracer, Site site) : tracer_(tracer) { tracer_.begin(site); }
  ~Span() { tracer_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace wsbench
