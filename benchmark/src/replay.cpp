// replay_mt: `wormsched replay` of a 100k-flow elephant/mice trace.
//
// The only workload where the scheduler core and the metrics layer do all
// the work and the fabric does none; its cost is set by the flow count
// (run_scenario records every flow's activity every cycle), not by the
// flit count.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/registry.hpp"
#include "harness/scenario.hpp"
#include "metrics/delay.hpp"
#include "traffic/binary_trace.hpp"
#include "traffic/trace_synth.hpp"
#include "workload.hpp"

namespace wsbench {
namespace {

using namespace wormsched;

// `trace-gen --flows 100000 --cycles 800 --load 4 --scenario
// elephant-mice`.  The horizon is sized so one repetition takes about a
// second and a run repeats it several times.  The overload keeps the
// output port busy from the first few cycles to the end of the drain, so
// served flits track simulated cycles within about 1% on every seed; at
// the CLI's default load of 0.9 the few elephant packets decide how many
// cycles sit idle, and ns_per_flit swings by a third from seed to seed.
constexpr std::size_t kFlows = 100'000;
constexpr Cycle kCycles = 800;

traffic::SynthSpec synth_spec() {
  traffic::SynthSpec spec;
  spec.num_flows = kFlows;
  spec.horizon = kCycles;
  spec.load = 4.0;
  spec.elephant_fraction = 0.05;  // the elephant-mice preset
  spec.elephant_share = 0.7;
  return spec;
}

/// The configuration `wormsched replay` derives from a loaded trace.
harness::ScenarioConfig replay_config(const traffic::Trace& trace) {
  WS_CHECK_MSG(!trace.entries.empty(), "replay trace is empty");
  harness::ScenarioConfig config;
  config.horizon = trace.entries.back().cycle + 1;
  config.drain = true;
  config.sched.drr_quantum = trace.max_observed_length();
  return config;
}

/// Records head-flit instants and the largest served packet, exactly as
/// run_scenario's internal probe does.
class Probe final : public core::SchedulerObserver {
 public:
  explicit Probe(harness::ScenarioResult& result) : result_(result) {}
  void on_flit(Cycle now, const core::FlitEvent& flit) override {
    if (flit.is_head) result_.service_starts.push_back(now);
  }
  void on_packet_departure(Cycle, const core::Packet& packet) override {
    result_.max_served_packet =
        std::max(result_.max_served_packet, packet.length);
  }

 private:
  harness::ScenarioResult& result_;
};

/// Times every observer callback the scheduler makes.
class TimedObserver final : public core::SchedulerObserver {
 public:
  TimedObserver(core::SchedulerObserver& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  void on_packet_arrival(Cycle now, const core::Packet& p) override {
    Span span(tracer_, Site::kObserver);
    inner_.on_packet_arrival(now, p);
  }
  void on_flit(Cycle now, const core::FlitEvent& f) override {
    Span span(tracer_, Site::kObserver);
    inner_.on_flit(now, f);
  }
  void on_packet_departure(Cycle now, const core::Packet& p) override {
    Span span(tracer_, Site::kObserver);
    inner_.on_packet_departure(now, p);
  }

 private:
  core::SchedulerObserver& inner_;
  Tracer& tracer_;
};

/// run_scenario's loop with a span around each layer call.  It also
/// counts the activity records that changed a flow's state: only flows
/// that received a packet or sent a flit this cycle can change, so the
/// count costs O(touched) per cycle.
harness::ScenarioResult traced_scenario(const harness::ScenarioConfig& config,
                                        const traffic::Trace& trace,
                                        Tracer& tracer, LayerCounts& counts) {
  Span root(tracer, Site::kScenario);
  core::SchedulerParams params = config.sched;
  params.num_flows = trace.num_flows;
  auto scheduler = core::make_scheduler("err", params);
  WS_CHECK(scheduler != nullptr);
  harness::ScenarioResult result(trace.num_flows, config.flit_bytes);
  result.scheduler_name = std::string(scheduler->name());

  Probe probe(result);
  metrics::ObserverChain chain;
  chain.add(result.service_log);
  chain.add(result.delays);
  chain.add(probe);
  TimedObserver timed(chain, tracer);
  scheduler->set_observer(&timed);

  std::vector<std::uint8_t> was_active(trace.num_flows, 0);
  std::vector<FlowId> touched;
  std::size_t next_arrival = 0;
  PacketId::rep_type next_packet_id = 0;
  Cycle t = 0;
  for (;;) {
    while (next_arrival < trace.entries.size() &&
           trace.entries[next_arrival].cycle == t) {
      const traffic::TraceEntry& e = trace.entries[next_arrival];
      touched.push_back(e.flow);
      Span span(tracer, Site::kEnqueue);
      scheduler->enqueue(t, core::Packet{.id = PacketId(next_packet_id++),
                                         .flow = e.flow,
                                         .length = e.length,
                                         .arrival = t});
      ++next_arrival;
    }
    std::optional<core::FlitEvent> flit;
    {
      Span span(tracer, Site::kPull);
      flit = scheduler->pull_flit(t);
    }
    if (flit) touched.push_back(flit->flow);
    {
      Span span(tracer, Site::kActivity);
      for (std::size_t i = 0; i < trace.num_flows; ++i) {
        const FlowId flow(static_cast<FlowId::rep_type>(i));
        result.activity.record(t, flow, scheduler->queue_length(flow) > 0);
      }
    }
    for (const FlowId flow : touched) {
      const std::uint8_t active = scheduler->queue_length(flow) > 0 ? 1 : 0;
      if (active != was_active[flow.index()]) {
        was_active[flow.index()] = active;
        ++counts.activity_changes;
      }
    }
    touched.clear();
    counts.activity_records += trace.num_flows;
    ++t;
    if (t >= config.horizon) {
      const bool arrivals_done = next_arrival >= trace.entries.size();
      if (!config.drain) break;
      if (arrivals_done && scheduler->idle()) break;
    }
  }
  result.end_cycle = t;
  result.activity.finish(t);
  result.residual_backlog = scheduler->backlog_flits();
  scheduler->set_observer(nullptr);
  return result;
}

class ReplayWorkload final : public Workload {
 public:
  ~ReplayWorkload() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  void prepare(std::uint64_t seed, const std::string& workdir) override {
    path_ = workdir + "/replay_mt-" + std::to_string(seed) + ".wst";
    traffic::BinaryTraceWriter writer(kFlows);
    traffic::synthesize_trace(
        synth_spec(), seed,
        [&](const traffic::TraceEntry& e) { writer.append(e); });
    bytes_ = writer.finish(
        "{\"format\":\"wormsched-trace-meta-v1\",\"tool\":\"wsbench\","
        "\"seed\":" +
        std::to_string(seed) + "}");
    traffic::write_binary_trace_bytes(path_, bytes_);
  }

  RepResult run(std::uint64_t) override {
    const std::int64_t t0 = now_ns();
    const traffic::Trace trace = traffic::load_binary_trace_file(path_);
    build_tables(trace);
    const std::int64_t t1 = now_ns();
    const harness::ScenarioResult result =
        harness::run_scenario("err", replay_config(trace), trace);
    const std::int64_t t2 = now_ns();
    return summarize(trace, result, t0, t1, t2);
  }

  RepResult run_traced(std::uint64_t, Tracer& tracer,
                       LayerCounts& counts) override {
    const std::int64_t t0 = now_ns();
    std::optional<traffic::Trace> trace;
    {
      Span span(tracer, Site::kDecode);
      trace.emplace(traffic::load_binary_trace_file(path_));
    }
    counts.decoded_bytes += bytes_.size();
    const std::int64_t t1 = now_ns();
    const harness::ScenarioResult result =
        traced_scenario(replay_config(*trace), *trace, tracer, counts);
    const std::int64_t t2 = now_ns();
    counts.cycles += result.end_cycle;
    counts.flits +=
        static_cast<std::uint64_t>(result.service_log.grand_total());
    return summarize(*trace, result, t0, t1, t2);
  }

  double setup_probe(std::uint64_t) override {
    const std::int64_t t0 = now_ns();
    const traffic::Trace trace = traffic::load_binary_trace_file(path_);
    build_tables(trace);
    const std::int64_t t1 = now_ns();
    return static_cast<double>(t1 - t0) * 1e-9;
  }

  std::optional<double> run_stage_pass(std::uint64_t,
                                       metrics::PerfCounters&) override {
    return std::nullopt;
  }

 private:
  /// Builds and drops the scheduler and per-flow result tables
  /// run_scenario allocates before its first cycle.  run_scenario builds
  /// its own inside, so set-up is timed on this twin: trace load plus
  /// these tables is what a replay waits for before cycle 0.
  static void build_tables(const traffic::Trace& trace) {
    const harness::ScenarioConfig config = replay_config(trace);
    core::SchedulerParams params = config.sched;
    params.num_flows = trace.num_flows;
    const auto scheduler = core::make_scheduler("err", params);
    const harness::ScenarioResult tables(trace.num_flows, config.flit_bytes);
    WS_CHECK(scheduler != nullptr && tables.num_flows() == trace.num_flows);
  }

  static RepResult summarize(const traffic::Trace& trace,
                             const harness::ScenarioResult& result,
                             std::int64_t t0, std::int64_t t1,
                             std::int64_t t2) {
    RepResult rep;
    rep.setup_s = static_cast<double>(t1 - t0) * 1e-9;
    rep.run_s = static_cast<double>(t2 - t1) * 1e-9;
    rep.flits = static_cast<std::uint64_t>(result.service_log.grand_total());
    rep.attempted = trace.entries.size();
    rep.sim_cycles = result.end_cycle;
    rep.latency_mean = result.delays.overall().mean();
    rep.latency_p99 = result.delays.quantile(0.99);
    // Gate: the drain must serve every packet.
    const std::uint64_t departed = result.delays.packets();
    if (result.residual_backlog != 0 || departed != rep.attempted) {
      rep.failed = rep.attempted > departed ? rep.attempted - departed : 1;
      rep.failures.push_back(
          "replay_mt: residual backlog " +
          std::to_string(result.residual_backlog) + " flits, " +
          std::to_string(departed) + " of " + std::to_string(rep.attempted) +
          " packets served");
    }
    Digest d;
    d.add(result.end_cycle);
    d.add(static_cast<std::uint64_t>(result.residual_backlog));
    d.add(static_cast<std::uint64_t>(result.max_served_packet));
    d.add(result.service_starts.size());
    for (std::size_t f = 0; f < result.num_flows(); ++f)
      d.add(static_cast<std::uint64_t>(
          result.service_log.total(FlowId(static_cast<FlowId::rep_type>(f)))));
    const RunningStat& delay = result.delays.overall();
    d.add(delay.count());
    d.add_double(delay.mean());
    d.add_double(delay.sum());
    d.add_double(delay.variance());
    d.add_double(delay.min());
    d.add_double(delay.max());
    d.add_double(*rep.latency_p99);
    rep.digest = d.value();
    return rep;
  }

  std::string path_;
  std::vector<std::uint8_t> bytes_;
};

}  // namespace

std::unique_ptr<Workload> make_replay_workload() {
  return std::make_unique<ReplayWorkload>();
}

}  // namespace wsbench
