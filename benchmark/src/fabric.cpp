// mesh_uniform and hotspot_audit: `wormsched network` runs.
//
// mesh_uniform keeps every router of a 16x16 mesh live at about two
// thirds of saturation, so the router pipeline, wires and NICs do almost
// all the work.  hotspot_audit uses the same layer differently: sparse
// traffic contended at node 0, fault injection, and the incremental
// NetworkAuditor plus per-arbiter ErrAuditors checking every cycle.
#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "harness/checkpoint.hpp"
#include "traced_fabric.hpp"
#include "wormhole/arbiter.hpp"

namespace wsbench {

using namespace wormsched;

TracedFabric::TracedFabric(const harness::NetworkScenarioConfig& config,
                           std::uint64_t seed, Tracer& tracer,
                           LayerCounts& counts, Cycle start_cycle)
    : config_(config),
      tracer_(tracer),
      engine_(start_cycle),
      end_cycle_(start_cycle) {
  // NetworkRun's constructor and build(): the same seeding, the same
  // construction order, the same component registration order.
  WS_CHECK(config_.traffic.inject_until < kCycleMax);
  if (config_.faults.enabled) {
    config_.faults.seed += seed;
    config_.faults.num_nodes = config_.network.topo.num_nodes();
  }
  config_.traffic.seed = seed;
  wormhole::NetworkConfig net_config = config_.network;
  if (config_.faults.enabled) {
    faults_.emplace(config_.faults);
    net_config.faults = &*faults_;
  }
  net_ = std::make_unique<wormhole::Network>(net_config);
  wormhole::NetworkTrafficSource::Config traffic = config_.traffic;
  traffic.faults = net_config.faults;
  source_ = std::make_unique<wormhole::NetworkTrafficSource>(*net_, traffic);
  source_proxy_.emplace(*source_, Site::kSourceTick, tracer, nullptr, counts);
  net_proxy_.emplace(*net_, Site::kTick, tracer, net_.get(), counts);
  engine_.add_component(*source_proxy_);
  engine_.add_component(*net_proxy_);

  // NetworkRun::wire_observers() with auditing on: the fabric auditor
  // behind a timed observer, one ErrAuditor per ERR output arbiter behind
  // a timed opportunity listener.
  if (!config_.audit) return;
  net_auditor_.emplace(config_.audit_config, log_);
  net_auditor_proxy_.emplace(*net_auditor_, tracer);
  net_->attach_observer(&*net_auditor_proxy_);
  if (!config_.audit_err) return;
  const std::uint32_t vcs = config_.network.router.num_vcs;
  const std::size_t requesters =
      static_cast<std::size_t>(wormhole::kNumDirections) * vcs;
  for (std::uint32_t n = 0; n < net_->topology().num_nodes(); ++n) {
    for (std::uint32_t d = 0; d < wormhole::kNumDirections; ++d) {
      for (std::uint32_t cls = 0; cls < vcs; ++cls) {
        auto* err = dynamic_cast<wormhole::ErrArbiter*>(
            &net_->router(NodeId(n)).arbiter(
                static_cast<wormhole::Direction>(d), cls));
        if (err == nullptr) continue;
        auto& auditor = err_auditors_.emplace_back(
            std::make_unique<validate::ErrAuditor>(
                requesters, validate::ErrAuditorConfig{}, log_));
        validate::ErrAuditor* audit = auditor.get();
        err->policy().set_opportunity_listener(
            [audit, &tracer](const core::ErrOpportunity& op) {
              Span span(tracer, Site::kErrAudit);
              audit->on_opportunity(op);
            });
      }
    }
  }
}

bool TracedFabric::done() const {
  const Cycle inject_end = config_.traffic.inject_until;
  if (engine_.now() < inject_end) return false;
  if (engine_.now() >= inject_end * config_.drain_factor) return true;
  return source_->idle() && net_->idle() && engine_.pending_events() == 0;
}

void TracedFabric::advance_to(Cycle target) {
  const Cycle inject_end = config_.traffic.inject_until;
  const Cycle drain_cap = inject_end * config_.drain_factor;
  if (engine_.now() < inject_end) {
    Span span(tracer_, Site::kEngine);
    engine_.run_until(std::min(target, inject_end));
  }
  if (engine_.now() >= inject_end) {
    Span span(tracer_, Site::kEngine);
    end_cycle_ = engine_.run_until_idle(std::min(target, drain_cap));
  }
}

harness::NetworkScenarioResult TracedFabric::finish() {
  Span span(tracer_, Site::kFinish);
  harness::NetworkScenarioResult result;
  result.end_cycle = end_cycle_;
  result.generated_packets = source_->generated();
  result.delivered_packets = net_->delivered_packets();
  result.delivered_flits = net_->delivered_flits();
  result.latency = net_->latency_overall();
  result.p99_latency = net_->latency_quantiles().quantile(0.99);
  if (config_.audit) {
    net_auditor_->finish(end_cycle_, *net_);
    result.audit_checks = net_auditor_->checks_run();
    result.audit_full_rescans = net_auditor_->full_rescans();
    result.audit_violations = log_.count();
    for (const auto& auditor : err_auditors_)
      result.audit_opportunities += auditor->opportunities();
    net_->detach_observer(&*net_auditor_proxy_);
  }
  return result;
}

void digest_network(const harness::NetworkScenarioResult& r, Digest& d) {
  d.add(r.end_cycle);
  d.add(r.generated_packets);
  d.add(r.delivered_packets);
  d.add(r.delivered_flits);
  d.add(r.latency.count());
  d.add_double(r.latency.mean());
  d.add_double(r.latency.sum());
  d.add_double(r.latency.variance());
  d.add_double(r.latency.min());
  d.add_double(r.latency.max());
  d.add_double(r.p99_latency);
  d.add(r.audit_checks);
  d.add(r.audit_full_rescans);
  d.add(r.audit_violations);
  d.add(r.audit_opportunities);
}

std::uint64_t flit_hops(const wormhole::Network& net) {
  std::uint64_t hops = 0;
  for (const wormhole::DeliveredPacket& p : net.delivered())
    hops += static_cast<std::uint64_t>(p.length) *
            (net.topology().hops(p.source, p.dest) + 1);
  return hops;
}

namespace {

/// The `wormsched network` configuration of each workload.  Injection
/// windows are sized so one repetition takes about a second; the rates
/// and shapes are the workloads' defining properties.
harness::NetworkScenarioConfig network_config(bool hotspot_audit) {
  harness::NetworkScenarioConfig point;
  wormhole::NetworkConfig& net = point.network;
  net.router.arbiter = "err-cycles";
  net.router.num_vcs = 2;
  net.router.buffer_depth = 8;
  net.router.flow_control = wormhole::FlowControl::kCredit;
  net.router.buffer_model = wormhole::BufferModel::kFinite;
  net.routing = wormhole::NetworkConfig::Routing::kDor;
  if (!hotspot_audit) {
    // network --topo mesh16x16 --pattern uniform --rate 0.008
    //         --cycles 50000
    net.topo = wormhole::TopologySpec::mesh(16, 16);
    point.traffic.packets_per_node_per_cycle = 0.008;
    point.traffic.inject_until = 50'000;
    point.traffic.pattern.kind = wormhole::PatternSpec::Kind::kUniform;
    return point;
  }
  // network --topo mesh8x8 --pattern hotspot --rate 0.004
  //         --cycles 300000 --faults --audit
  net.topo = wormhole::TopologySpec::mesh(8, 8);
  point.traffic.packets_per_node_per_cycle = 0.004;
  point.traffic.inject_until = 300'000;
  point.traffic.pattern.kind = wormhole::PatternSpec::Kind::kHotspot;
  // The --faults defaults of validate::add_fault_options.
  validate::FaultSpec& faults = point.faults;
  faults.enabled = true;
  faults.seed = 1;
  faults.window = 64;
  faults.link_stall_rate = 0.1;
  faults.link_stall_cycles = 4;
  faults.credit_stall_rate = 0.05;
  faults.credit_stall_cycles = 16;
  faults.churn_rate = 0.1;
  faults.burst_rate = 0.05;
  faults.burst_multiplier = 4.0;
  point.audit = true;
  point.audit_config.mode = validate::AuditMode::kIncremental;
  return point;
}

class FabricWorkload final : public Workload {
 public:
  explicit FabricWorkload(bool hotspot_audit)
      : name_(hotspot_audit ? "hotspot_audit" : "mesh_uniform"),
        point_(network_config(hotspot_audit)) {}

  void prepare(std::uint64_t, const std::string&) override {}

  RepResult run(std::uint64_t seed) override {
    const std::int64_t t0 = now_ns();
    harness::NetworkRun run(point_, seed);
    const std::int64_t t1 = now_ns();
    run.run_to_completion();
    const harness::NetworkScenarioResult result = run.finish();
    const std::int64_t t2 = now_ns();
    return summarize(result, t0, t1, t2);
  }

  RepResult run_traced(std::uint64_t seed, Tracer& tracer,
                       LayerCounts& counts) override {
    const std::int64_t t0 = now_ns();
    std::optional<TracedFabric> fabric;
    {
      Span span(tracer, Site::kBuild);
      fabric.emplace(point_, seed, tracer, counts);
    }
    const std::int64_t t1 = now_ns();
    fabric->run_to_completion();
    const harness::NetworkScenarioResult result = fabric->finish();
    const std::int64_t t2 = now_ns();
    counts.cycles += result.end_cycle;
    counts.flits += result.delivered_flits;
    counts.flit_hops += flit_hops(fabric->network());
    counts.full_rescans += result.audit_full_rescans;
    return summarize(result, t0, t1, t2);
  }

  double setup_probe(std::uint64_t seed) override {
    const std::int64_t t0 = now_ns();
    const harness::NetworkRun run(point_, seed);
    const std::int64_t t1 = now_ns();
    WS_CHECK(!run.done());
    return static_cast<double>(t1 - t0) * 1e-9;
  }

  std::optional<double> run_stage_pass(
      std::uint64_t seed, metrics::PerfCounters& counters) override {
    harness::NetworkScenarioConfig point = point_;
    point.perf_counters = &counters;
    const std::int64_t t0 = now_ns();
    harness::NetworkRun run(point, seed);
    run.run_to_completion();
    (void)run.finish();
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

 private:
  RepResult summarize(const harness::NetworkScenarioResult& result,
                      std::int64_t t0, std::int64_t t1,
                      std::int64_t t2) const {
    RepResult rep;
    rep.setup_s = static_cast<double>(t1 - t0) * 1e-9;
    rep.run_s = static_cast<double>(t2 - t1) * 1e-9;
    rep.flits = result.delivered_flits;
    rep.attempted = result.generated_packets;
    rep.sim_cycles = result.end_cycle;
    rep.latency_mean = result.latency.mean();
    rep.latency_p99 = result.p99_latency;
    // Gate: the drain delivers every injected packet, and the auditors
    // (hotspot_audit) report nothing.
    if (result.delivered_packets != result.generated_packets) {
      rep.failed += result.generated_packets > result.delivered_packets
                        ? result.generated_packets - result.delivered_packets
                        : 1;
      rep.failures.push_back(
          name_ + ": delivered " + std::to_string(result.delivered_packets) +
          " of " + std::to_string(result.generated_packets) + " packets");
    }
    if (result.audit_violations != 0) {
      rep.failed += result.audit_violations;
      rep.failures.push_back(name_ + ": " +
                             std::to_string(result.audit_violations) +
                             " audit violation(s)");
    }
    if (point_.audit && result.audit_checks == 0) {
      ++rep.failed;
      rep.failures.push_back(name_ + ": the auditor never ran");
    }
    Digest d;
    digest_network(result, d);
    rep.digest = d.value();
    return rep;
  }

  std::string name_;
  harness::NetworkScenarioConfig point_;
};

}  // namespace

std::unique_ptr<Workload> make_fabric_workload(bool hotspot_audit) {
  return std::make_unique<FabricWorkload>(hotspot_audit);
}

}  // namespace wsbench
