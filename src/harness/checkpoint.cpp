#include "harness/checkpoint.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/assert.hpp"
#include "core/err.hpp"
#include "harness/scenario_core.hpp"
#include "harness/workload_parse.hpp"
#include "obs/manifest.hpp"
#include "wormhole/arbiter.hpp"

namespace wormsched::harness {

namespace {

/// --- Config (de)serialization helpers ------------------------------------
///
/// The generative configuration travels inside the checkpoint so a restore
/// needs nothing beyond the file (and the run-local wiring).  Enum values
/// are range-checked on load: a corrupted-but-CRC-valid file must fail
/// with SnapshotError, never reach a switch default.

void save_fault_spec(SnapshotWriter& w, const validate::FaultSpec& s) {
  w.b(s.enabled);
  w.u64(s.seed);
  w.u64(s.window);
  w.f64(s.link_stall_rate);
  w.u64(s.link_stall_cycles);
  w.f64(s.credit_stall_rate);
  w.u64(s.credit_stall_cycles);
  w.f64(s.churn_rate);
  w.f64(s.burst_rate);
  w.f64(s.burst_multiplier);
  w.u32(s.num_nodes);
  w.u64(s.trace_jitter_max);
}

validate::FaultSpec load_fault_spec(SnapshotReader& r) {
  validate::FaultSpec s;
  s.enabled = r.b();
  s.seed = r.u64();
  s.window = r.u64();
  s.link_stall_rate = r.f64();
  s.link_stall_cycles = r.u64();
  s.credit_stall_rate = r.f64();
  s.credit_stall_cycles = r.u64();
  s.churn_rate = r.f64();
  s.burst_rate = r.f64();
  s.burst_multiplier = r.f64();
  s.num_nodes = r.u32();
  s.trace_jitter_max = r.u64();
  if (s.enabled && s.window == 0)
    throw SnapshotError("checkpoint fault spec has a zero epoch window");
  return s;
}

void save_length_spec(SnapshotWriter& w, const traffic::LengthSpec& s) {
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.i64(s.lo);
  w.i64(s.hi);
  w.f64(s.lambda);
  w.f64(s.bimodal_small_prob);
}

traffic::LengthSpec load_length_spec(SnapshotReader& r) {
  traffic::LengthSpec s;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(traffic::LengthSpec::Kind::kBimodal))
    throw SnapshotError("checkpoint length law kind out of range");
  s.kind = static_cast<traffic::LengthSpec::Kind>(kind);
  s.lo = r.i64();
  s.hi = r.i64();
  s.lambda = r.f64();
  s.bimodal_small_prob = r.f64();
  return s;
}

void save_traffic_config(SnapshotWriter& w,
                         const wormhole::NetworkTrafficSource::Config& c) {
  w.f64(c.packets_per_node_per_cycle);
  save_length_spec(w, c.lengths);
  w.u8(static_cast<std::uint8_t>(c.pattern.kind));
  w.f64(c.pattern.hotspot_fraction);
  w.u32(c.pattern.hotspot.value());
  w.u64(c.inject_until);
  w.u64(c.seed);
}

wormhole::NetworkTrafficSource::Config load_traffic_config(SnapshotReader& r) {
  wormhole::NetworkTrafficSource::Config c;
  c.packets_per_node_per_cycle = r.f64();
  c.lengths = load_length_spec(r);
  const std::uint8_t pattern = r.u8();
  if (pattern >
      static_cast<std::uint8_t>(wormhole::PatternSpec::Kind::kNeighbor))
    throw SnapshotError("checkpoint traffic pattern kind out of range");
  c.pattern.kind = static_cast<wormhole::PatternSpec::Kind>(pattern);
  c.pattern.hotspot_fraction = r.f64();
  c.pattern.hotspot = NodeId(r.u32());
  c.inject_until = r.u64();
  if (c.inject_until >= kCycleMax)
    throw SnapshotError("checkpoint injection window is unbounded");
  c.seed = r.u64();
  return c;
}

std::string manifest_to_json(const obs::RunManifest& manifest) {
  std::ostringstream os;
  manifest.write(os);
  return os.str();
}

}  // namespace

CheckpointProvenance read_checkpoint_provenance(const SnapshotFile& file) {
  if (file.version != kSnapshotFormatVersion)
    throw SnapshotError("unsupported snapshot format version " +
                        std::to_string(file.version));
  SnapshotReader r(file.payload);
  r.enter_section(kCkptMetaTag);
  CheckpointProvenance prov;
  prov.kind = r.str();
  prov.original_seed = r.u64();
  prov.saved_git_sha = r.str();
  prov.restore_count = r.u32();
  prov.saved_cycle = r.u64();
  r.leave_section();
  if (prov.kind != "network" && prov.kind != "scenario")
    throw SnapshotError("checkpoint kind \"" + prov.kind +
                        "\" is not a known run kind");
  return prov;
}

/// --- NetworkRun -----------------------------------------------------------

NetworkRun::NetworkRun(const NetworkScenarioConfig& config, std::uint64_t seed)
    : config_(config), original_seed_(seed) {
  WS_CHECK_MSG(config_.traffic.inject_until < kCycleMax,
               "network run needs a finite injection window");
  if (config_.faults.enabled) {
    // An independent fault schedule per run seed, sized to the topology.
    config_.faults.seed += seed;
    config_.faults.num_nodes = config_.network.topo.num_nodes();
  }
  config_.traffic.seed = seed;
  build();
  wire_observers();
}

NetworkRun::NetworkRun(const NetworkScenarioConfig& config,
                       const SnapshotFile& file)
    : config_(config),
      engine_(read_checkpoint_provenance(file).saved_cycle) {
  const CheckpointProvenance prov = read_checkpoint_provenance(file);
  if (prov.kind != "network")
    throw SnapshotError("expected a network checkpoint, found kind \"" +
                        prov.kind + "\"");
  original_seed_ = prov.original_seed;
  restore_count_ = prov.restore_count + 1;
  restored_ = true;
  trace_provenance_.restored = true;
  trace_provenance_.restored_from_sha = prov.saved_git_sha;
  trace_provenance_.original_seed = prov.original_seed;
  trace_provenance_.restore_cycle = prov.saved_cycle;
  end_cycle_ = prov.saved_cycle;

  SnapshotReader r(file.payload);
  r.enter_section(kCkptMetaTag);
  r.leave_section();  // parsed above
  r.enter_section(kCkptNetConfigTag);
  config_.drain_factor = r.u64();
  config_.traffic = load_traffic_config(r);
  config_.faults = load_fault_spec(r);
  r.leave_section();
  build();
  wire_observers();
  r.enter_section(kCkptNetworkTag);
  net_->restore_state(r);
  r.leave_section();
  r.enter_section(kCkptSourceTag);
  source_->restore_state(r);
  r.leave_section();
  // Trailing sections (e.g. SOAK) belong to the caller; leave them unread.
}

NetworkRun::~NetworkRun() = default;

void NetworkRun::build() {
  wormhole::NetworkConfig net_config = config_.network;
  if (config_.faults.enabled) {
    faults_.emplace(config_.faults);
    net_config.faults = &*faults_;
  }
  net_ = std::make_unique<wormhole::Network>(net_config);
  if (config_.perf_counters != nullptr)
    net_->set_perf_counters(config_.perf_counters);
  if (config_.trace.enabled()) {
    obs::TraceSink::Options sink_options;
    sink_options.capacity = config_.trace.capacity;
    sink_options.mask = config_.trace.mask;
    trace_sink_.emplace(sink_options);
    net_->set_trace_sink(&*trace_sink_);
  }
  wormhole::NetworkTrafficSource::Config traffic = config_.traffic;
  traffic.faults = net_config.faults;
  source_ = std::make_unique<wormhole::NetworkTrafficSource>(*net_, traffic);
  audit_log_ =
      config_.audit_log != nullptr ? config_.audit_log : &private_log_;
  engine_.add_component(*source_);
  engine_.add_component(*net_);
}

void NetworkRun::wire_observers() {
  obs::TraceSink* sink = trace_sink_ ? &*trace_sink_ : nullptr;

  // Auditors: the fabric auditor sees every cycle, and each ERR output
  // arbiter streams its opportunities into its own paper-bounds auditor;
  // all of them share one violation log.  Tracing subscribes to the same
  // single-slot opportunity stream, so when both are on one combined
  // listener per arbiter feeds auditor then sink.  Both auditors
  // tolerate joining mid-stream (they baseline off the first observed
  // state), which is what makes attaching them to a restored fabric safe.
  const bool trace_opportunities =
      sink != nullptr && sink->wants(obs::EventKind::kOpportunity);
  if (config_.audit || trace_opportunities) {
    if (config_.audit) {
      net_auditor_.emplace(config_.audit_config, *audit_log_);
      net_->attach_observer(&*net_auditor_);
    }
    const std::uint32_t nodes = net_->topology().num_nodes();
    const std::uint32_t vcs = config_.network.router.num_vcs;
    const std::size_t requesters =
        static_cast<std::size_t>(wormhole::kNumDirections) * vcs;
    for (std::uint32_t n = 0; n < nodes; ++n) {
      for (std::uint32_t d = 0; d < wormhole::kNumDirections; ++d) {
        for (std::uint32_t cls = 0; cls < vcs; ++cls) {
          auto* err = dynamic_cast<wormhole::ErrArbiter*>(
              &net_->router(NodeId(n)).arbiter(
                  static_cast<wormhole::Direction>(d), cls));
          if (err == nullptr) continue;
          validate::ErrAuditor* audit_ptr = nullptr;
          if (config_.audit && config_.audit_err) {
            auto auditor = std::make_unique<validate::ErrAuditor>(
                requesters, validate::ErrAuditorConfig{}, *audit_log_);
            audit_ptr = auditor.get();
            err_auditors_.push_back(std::move(auditor));
          }
          if (trace_opportunities) {
            const std::uint32_t unit = d * vcs + cls;
            err->policy().set_opportunity_listener(
                [sink, audit_ptr, n, unit](const core::ErrOpportunity& op) {
                  if (audit_ptr != nullptr) audit_ptr->on_opportunity(op);
                  sink->record(obs::TraceEvent::opportunity(
                      sink->now(), op.flow.value(), op.round, op.allowance,
                      op.surplus_count, n, unit));
                });
          } else if (audit_ptr != nullptr) {
            audit_ptr->attach(err->policy());
          }
        }
      }
    }
  }

  // A violation enters the trace ring and — once per run — dumps the
  // event window around it while the evidence is still in the ring.  A
  // restored run's dump carries the snapshot provenance (saving build's
  // SHA, original seed, restore cycle) so the exact run can be rebuilt.
  if (sink != nullptr) {
    audit_log_->set_on_report([this, sink](const validate::Violation& v) {
      sink->record(obs::TraceEvent::violation(
          sink->now(), sink->note(v.check + ": " + v.detail)));
      if (!violation_window_dumped_ && !config_.trace.chrome_path.empty()) {
        violation_window_dumped_ = true;
        obs::write_chrome_trace_file(
            config_.trace.chrome_path + ".violation.json", *sink,
            restored_ ? &trace_provenance_ : nullptr);
      }
    });
  }
}

bool NetworkRun::done() const {
  const Cycle inject_end = config_.traffic.inject_until;
  if (engine_.now() < inject_end) return false;
  if (engine_.now() >= inject_end * config_.drain_factor) return true;
  return source_->idle() && net_->idle() && engine_.pending_events() == 0;
}

void NetworkRun::advance_to(Cycle target) {
  const Cycle inject_end = config_.traffic.inject_until;
  const Cycle drain_cap = inject_end * config_.drain_factor;
  if (engine_.now() < inject_end)
    engine_.run_until(std::min(target, inject_end));
  if (engine_.now() >= inject_end)
    end_cycle_ = engine_.run_until_idle(std::min(target, drain_cap));
}

void NetworkRun::run_to_completion() { advance_to(kCycleMax); }

std::vector<std::uint8_t> NetworkRun::checkpoint_payload(
    const ExtraSections& extra) const {
  SnapshotWriter w;
  w.begin_section(kCkptMetaTag);
  w.str("network");
  w.u64(original_seed_);
  w.str(obs::current_git_sha());
  w.u32(restore_count_);
  w.u64(engine_.now());
  w.end_section();
  w.begin_section(kCkptNetConfigTag);
  w.u64(config_.drain_factor);
  save_traffic_config(w, config_.traffic);
  save_fault_spec(w, config_.faults);
  w.end_section();
  w.begin_section(kCkptNetworkTag);
  net_->save_state(w);
  w.end_section();
  w.begin_section(kCkptSourceTag);
  source_->save_state(w);
  w.end_section();
  if (extra) extra(w);
  return w.take();
}

SnapshotFile NetworkRun::make_snapshot_file(const ExtraSections& extra) const {
  obs::RunManifest manifest;
  manifest.tool = "wormsched checkpoint";
  manifest.seed = original_seed_;
  manifest.add_config("kind", "network");
  manifest.add_config("restore_count", std::to_string(restore_count_));
  manifest.add_config("traffic", config_.traffic.pattern.describe());
  manifest.add_config("faults", config_.faults.describe());
  manifest.add_counter("saved_cycle", static_cast<double>(engine_.now()));
  manifest.add_counter("generated_packets",
                       static_cast<double>(source_->generated()));
  manifest.add_counter("delivered_packets",
                       static_cast<double>(net_->delivered_packets()));
  manifest.violations = audit_log_->count();
  SnapshotFile file;
  file.manifest_json = manifest_to_json(manifest);
  file.payload = checkpoint_payload(extra);
  return file;
}

void NetworkRun::save_checkpoint(const std::string& path,
                                 const ExtraSections& extra) const {
  const SnapshotFile file = make_snapshot_file(extra);
  write_snapshot_file(path, file.manifest_json, file.payload);
}

NetworkScenarioResult NetworkRun::finish() {
  WS_CHECK_MSG(!finished_, "NetworkRun::finish() called twice");
  finished_ = true;
  NetworkScenarioResult result;
  result.end_cycle = end_cycle_;
  result.generated_packets = source_->generated();
  result.delivered_packets = net_->delivered_packets();
  result.delivered_flits = net_->delivered_flits();
  result.latency = net_->latency_overall();
  result.p99_latency = net_->latency_quantiles().quantile(0.99);
  if (config_.audit) {
    // Simulation-end flush: audits the tail window a sampled cadence
    // never reaches, and cross-checks the incremental ledgers one last
    // time against the full-scan oracle.
    net_auditor_->finish(end_cycle_, *net_);
    result.audit_checks = net_auditor_->checks_run();
    result.audit_full_rescans = net_auditor_->full_rescans();
    result.audit_violations = audit_log_->count();
    for (const auto& auditor : err_auditors_)
      result.audit_opportunities += auditor->opportunities();
    net_->detach_observer(&*net_auditor_);
  }
  if (trace_sink_) {
    result.trace_recorded = trace_sink_->recorded();
    result.trace_dropped = trace_sink_->dropped();
    const obs::TraceProvenance* prov =
        restored_ ? &trace_provenance_ : nullptr;
    if (!config_.trace.chrome_path.empty())
      obs::write_chrome_trace_file(config_.trace.chrome_path, *trace_sink_,
                                   prov);
    if (!config_.trace.timeline_csv.empty())
      obs::write_service_timeline_csv_file(config_.trace.timeline_csv,
                                           *trace_sink_);
    audit_log_->set_on_report({});
  }
  return result;
}

/// --- ScenarioRun ----------------------------------------------------------

ScenarioRun::ScenarioRun(const ScenarioSpec& spec) : spec_(spec) {
  original_seed_ = spec_.config.seed;
  build();
}

ScenarioRun::ScenarioRun(const ScenarioSpec& wiring, const SnapshotFile& file)
    : spec_(wiring) {
  const CheckpointProvenance prov = read_checkpoint_provenance(file);
  if (prov.kind != "scenario")
    throw SnapshotError("expected a scenario checkpoint, found kind \"" +
                        prov.kind + "\"");
  original_seed_ = prov.original_seed;
  restore_count_ = prov.restore_count + 1;
  restored_ = true;
  trace_provenance_.restored = true;
  trace_provenance_.restored_from_sha = prov.saved_git_sha;
  trace_provenance_.original_seed = prov.original_seed;
  trace_provenance_.restore_cycle = prov.saved_cycle;

  SnapshotReader r(file.payload);
  r.enter_section(kCkptMetaTag);
  r.leave_section();  // parsed above
  r.enter_section(kCkptScenConfigTag);
  spec_.scheduler = r.str();
  spec_.workload_text = r.str();
  spec_.config.horizon = r.u64();
  spec_.config.drain = r.b();
  spec_.config.seed = r.u64();
  spec_.config.flit_bytes = r.u64();
  spec_.config.sched.drr_quantum = r.i64();
  spec_.config.sched.err_reset_on_idle = r.b();
  restore_sequence(r, spec_.config.sched.perr_priorities,
                   [](SnapshotReader& in) { return in.u32(); });
  restore_doubles(r, spec_.config.weights);
  spec_.faults = load_fault_spec(r);
  r.leave_section();
  build();
  r.enter_section(kCkptScenStateTag);
  core_->restore_state(r);
  r.leave_section();
}

ScenarioRun::~ScenarioRun() = default;

void ScenarioRun::build() {
  std::string error;
  const std::optional<WorkloadParse> parsed =
      parse_workload(spec_.workload_text, &error);
  if (!parsed)
    throw SnapshotError("checkpoint workload \"" + spec_.workload_text +
                        "\" failed to parse: " + error);
  if (spec_.config.weights.empty()) spec_.config.weights = parsed->weights;

  trace_ = traffic::generate_trace(parsed->spec, spec_.config.horizon,
                                   spec_.config.seed);
  trace_ = validate::apply_trace_faults(spec_.faults, trace_);
  core_ = std::make_unique<ScenarioCore>(spec_.scheduler, spec_.config, trace_);
}

Cycle ScenarioRun::now() const { return core_->now(); }

bool ScenarioRun::done() const { return core_->done(); }

void ScenarioRun::advance_to(Cycle target) {
  while (!core_->done() && core_->now() < target) core_->step();
}

void ScenarioRun::run_to_completion() { core_->run_to_completion(); }

std::vector<std::uint8_t> ScenarioRun::checkpoint_payload() const {
  SnapshotWriter w;
  w.begin_section(kCkptMetaTag);
  w.str("scenario");
  w.u64(original_seed_);
  w.str(obs::current_git_sha());
  w.u32(restore_count_);
  w.u64(now());
  w.end_section();
  w.begin_section(kCkptScenConfigTag);
  w.str(spec_.scheduler);
  w.str(spec_.workload_text);
  w.u64(spec_.config.horizon);
  w.b(spec_.config.drain);
  w.u64(spec_.config.seed);
  w.u64(spec_.config.flit_bytes);
  w.i64(spec_.config.sched.drr_quantum);
  w.b(spec_.config.sched.err_reset_on_idle);
  save_sequence(w, spec_.config.sched.perr_priorities,
                [](SnapshotWriter& o, std::uint32_t p) { o.u32(p); });
  save_doubles(w, spec_.config.weights);
  save_fault_spec(w, spec_.faults);
  w.end_section();
  w.begin_section(kCkptScenStateTag);
  core_->save_state(w);
  w.end_section();
  return w.take();
}

SnapshotFile ScenarioRun::make_snapshot_file() const {
  obs::RunManifest manifest;
  manifest.tool = "wormsched checkpoint";
  manifest.seed = original_seed_;
  manifest.add_config("kind", "scenario");
  manifest.add_config("scheduler", spec_.scheduler);
  manifest.add_config("workload", spec_.workload_text);
  manifest.add_config("restore_count", std::to_string(restore_count_));
  manifest.add_counter("saved_cycle", static_cast<double>(now()));
  SnapshotFile file;
  file.manifest_json = manifest_to_json(manifest);
  file.payload = checkpoint_payload();
  return file;
}

void ScenarioRun::save_checkpoint(const std::string& path) const {
  const SnapshotFile file = make_snapshot_file();
  write_snapshot_file(path, file.manifest_json, file.payload);
}

ScenarioResult ScenarioRun::finish() { return core_->finish(); }

}  // namespace wormsched::harness
