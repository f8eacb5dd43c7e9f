#include "harness/checkpoint.hpp"

#include <filesystem>
#include <sstream>
#include <utility>

#include "common/assert.hpp"
#include "core/err.hpp"
#include "core/registry.hpp"
#include "harness/scenario_core.hpp"
#include "harness/workload_parse.hpp"
#include "harness/soak.hpp"
#include "obs/manifest.hpp"
#include "wormhole/arbiter.hpp"

namespace wormsched::harness {

namespace {

/// --- Configuration fields -------------------------------------------------
///
/// The generative configuration travels inside the checkpoint so a restore
/// needs nothing beyond the file (and the run-local wiring).  Enum values
/// are declared with their last value: a corrupted-but-CRC-valid file must
/// fail with SnapshotError, never reach a switch default.

void fields(Archive& a, validate::FaultSpec& s) {
  a.b("enabled", s.enabled);
  a.u64("seed", s.seed);
  a.u64("window", s.window);
  a.f64("link_stall_rate", s.link_stall_rate);
  a.u64("link_stall_cycles", s.link_stall_cycles);
  a.f64("credit_stall_rate", s.credit_stall_rate);
  a.u64("credit_stall_cycles", s.credit_stall_cycles);
  a.f64("churn_rate", s.churn_rate);
  a.f64("burst_rate", s.burst_rate);
  a.f64("burst_multiplier", s.burst_multiplier);
  a.u32("num_nodes", s.num_nodes);
  a.u64("trace_jitter_max", s.trace_jitter_max);
  if (a.loading() && s.enabled && s.window == 0)
    a.fail("window", "is a zero epoch window");
}

void fields(Archive& a, traffic::LengthSpec& s) {
  a.enumeration<std::uint8_t>("kind", s.kind,
                              traffic::LengthSpec::Kind::kBimodal);
  // sample_length's preconditions: 1 <= lo <= hi, and a positive rate
  // for the truncated exponential.
  a.i64("lo", s.lo, at_least<Flits>(1));
  a.i64("hi", s.hi, at_least(s.lo));
  a.f64("lambda", s.lambda);
  if (a.loading() && s.kind == traffic::LengthSpec::Kind::kTruncExp &&
      !(s.lambda > 0.0))
    a.fail("lambda", "is not a positive rate");
  a.f64("bimodal_small_prob", s.bimodal_small_prob);
}

void fields(Archive& a, wormhole::NetworkTrafficSource::Config& c) {
  a.f64("packets_per_node_per_cycle", c.packets_per_node_per_cycle);
  {
    const Archive::Scope s = a.scope("lengths");
    fields(a, c.lengths);
    // A fabric flit indexes its packet in 32 bits.
    if (a.loading() && c.lengths.hi > wormhole::kMaxPacketFlits)
      a.fail("hi", "= " + std::to_string(c.lengths.hi) +
                       " is longer than a fabric packet can be");
  }
  a.enumeration<std::uint8_t>("pattern", c.pattern.kind,
                              wormhole::PatternSpec::Kind::kNeighbor);
  a.f64("hotspot_fraction", c.pattern.hotspot_fraction);
  a.id("hotspot", c.pattern.hotspot);
  // A bounded injection window: the drain cap is a multiple of it.
  a.u64("inject_until", c.inject_until, at_most(kCycleMax - 1));
  a.u64("seed", c.seed);
}

/// NCFG, and NTRC for a trace-driven run.  A restore takes the trace from
/// `c.trace_in` when set, else from the recorded path, and requires its
/// arrival count and CRC to match.
void input_fields(Archive& a, NetworkScenarioConfig& c) {
  a.section(kCkptNetConfigTag, "NCFG", [&] {
    a.u64("drain_factor", c.drain_factor);
    {
      const Archive::Scope s = a.scope("traffic");
      fields(a, c.traffic);
    }
    const Archive::Scope s = a.scope("faults");
    fields(a, c.faults);
  });
  if (a.saving() ? c.trace_in == nullptr
                 : a.peek_section() != kCkptTraceTag) {
    if (c.trace_in != nullptr)
      throw SnapshotError("trace " + c.trace_in->path +
                          " was given, but the checkpoint's run replays none");
    return;
  }
  a.section(kCkptTraceTag, "NTRC", [&] {
    std::string path = a.saving() ? c.trace_in->path : std::string();
    a.str("path", path);
    if (a.loading() && c.trace_in == nullptr) {
      if (!std::filesystem::is_regular_file(path))  // no FIFO or device
        a.fail("path", "'" + path + "' is missing or not a regular file");
      c.trace_in = load_replay_trace(path);
    }
    a.fingerprint<std::uint64_t>("arrivals", c.trace_in->trace.entries.size());
    a.fingerprint<std::uint32_t>("crc", c.trace_in->crc);
  });
}

void expect_kind(const CheckpointProvenance& prov, std::string_view kind) {
  if (prov.kind != kind)
    throw SnapshotError("expected a " + std::string(kind) +
                        " checkpoint, found kind \"" + prov.kind + "\"");
}

/// Takes over the provenance of the checkpoint being restored.
void adopt(const CheckpointProvenance& prov, std::string_view kind,
           std::uint64_t& original_seed, std::uint32_t& restore_count,
           bool& restored, obs::TraceProvenance& trace) {
  expect_kind(prov, kind);
  original_seed = prov.original_seed;
  restore_count = prov.restore_count + 1;
  restored = true;
  trace.restored = true;
  trace.restored_from_sha = prov.saved_git_sha;
  trace.original_seed = prov.original_seed;
  trace.restore_cycle = prov.saved_cycle;
}

std::string manifest_to_json(const obs::RunManifest& manifest) {
  std::ostringstream os;
  manifest.write(os);
  return os.str();
}

}  // namespace

void CheckpointProvenance::fields(Archive& a) {
  a.str("kind", kind);
  a.u64("original_seed", original_seed);
  a.str("saved_git_sha", saved_git_sha);
  a.u32("restore_count", restore_count);
  a.u64("saved_cycle", saved_cycle);
  if (a.loading() && kind != "network" && kind != "scenario")
    a.fail("kind", "\"" + kind + "\" is not a known run kind");
}

CheckpointProvenance read_checkpoint_provenance(const SnapshotFile& file) {
  if (file.version != kSnapshotFormatVersion)
    throw SnapshotError("unsupported snapshot format version " +
                        std::to_string(file.version));
  SnapshotReader r(file.payload);
  Archive a(r);
  CheckpointProvenance prov;
  a.section(kCkptMetaTag, "META", [&] { prov.fields(a); });
  return prov;
}

/// --- NetworkRun -----------------------------------------------------------

NetworkScenarioConfig read_network_inputs(const SnapshotFile& file,
                                          NetworkScenarioConfig config) {
  expect_kind(read_checkpoint_provenance(file), "network");
  SnapshotReader r(file.payload);
  r.skip_section();  // META
  Archive a(r);
  input_fields(a, config);
  return config;
}

NetworkRun::NetworkRun(const NetworkScenarioConfig& config, std::uint64_t seed)
    : config_(config), original_seed_(seed) {
  WS_CHECK_MSG(config_.trace_in != nullptr ||
                   config_.traffic.inject_until < kCycleMax,
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
                       const SnapshotFile& file, FieldMap* map)
    : config_(config) {
  (void)read_checkpoint_provenance(file);  // the version gate
  SnapshotReader r(file.payload);
  Archive a(r, map);
  fields(a);
  // Trailing sections (e.g. SOAK) belong to the caller; leave them unread.
}

void NetworkRun::fields(Archive& a) {
  CheckpointProvenance prov{"network", original_seed_,
                            a.saving() ? obs::current_git_sha() : "",
                            restore_count_, now_};
  a.section(kCkptMetaTag, "META", [&] { prov.fields(a); });
  if (a.loading()) {
    adopt(prov, "network", original_seed_, restore_count_, restored_,
          trace_provenance_);
    now_ = end_cycle_ = prov.saved_cycle;
  }
  input_fields(a, config_);
  if (a.loading()) {
    build();
    wire_observers();
  }
  a.section(kCkptNetworkTag, "NNET", [&] { net_->fields(a); });
  a.section(kCkptSourceTag, "NSRC", [&] {
    if (source_) source_->fields(a);
    else trace_source_->fields(a);
  });
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
  if (config_.trace_in != nullptr) {
    const traffic::Trace* trace = &config_.trace_in->trace;
    if (config_.faults.enabled) {
      faulted_trace_ = validate::apply_trace_faults(config_.faults, *trace);
      trace = &faulted_trace_;
    }
    trace_source_ = std::make_unique<wormhole::TraceTrafficSource>(
        *net_, wormhole::TraceTrafficSource::Config{
                   trace, config_.traffic.pattern, config_.traffic.seed});
    config_.traffic.inject_until = trace_source_->inject_until();
  } else {
    wormhole::NetworkTrafficSource::Config traffic = config_.traffic;
    traffic.faults = net_config.faults;
    source_ =
        std::make_unique<wormhole::NetworkTrafficSource>(*net_, traffic);
  }
  audit_log_ =
      config_.audit_log != nullptr ? config_.audit_log : &private_log_;
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
  // Injection runs every cycle; the drain stops once the source and the
  // fabric are idle, or at the cap (which keeps the 1,000 cycles of slack
  // a trace-driven run always had).
  const Cycle inject_end = config_.traffic.inject_until;
  if (now_ < inject_end) return false;
  const Cycle cap =
      inject_end * config_.drain_factor + (trace_source_ ? 1000 : 0);
  const bool source_idle = source_ ? source_->idle() : trace_source_->idle();
  return now_ >= cap || (source_idle && net_->idle());
}

void NetworkRun::advance_to(Cycle target) {
  for (; now_ < target && !done(); ++now_) {
    if (source_) source_->tick(now_);
    else trace_source_->tick(now_);
    net_->tick(now_);
  }
  if (now_ >= config_.traffic.inject_until) end_cycle_ = now_;
}

void NetworkRun::run_to_completion() { advance_to(kCycleMax); }

std::vector<std::uint8_t> NetworkRun::checkpoint_payload(
    const ExtraSections& extra) const {
  SnapshotWriter w;
  Archive a(w);
  // A saving Archive writes no member.
  const_cast<NetworkRun*>(this)->fields(a);
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
  if (config_.trace_in) manifest.add_config("trace_in", config_.trace_in->path);
  manifest.add_config("faults", config_.faults.describe());
  manifest.add_counter("saved_cycle", static_cast<double>(now_));
  const std::uint64_t generated =
      source_ ? source_->generated() : trace_source_->generated();
  manifest.add_counter("generated_packets", static_cast<double>(generated));
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
  result.generated_packets =
      source_ ? source_->generated() : trace_source_->generated();
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

ScenarioRun::ScenarioRun(const ScenarioSpec& wiring, const SnapshotFile& file,
                         FieldMap* map)
    : spec_(wiring) {
  (void)read_checkpoint_provenance(file);  // the version gate
  SnapshotReader r(file.payload);
  Archive a(r, map);
  fields(a);
}

void ScenarioRun::fields(Archive& a) {
  CheckpointProvenance prov{"scenario", original_seed_,
                            a.saving() ? obs::current_git_sha() : "",
                            restore_count_, a.saving() ? now() : 0};
  a.section(kCkptMetaTag, "META", [&] { prov.fields(a); });
  if (a.loading())
    adopt(prov, "scenario", original_seed_, restore_count_, restored_,
          trace_provenance_);
  a.section(kCkptScenConfigTag, "SCFG", [&] {
    a.str("scheduler", spec_.scheduler);
    a.str("workload", spec_.workload_text);
    a.u64("horizon", spec_.config.horizon);
    a.b("drain", spec_.config.drain);
    a.u64("seed", spec_.config.seed);
    a.u64("flit_bytes", spec_.config.flit_bytes);
    a.i64("drr_quantum", spec_.config.sched.drr_quantum);
    a.b("err_reset_on_idle", spec_.config.sched.err_reset_on_idle);
    a.seq("perr_priorities", spec_.config.sched.perr_priorities,
          [&a](std::uint32_t& p) { a.u32("", p); });
    a.doubles("weights", spec_.config.weights);
    const Archive::Scope s = a.scope("faults");
    harness::fields(a, spec_.faults);
  });
  if (a.loading()) build();
  a.section(kCkptScenStateTag, "SSTA", [&] { core_->fields(a); });
}

ScenarioRun::~ScenarioRun() = default;

void ScenarioRun::build() {
  std::string error;
  const std::optional<WorkloadParse> parsed =
      parse_workload(spec_.workload_text, &error);
  if (!parsed)
    throw SnapshotError("checkpoint workload \"" + spec_.workload_text +
                        "\" failed to parse: " + error);
  if (core::make_scheduler(spec_.scheduler, {}) == nullptr)
    throw SnapshotError("snapshot field SCFG.scheduler = \"" +
                        spec_.scheduler + "\" names no scheduler");
  if (spec_.config.weights.empty()) spec_.config.weights = parsed->weights;
  if (spec_.config.weights.size() != parsed->weights.size())
    throw SnapshotError("snapshot field SCFG.weights holds " +
                        std::to_string(spec_.config.weights.size()) +
                        " weights for a workload of " +
                        std::to_string(parsed->weights.size()) + " flows");
  if (const auto bad = core::weight_error(spec_.scheduler,
                                          spec_.config.weights))
    throw SnapshotError("snapshot field SCFG.weights: " + *bad);

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
  Archive a(w);
  // A saving Archive writes no member.
  const_cast<ScenarioRun*>(this)->fields(a);
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

FieldMap describe_checkpoint(const SnapshotFile& file,
                             const NetworkScenarioConfig& geometry) {
  FieldMap map;
  if (read_checkpoint_provenance(file).kind == "network") {
    const NetworkRun run(geometry, file, &map);
  } else {
    const ScenarioRun run(ScenarioSpec{}, file, &map);
  }
  metrics::SteadyStateTracker tracker;
  read_soak_section(file, tracker, &map);
  return map;
}

}  // namespace wormsched::harness
