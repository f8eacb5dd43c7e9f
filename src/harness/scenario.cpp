#include "harness/scenario.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "common/assert.hpp"
#include "common/archive.hpp"
#include "core/err.hpp"
#include "core/packet.hpp"
#include "harness/scenario_core.hpp"

namespace wormsched::harness {

namespace {

std::unique_ptr<core::Scheduler> make_weighted_scheduler(
    std::string_view name, const ScenarioConfig& config,
    const traffic::Trace& trace) {
  WS_CHECK(trace.num_flows > 0);
  core::SchedulerParams params = config.sched;
  params.num_flows = trace.num_flows;
  auto scheduler = core::make_scheduler(name, params);
  WS_CHECK_MSG(scheduler != nullptr, "unknown scheduler name");
  if (!config.weights.empty()) {
    WS_CHECK(config.weights.size() == trace.num_flows);
    for (std::size_t i = 0; i < config.weights.size(); ++i)
      scheduler->set_weight(FlowId(static_cast<FlowId::rep_type>(i)),
                            config.weights[i]);
  }
  return scheduler;
}

}  // namespace

ScenarioResult::ScenarioResult(std::size_t num_flows, Bytes flit_bytes)
    : service_log(num_flows, flit_bytes),
      activity(num_flows),
      delays(num_flows) {}

ScenarioCore::ScenarioCore(std::string_view scheduler_name,
                           const ScenarioConfig& config,
                           const traffic::Trace& trace)
    : config_(config),
      trace_(trace),
      scheduler_(make_weighted_scheduler(scheduler_name, config, trace)),
      result_(trace.num_flows, config.flit_bytes) {
  result_.scheduler_name = std::string(scheduler_->name());

  // Runtime invariant auditing: ERR schedulers publish their opportunity
  // stream, which the auditor re-checks against the paper's bounds live.
  auto* err = dynamic_cast<core::ErrScheduler*>(scheduler_.get());
  err_ = err;
  if (config.audit && err != nullptr) {
    validate::AuditLog* log = config.audit_log;
    if (log == nullptr) log = &local_log_.emplace();
    validate::ErrAuditorConfig audit_config;
    audit_config.reset_on_idle = config.sched.err_reset_on_idle;
    auditor_.emplace(trace.num_flows, audit_config, *log);
    auditor_->attach(err->policy());
  }

  // Tracing shares ErrPolicy's single listener slot with the auditor:
  // when both are active one combined lambda feeds the auditor first
  // (attach() above already claimed the slot), then the sink.
  obs::TraceSink* sink = config.trace;
  if (sink != nullptr && err != nullptr) {
    validate::ErrAuditor* audit_ptr = auditor_ ? &*auditor_ : nullptr;
    err->policy().set_opportunity_listener(
        [this, sink, audit_ptr](const core::ErrOpportunity& op) {
          if (audit_ptr != nullptr) audit_ptr->on_opportunity(op);
          const Cycle now = sink->now();
          if (op.round != trace_round_) {
            trace_round_ = op.round;
            sink->record(obs::TraceEvent::round_boundary(
                now, op.round, op.previous_max_sc));
          }
          sink->record(obs::TraceEvent::opportunity(
              now, op.flow.value(), op.round, op.allowance,
              op.surplus_count));
        });
  }

  chain_.add(result_.service_log);
  chain_.add(result_.delays);
  chain_.add(*this);
  scheduler_->set_observer(&chain_);
}

ScenarioCore::~ScenarioCore() = default;

void ScenarioCore::on_packet_arrival(Cycle now, const core::Packet& p) {
  if (config_.trace == nullptr) return;
  config_.trace->record(obs::TraceEvent::packet_enqueue(
      now, p.flow.value(), p.id.value(), p.length));
}

void ScenarioCore::on_flit(Cycle now, const core::FlitEvent& flit) {
  if (flit.is_head) result_.service_starts.push_back(now);
}

void ScenarioCore::on_packet_departure(Cycle now, const core::Packet& p) {
  result_.max_served_packet = std::max(result_.max_served_packet, p.length);
  if (config_.trace == nullptr) return;
  double allowance = 0.0;
  double surplus = 0.0;
  if (err_ != nullptr) {
    allowance = err_->policy().allowance();
    surplus = err_->policy().surplus_count(p.flow);
  }
  config_.trace->record(obs::TraceEvent::packet_dequeue(
      now, p.flow.value(), p.id.value(), p.length, allowance, surplus));
}

void ScenarioCore::step() {
  if (config_.trace != nullptr) config_.trace->set_now(t_);
  // Deliver this cycle's arrivals, then offer one transmission slot —
  // the paper's service model (one flit dequeued per cycle).
  while (next_arrival_ < trace_.entries.size() &&
         trace_.entries[next_arrival_].cycle == t_) {
    const traffic::TraceEntry& e = trace_.entries[next_arrival_];
    scheduler_->enqueue(t_, core::Packet{.id = PacketId(next_packet_id_++),
                                         .flow = e.flow,
                                         .length = e.length,
                                         .arrival = t_});
    touched_.push_back(e.flow);
    ++next_arrival_;
  }
  if (const auto flit = scheduler_->pull_flit(t_))
    touched_.push_back(flit->flow);
  // Activity after arrivals and service: a flow is active while its queue
  // is nonempty (a packet mid-dequeue keeps its queue nonempty).
  for (const FlowId flow : touched_)
    result_.activity.record(t_, flow, scheduler_->queue_length(flow) > 0);
  touched_.clear();
  ++t_;
  if (t_ >= config_.horizon) {
    const bool arrivals_done = next_arrival_ >= trace_.entries.size();
    done_ = !config_.drain || (arrivals_done && scheduler_->idle());
  }
}

void ScenarioCore::fields(Archive& a) {
  a.u64("cycle", t_);
  std::uint64_t next_arrival = next_arrival_;
  a.u64("next_arrival", next_arrival,
        at_most<std::uint64_t>(trace_.entries.size()));
  if (a.loading()) next_arrival_ = static_cast<std::size_t>(next_arrival);
  a.u64("next_packet_id", next_packet_id_);
  a.b("done", done_);
  a.size("trace_round", trace_round_);
  {
    const Archive::Scope s = a.scope("scheduler");
    scheduler_->fields(a);
  }
  {
    const Archive::Scope s = a.scope("service_log");
    result_.service_log.fields(a);
  }
  {
    const Archive::Scope s = a.scope("activity");
    result_.activity.fields(a);
  }
  {
    const Archive::Scope s = a.scope("delays");
    result_.delays.fields(a);
  }
  // Service started before cycle t_, the next to run.
  const Range<Cycle> before_now = below(t_);
  a.seq("service_starts", result_.service_starts,
        [&a, before_now](Cycle& c) { a.u64("", c, before_now); });
  a.i64("max_served_packet", result_.max_served_packet);
  if (a.loading()) check_restored();
}

void ScenarioCore::check_restored() const {
  // Everything logged happened before cycle t_, the next to run: a later
  // entry would put the next service or activity change out of order.
  // O(flows that sent or were active).
  const auto at_or_after_now = [this](std::optional<Cycle> c) {
    return c.has_value() && *c >= t_;
  };
  if (at_or_after_now(result_.service_log.last_cycle()))
    throw SnapshotError(
        "scenario checkpoint logs a served flit at or after its cycle");
  if (at_or_after_now(result_.activity.last_change()))
    throw SnapshotError(
        "scenario checkpoint has an activity window at or after its cycle");
  // step() re-records only touched flows, so the restored activity bits
  // must already match the queues: checked once here, O(flows).
  if (result_.activity.finished())
    throw SnapshotError("scenario checkpoint activity tracker is finished");
  for (std::size_t i = 0; i < trace_.num_flows; ++i) {
    const FlowId flow(static_cast<FlowId::rep_type>(i));
    if (result_.activity.active(flow) != (scheduler_->queue_length(flow) > 0))
      throw SnapshotError("scenario checkpoint activity of flow " +
                          std::to_string(i) + " disagrees with its queue");
  }
}

ScenarioResult ScenarioCore::finish() {
  WS_CHECK_MSG(!finished_, "scenario finish() called twice");
  finished_ = true;
  result_.end_cycle = t_;
  result_.activity.finish(t_);
  result_.residual_backlog = scheduler_->backlog_flits();
  if (auditor_.has_value()) {
    result_.audit_opportunities = auditor_->opportunities();
    validate::AuditLog* log =
        config_.audit_log != nullptr ? config_.audit_log : &*local_log_;
    result_.audit_violations = log->count();
  }
  scheduler_->set_observer(nullptr);
  return std::move(result_);
}

ScenarioResult run_scenario(std::string_view scheduler_name,
                            const ScenarioConfig& config,
                            const traffic::Trace& trace) {
  ScenarioCore core(scheduler_name, config, trace);
  core.run_to_completion();
  return core.finish();
}

ScenarioResult run_scenario(std::string_view scheduler_name,
                            const ScenarioConfig& config,
                            const traffic::WorkloadSpec& workload) {
  const traffic::Trace trace =
      traffic::generate_trace(workload, config.horizon, config.seed);
  return run_scenario(scheduler_name, config, trace);
}

}  // namespace wormsched::harness
