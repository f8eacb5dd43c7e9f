#include "core/err.hpp"

#include "common/assert.hpp"
#include "common/archive.hpp"

namespace wormsched::core {

ErrPolicy::ErrPolicy(const ErrConfig& config)
    : pool_(config.num_flows, /*initial_weight=*/1.0),
      reset_on_idle_(config.reset_on_idle) {
  WS_CHECK(config.num_flows > 0);
}

void ErrPolicy::set_weight(FlowId flow, double weight) {
  // Weights are normalized so the smallest is 1: with w_i >= 1 the
  // allowance w_i*(1 + MaxSC(r-1)) - SC_i(r-1) stays >= 1 (the weighted
  // analogue of Lemma 1), because SC_i(r-1) <= MaxSC(r-1) always.
  WS_CHECK_MSG(weight >= 1.0, "ERR weights must be >= 1 (normalize first)");
  pool_.set_weight(flow.index(), weight);
}

void ErrPolicy::flow_activated(FlowId flow) {
  const auto i = static_cast<std::uint32_t>(flow.index());
  WS_CHECK_MSG(!pool_.active().contains(i),
               "flow_activated on an already-active flow");
  WS_CHECK_MSG(!(in_opportunity_ && current_ == flow),
               "flow_activated on the flow in service");
  pool_.set_sc(i, 0.0);  // Enqueue routine: SC_i = 0
  pool_.active().push_back(i);
  ++active_count_;
}

FlowId ErrPolicy::begin_opportunity() {
  WS_CHECK_MSG(!in_opportunity_, "opportunity already in progress");
  WS_CHECK_MSG(!pool_.active().empty(), "no active flows");

  // Round boundary (Fig. 1): when the visit budget of the previous round
  // is exhausted, snapshot MaxSC and size a new round.
  if (round_robin_visit_count_ == 0) {
    previous_max_sc_ = max_sc_;
    round_robin_visit_count_ = active_count_;
    max_sc_ = 0.0;
    ++round_;
  }

  const std::uint32_t i = pool_.active().pop_front();
  const FlowStatePool::Row& row = pool_.row(i);
  in_opportunity_ = true;
  current_ = FlowId(i);
  allowance_ = row.weight * (1.0 + previous_max_sc_) - row.sc;
  sent_ = 0.0;
  max_charge_ = 0.0;
  WS_CHECK_MSG(allowance_ > 0.0, "ERR allowance must be positive (Lemma 1)");
  return current_;
}

void ErrPolicy::charge(double units) {
  WS_CHECK(in_opportunity_);
  WS_CHECK(units > 0.0);
  sent_ += units;
  if (units > max_charge_) max_charge_ = units;
}

void ErrPolicy::end_opportunity(bool still_backlogged) {
  WS_CHECK(in_opportunity_);
  const auto i = static_cast<std::uint32_t>(current_.index());
  FlowStatePool::Row& row = pool_.row(i);

  // SC_i = Sent_i - A_i, folded into the round's MaxSC *before* the
  // empty-queue reset — the pseudo-code order, which means a flow that
  // overshot on its final packet still raises MaxSC even if it then idles.
  const double sc = sent_ - allowance_;
  row.sc = sc;
  if (sc > max_sc_) max_sc_ = sc;

  ErrOpportunity record{
      .round = round_,
      .flow = current_,
      .weight = row.weight,
      .allowance = allowance_,
      .sent = sent_,
      .surplus_count = sc,
      .max_sc_so_far = max_sc_,
      .previous_max_sc = previous_max_sc_,
      .max_charge = max_charge_,
  };

  if (still_backlogged) {
    pool_.active().push_back(i);
  } else {
    row.sc = 0.0;
    record.surplus_count = 0.0;
    record.deactivated = true;
    WS_CHECK(active_count_ > 0);
    --active_count_;
  }
  record.active_after = active_count_;
  WS_CHECK(round_robin_visit_count_ > 0);
  --round_robin_visit_count_;
  in_opportunity_ = false;

  if (active_count_ == 0 && reset_on_idle_) {
    round_robin_visit_count_ = 0;
    max_sc_ = 0.0;
    previous_max_sc_ = 0.0;
  }

  if (listener_) listener_(record);
}

void ErrPolicy::fields(Archive& a) {
  // Lemma 1 keeps every SC and MaxSC >= 0 (an idle flow's SC is reset to
  // 0) and every allowance > 0; an opportunity's sent and largest charge
  // start at 0 and only grow.
  const Range<double> counter = non_negative();
  const Range<double> weight = at_least(1.0);
  pool_.fields(a, &counter, &weight);
  a.size("active_count", active_count_);
  a.size("round_robin_visit_count", round_robin_visit_count_);
  a.f64("max_sc", max_sc_, counter);
  a.f64("previous_max_sc", previous_max_sc_, counter);
  a.size("round", round_);
  a.b("reset_on_idle", reset_on_idle_);
  a.b("in_opportunity", in_opportunity_);
  a.id("current", current_);
  a.f64("allowance", allowance_, counter);
  a.f64("sent", sent_, counter);
  a.f64("max_charge", max_charge_, counter);
  if (a.loading()) check_restored();
}

void ErrPolicy::check_restored() const {
  // State a run cannot reach, which the next opportunity would trip over.
  if (in_opportunity_) {
    if (current_.index() >= pool_.num_flows() ||
        pool_.active().contains(current_.value()))
      throw SnapshotError("ERR snapshot serves flow " +
                          std::to_string(current_.value()) +
                          ", which is out of range or also in the ActiveList");
    if (round_robin_visit_count_ == 0)
      throw SnapshotError(
          "ERR snapshot has an open opportunity outside any round");
  }
  if (active_count_ != pool_.active().size() + (in_opportunity_ ? 1 : 0))
    throw SnapshotError("ERR snapshot active count " +
                        std::to_string(active_count_) +
                        " disagrees with its ActiveList");
  // Every listed flow's next allowance must be positive (Lemma 1).  The
  // visits left in this round, less the one in service, go to the head
  // of the list with the previous MaxSC; later flows are served in a
  // later round, whose previous MaxSC is at least the current MaxSC.
  const std::size_t this_round =
      round_robin_visit_count_ - (in_opportunity_ ? 1 : 0);
  std::size_t position = 0;
  bool starved = false;
  pool_.active().for_each([&](std::uint32_t f) {
    const double max_sc =
        position++ < this_round ? previous_max_sc_ : max_sc_;
    starved |= !(pool_.weight(f) * (1.0 + max_sc) - pool_.sc(f) > 0.0);
  });
  if (starved)
    throw SnapshotError(
        "ERR snapshot lists a flow whose surplus exceeds its next allowance");
}

ErrScheduler::ErrScheduler(const ErrConfig& config)
    : Scheduler(config.num_flows), policy_(config) {}

void ErrScheduler::set_weight(FlowId flow, double weight) {
  Scheduler::set_weight(flow, weight);
  policy_.set_weight(flow, weight);
}

void ErrScheduler::on_flow_backlogged(FlowId flow) {
  // A flow whose queue refills *while it is in service* is not re-added:
  // the in-progress opportunity still owns it and end_opportunity() will
  // re-append it (the pseudo-code's AddQueueToActiveList).
  if (policy_.in_opportunity() && policy_.current_flow() == flow) return;
  policy_.flow_activated(flow);
}

FlowId ErrScheduler::select_next_flow(Cycle) {
  if (policy_.in_opportunity()) {
    // Continuing the current opportunity: Sent < Allowance and the flow
    // still has packets queued.
    return policy_.current_flow();
  }
  return policy_.begin_opportunity();
}

void ErrScheduler::on_packet_complete(FlowId flow, Flits observed_length,
                                      bool queue_now_empty) {
  WS_CHECK(policy_.in_opportunity() && policy_.current_flow() == flow);
  policy_.charge(static_cast<double>(observed_length));
  if (queue_now_empty || !policy_.may_continue())
    policy_.end_opportunity(!queue_now_empty);
}

void ErrScheduler::discipline_fields(Archive& a) { policy_.fields(a); }

}  // namespace wormsched::core
