#include "core/srr.hpp"

#include "common/assert.hpp"
#include "common/archive.hpp"

namespace wormsched::core {

SrrScheduler::SrrScheduler(const SrrConfig& config)
    : Scheduler(config.num_flows),
      pool_(config.num_flows,
            /*initial_weight=*/static_cast<double>(config.quantum)) {
  WS_CHECK_MSG(config.quantum >= 1, "SRR quantum must be >= 1");
  base_quantum_ = static_cast<double>(config.quantum);
}

void SrrScheduler::set_weight(FlowId flow, double weight) {
  Scheduler::set_weight(flow, weight);
  pool_.set_weight(flow.index(), weight * base_quantum_);
}

void SrrScheduler::on_flow_backlogged(FlowId flow) {
  if (in_opportunity_ && current_ == flow) return;
  const auto i = static_cast<std::uint32_t>(flow.index());
  WS_CHECK(!pool_.active().contains(i));
  // A reactivating flow forfeits any leftover (positive or negative)
  // credit — the SRR analogue of DRR's deficit reset, which prevents an
  // idle flow from banking service.
  pool_.set_sc(i, 0.0);
  pool_.active().push_back(i);
}

FlowId SrrScheduler::select_next_flow(Cycle) {
  if (in_opportunity_) return current_;
  // Visit flows in rotation, topping up credit.  A flow still in debt
  // from an earlier overshoot is skipped — a decision that, crucially,
  // needs no packet length (unlike DRR's head-fits-in-deficit test), so
  // SRR remains wormhole-deployable.  The loop terminates because every
  // skipped visit adds a positive quantum.
  for (;;) {
    WS_CHECK(!pool_.active().empty());
    const std::uint32_t i = pool_.active().pop_front();
    FlowStatePool::Row& row = pool_.row(i);
    row.sc += row.weight;
    if (row.sc > 0.0) {
      in_opportunity_ = true;
      current_ = FlowId(i);
      return current_;
    }
    pool_.active().push_back(i);
  }
}

void SrrScheduler::on_packet_complete(FlowId flow, Flits observed_length,
                                      bool queue_now_empty) {
  WS_CHECK(in_opportunity_ && current_ == flow);
  const auto i = static_cast<std::uint32_t>(flow.index());
  FlowStatePool::Row& row = pool_.row(i);
  row.sc -= static_cast<double>(observed_length);
  const bool may_continue = row.sc > 0.0;
  if (queue_now_empty || !may_continue) {
    if (queue_now_empty) {
      row.sc = 0.0;
    } else {
      pool_.active().push_back(i);
    }
    in_opportunity_ = false;
  }
}

void SrrScheduler::discipline_fields(Archive& a) {
  pool_.fields(a);
  a.f64("base_quantum", base_quantum_);
  a.b("in_opportunity", in_opportunity_);
  a.id("current", current_);
  if (a.loading() && in_opportunity_ && current_.index() >= num_flows())
    a.fail("current", "serves an out-of-range flow");
}

}  // namespace wormsched::core
