// Deficit Round Robin (Shreedhar & Varghese, ToN 1996) — the paper's
// closest O(1) competitor (Sec. 2, Table 1, Figs. 4(d) and 6).
//
// Each flow has a quantum Q_i = weight * base quantum and a deficit
// counter.  At a service opportunity the counter grows by the quantum and
// the flow sends head packets *only while they fit within the counter* —
// which requires knowing each head packet's length before serving it.
// That a-priori length requirement is why DRR cannot run in a wormhole
// switch; the class declares it through requires_apriori_length().
//
// Relative fairness: FM <= Max + 2m (paper Table 1), where Max is the
// largest packet that may ever arrive.  Work is O(1) per packet provided
// Q_i >= Max (otherwise an opportunity can pass without a transmission).
#pragma once

#include <cstddef>
#include <string_view>

#include "common/types.hpp"
#include "core/flow_state_pool.hpp"
#include "core/scheduler.hpp"

namespace wormsched::core {

struct DrrConfig {
  std::size_t num_flows = 0;
  /// Base quantum in flits; flow i's quantum is weight_i * quantum.
  /// For the O(1) bound choose quantum >= the largest possible packet.
  Flits quantum = 64;
};

/// The DRR state machine, decoupled from queue ownership (mirrors
/// ErrPolicy so the two can be compared like-for-like in benches).
class DrrPolicy {
 public:
  explicit DrrPolicy(const DrrConfig& config);

  void set_weight(FlowId flow, double weight);

  void flow_activated(FlowId flow);
  [[nodiscard]] bool has_active_flows() const {
    return !pool_.active().empty();
  }

  /// Pops the next flow and adds its quantum to its deficit counter.
  FlowId begin_opportunity();

  /// True if a head packet of `length` flits fits in the current flow's
  /// deficit counter.
  [[nodiscard]] bool may_serve(Flits length) const;

  /// Accounts a transmitted packet against the deficit counter.
  void charge(Flits length);

  /// `still_backlogged` false resets the deficit counter (the DRR rule
  /// that makes an idle flow forfeit unused deficit).
  void end_opportunity(bool still_backlogged);

  [[nodiscard]] bool in_opportunity() const { return in_opportunity_; }
  [[nodiscard]] FlowId current_flow() const { return current_; }
  [[nodiscard]] double deficit(FlowId flow) const {
    return pool_.sc(flow.index());
  }

  /// Checkpoint/restore: per-flow deficit/quantum, ActiveList order, and
  /// the in-opportunity latch.
  void fields(Archive& a);

 private:
  // SoA rows: sc column = deficit counter, weight column = quantum.
  FlowStatePool pool_;
  Flits base_quantum_;
  bool in_opportunity_ = false;
  FlowId current_;
};

class DrrScheduler final : public Scheduler {
 public:
  explicit DrrScheduler(const DrrConfig& config);

  [[nodiscard]] std::string_view name() const override { return "DRR"; }
  [[nodiscard]] bool requires_apriori_length() const override { return true; }
  void set_weight(FlowId flow, double weight) override;

  [[nodiscard]] DrrPolicy& policy() { return policy_; }
  [[nodiscard]] const DrrPolicy& policy() const { return policy_; }

 protected:
  void on_flow_backlogged(FlowId flow) override;
  FlowId select_next_flow(Cycle now) override;
  void on_packet_complete(FlowId flow, Flits observed_length,
                          bool queue_now_empty) override;
  void discipline_fields(Archive& a) override;

 private:
  DrrPolicy policy_;
};

}  // namespace wormsched::core
