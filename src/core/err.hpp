// Elastic Round Robin (ERR) — the paper's contribution (Sec. 3, Fig. 1).
//
// ERR serves active flows in round-robin order.  In each round a flow gets
// an *allowance* A_i(r) = 1 + MaxSC(r-1) - SC_i(r-1) and keeps starting new
// packets while its transmitted total is below the allowance.  Because the
// last packet always completes (wormhole packets cannot be preempted), a
// flow may overshoot; the overshoot is recorded in its Surplus Count
// SC_i(r) = Sent_i(r) - A_i(r) and repaid in the next round.  Crucially,
// the decision to start a packet never consults the packet's length, which
// is exactly the constraint wormhole switching imposes.
//
// The algorithm is split in two layers:
//   * ErrPolicy — the pure ERR state machine over service opportunities.
//     It is agnostic to what a "unit of service" is, so the standalone
//     scheduler charges flits while the wormhole switch allocator charges
//     cycles of output occupancy (Sec. 1: "references to the length of the
//     packet ... may be replaced by length of time it takes to dequeue").
//   * ErrScheduler — plugs ErrPolicy into the flit-pull Scheduler frame.
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>

#include "common/types.hpp"
#include "core/flow_state_pool.hpp"
#include "core/scheduler.hpp"

namespace wormsched::core {

struct ErrConfig {
  std::size_t num_flows = 0;

  /// The IPDPS-2000 pseudo-code keeps PreviousMaxSC and the round-robin
  /// visit count across periods where every flow goes idle, which lets a
  /// stale MaxSC inflate the first allowances after the idle gap.  Setting
  /// this clears all round state whenever the ActiveList empties.  Default
  /// is the paper-faithful behaviour.  (Ablation bench A2.)
  bool reset_on_idle = false;
};

/// One completed service opportunity, for tracing, golden tests
/// (reproduces the quantities annotated in the paper's Fig. 3) and the
/// runtime invariant auditor (src/validate), which needs enough context to
/// re-derive the allowance arithmetic and the paper's bounds externally.
struct ErrOpportunity {
  std::size_t round = 0;  // 1-based
  FlowId flow;
  double weight = 1.0;          // the flow's weight when it was served
  double allowance = 0.0;
  double sent = 0.0;
  double surplus_count = 0.0;   // after the reset-to-0-if-idle rule
  double max_sc_so_far = 0.0;   // running MaxSC of the round
  double previous_max_sc = 0.0; // MaxSC snapshot the allowance used
  double max_charge = 0.0;      // largest single charge() this opportunity
  std::size_t active_after = 0; // active flows once this opportunity ended
  bool deactivated = false;     // flow drained and left the ActiveList
};

class ErrPolicy {
 public:
  explicit ErrPolicy(const ErrConfig& config);

  /// Weighted ERR: A_i(r) = w_i * (1 + MaxSC(r-1)) - SC_i(r-1).  With all
  /// weights 1 this is exactly the paper's Eq. (2).  Weights must be >= 1
  /// (normalize so the smallest weight is 1); this keeps every allowance
  /// positive, the weighted analogue of Lemma 1.
  void set_weight(FlowId flow, double weight);

  /// The flow's queue went from empty to nonempty: append to the
  /// ActiveList tail with SC reset to 0 (the paper's Enqueue routine).
  void flow_activated(FlowId flow);

  [[nodiscard]] bool has_active_flows() const { return active_count_ > 0; }

  /// Starts the next service opportunity: handles round bookkeeping
  /// (PreviousMaxSC / RoundRobinVisitCount / MaxSC), pops the ActiveList
  /// head and computes its allowance.  Requires has_active_flows().
  FlowId begin_opportunity();

  /// True while the current flow may begin transmitting another packet
  /// (Sent < Allowance) — the do/while condition in Fig. 1.
  [[nodiscard]] bool may_continue() const { return sent_ < allowance_; }

  /// Accounts `units` of service consumed by one completed packet (flits
  /// in the standalone model; output-busy cycles in the wormhole model).
  void charge(double units);

  /// Finishes the opportunity: computes SC, folds it into MaxSC, and
  /// either re-appends the flow (still backlogged) or deactivates it.
  void end_opportunity(bool still_backlogged);

  /// --- Introspection (tests, traces, the Fig. 3 example) --------------
  [[nodiscard]] bool in_opportunity() const { return in_opportunity_; }
  [[nodiscard]] FlowId current_flow() const { return current_; }
  [[nodiscard]] double allowance() const { return allowance_; }
  [[nodiscard]] double sent() const { return sent_; }
  [[nodiscard]] double surplus_count(FlowId flow) const {
    return pool_.sc(flow.index());
  }
  [[nodiscard]] double weight(FlowId flow) const {
    return pool_.weight(flow.index());
  }
  [[nodiscard]] double max_sc() const { return max_sc_; }
  [[nodiscard]] double previous_max_sc() const { return previous_max_sc_; }
  [[nodiscard]] std::size_t round() const { return round_; }
  [[nodiscard]] std::size_t round_robin_visit_count() const {
    return round_robin_visit_count_;
  }

  /// Invoked at the end of every opportunity with its record.
  void set_opportunity_listener(std::function<void(const ErrOpportunity&)> fn) {
    listener_ = std::move(fn);
  }

  /// Checkpoint state: every flow's SC and weight (at least 1), the
  /// ActiveList as a flow-id sequence (rebuilt on restore), the round
  /// bookkeeping, and — because wormhole opportunities span many cycles —
  /// the mid-opportunity fields (current flow, allowance, sent).  The
  /// listener is runtime wiring and is not part of the snapshot.  The
  /// restore throws SnapshotError on an in-service flow that is out of
  /// range or also listed, an open opportunity with no visits left, an
  /// active count other than list size plus service, or a listed flow
  /// whose next allowance would not be positive.
  void fields(Archive& a);

 private:
  /// The cross-field rules of a restored policy.
  void check_restored() const;

  // Per-flow state (SC, weight, activation links) lives in pool rows
  // built on a flow's first activation or set_weight: an idle flow costs
  // a 4-byte slot, a link that is never written and a membership bit.
  FlowStatePool pool_;
  std::size_t active_count_ = 0;  // flows in list + the one in service
  std::size_t round_robin_visit_count_ = 0;
  double max_sc_ = 0.0;
  double previous_max_sc_ = 0.0;
  std::size_t round_ = 0;
  bool reset_on_idle_ = false;

  bool in_opportunity_ = false;
  FlowId current_;
  double allowance_ = 0.0;
  double sent_ = 0.0;
  double max_charge_ = 0.0;  // largest single charge() of the opportunity

  std::function<void(const ErrOpportunity&)> listener_;
};

/// ERR in the flit-pull scheduler frame (standalone experiments: Figs. 4-6).
class ErrScheduler final : public Scheduler {
 public:
  explicit ErrScheduler(const ErrConfig& config);

  [[nodiscard]] std::string_view name() const override { return "ERR"; }
  void set_weight(FlowId flow, double weight) override;

  [[nodiscard]] ErrPolicy& policy() { return policy_; }
  [[nodiscard]] const ErrPolicy& policy() const { return policy_; }

 protected:
  void on_flow_backlogged(FlowId flow) override;
  FlowId select_next_flow(Cycle now) override;
  void on_packet_complete(FlowId flow, Flits observed_length,
                          bool queue_now_empty) override;
  void discipline_fields(Archive& a) override;

 private:
  ErrPolicy policy_;
};

}  // namespace wormsched::core
