// WF²Q+ (Bennett & Zhang, INFOCOM 1996 / ToN 1997).
//
// An extension beyond the paper's evaluation: the best-known
// worst-case-fair timestamp discipline.  Like WFQ it serves by virtual
// finish time, but it only considers packets that are *eligible* — whose
// virtual start time has been reached by system virtual time — which
// prevents a flow from running arbitrarily ahead of its GPS service.  The
// WF²Q+ virtual time needs no fluid tracking:
//
//   V <- max(V + work done, min over backlogged flows of head start tag)
//
// Included as the strongest fairness baseline for the ablation benches; it
// still requires a-priori packet lengths, so it remains unusable in a
// wormhole switch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <string_view>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "core/scheduler.hpp"

namespace wormsched::core {

class Wf2qPlusScheduler final : public Scheduler {
 public:
  explicit Wf2qPlusScheduler(std::size_t num_flows);

  [[nodiscard]] std::string_view name() const override { return "WF2Q+"; }
  [[nodiscard]] bool requires_apriori_length() const override { return true; }
  void set_weight(FlowId flow, double weight) override;

  [[nodiscard]] double virtual_time() const { return virtual_time_; }

 protected:
  void on_flow_backlogged(FlowId) override {}
  void on_packet_enqueued(Cycle now, FlowId flow, Flits length) override;
  FlowId select_next_flow(Cycle now) override;
  void on_packet_complete(FlowId flow, Flits observed_length,
                          bool queue_now_empty) override;
  void discipline_fields(Archive& a) override;

 private:
  struct FlowState {
    double last_finish = 0.0;   // F of the most recently finished head
    double head_start = 0.0;    // S of the current head packet
    double head_finish = 0.0;   // F of the current head packet
    std::uint64_t epoch = 0;    // invalidates stale heap entries
    bool has_head = false;
  };
  struct HeapEntry {
    double key;  // S for the waiting heap, F for the eligible heap
    std::uint64_t sequence;
    std::uint64_t epoch;
    FlowId flow;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.key != b.key) return a.key > b.key;
      return a.sequence > b.sequence;
    }
  };
  using Heap = std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later>;

  /// Assigns start/finish tags to the new head packet of `flow` and files
  /// it in the waiting heap (eligibility is re-checked at selection time).
  void install_head(FlowId flow, Flits length);

  [[nodiscard]] bool entry_stale(const HeapEntry& e) const {
    return !flows_[e.flow.index()].has_head ||
           e.epoch != flows_[e.flow.index()].epoch;
  }
  void drop_stale(Heap& heap);

  /// Moves every waiting head with S <= V into the eligible heap.
  void promote_eligible();

  std::vector<FlowState> flows_;
  std::vector<RingBuffer<Flits>> pending_lengths_;
  Heap eligible_;  // keyed by virtual finish F
  Heap waiting_;   // keyed by virtual start S
  double virtual_time_ = 0.0;
  double pending_work_ = 0.0;  // real service since the last V update
  double total_weight_;
  std::uint64_t next_sequence_ = 0;
  FlowId serving_ = FlowId::invalid();
};

}  // namespace wormsched::core
