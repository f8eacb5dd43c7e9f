// Scheduler framework.
//
// A Scheduler owns one FIFO packet queue per flow and serves one output
// resource that moves at most one flit per cycle (the paper's service
// model).  Concrete disciplines plug in by answering one question: *which
// flow transmits next, and for how long may it keep the output?*
//
// The framework enforces the wormhole constraint from Sec. 1 of the paper:
// a discipline's selection hooks run without access to packet lengths.
// The length of the packet in flight becomes visible to the discipline
// only when its tail flit is transmitted (`on_packet_complete`).
// Disciplines that fundamentally need lengths up front — DRR, the
// timestamp schedulers — must declare `requires_apriori_length()` to use
// the protected `head_packet_length()` oracle, whose check aborts any other
// caller and so operationalizes the paper's claim that "DRR is not suitable
// for wormhole networks".  Fabric PortArbiters never see a packet length.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "common/assert.hpp"
#include "common/flow_rows.hpp"
#include "common/types.hpp"
#include "core/flow_state_pool.hpp"
#include "core/packet.hpp"

namespace wormsched {
class Archive;
}  // namespace wormsched

namespace wormsched::core {

/// Receives notifications about scheduler activity; implemented by the
/// metrics layer (service logs, delay statistics).
class SchedulerObserver {
 public:
  virtual ~SchedulerObserver() = default;
  virtual void on_packet_arrival(Cycle now, const Packet& packet) {
    (void)now;
    (void)packet;
  }
  virtual void on_flit(Cycle now, const FlitEvent& flit) {
    (void)now;
    (void)flit;
  }
  virtual void on_packet_departure(Cycle now, const Packet& packet) {
    (void)now;
    (void)packet;
  }
};

class Scheduler {
 public:
  explicit Scheduler(std::size_t num_flows);
  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// True when the discipline cannot decide without knowing packet lengths
  /// before service (and therefore cannot run in a wormhole switch).
  [[nodiscard]] virtual bool requires_apriori_length() const { return false; }

  /// Sets the (positive) weight of a flow.  Takes effect at the flow's
  /// next service opportunity.  Default weight is 1.
  virtual void set_weight(FlowId flow, double weight);

  /// Adds a packet to its flow's queue.  `packet.flow` must be valid and
  /// `packet.length` positive.
  void enqueue(Cycle now, Packet packet);

  /// Offers the scheduler one transmission slot.  Returns the flit sent,
  /// or nullopt when all queues are empty.
  std::optional<FlitEvent> pull_flit(Cycle now);

  [[nodiscard]] std::size_t num_flows() const { return rows_.num_flows(); }
  [[nodiscard]] bool idle() const { return backlog_flits_ == 0; }
  /// Total untransmitted flits across all queues.
  [[nodiscard]] Flits backlog_flits() const { return backlog_flits_; }
  /// Packets not yet fully transmitted in `flow`'s queue.
  [[nodiscard]] std::size_t queue_length(FlowId flow) const;
  /// The weight set_weight() gave `flow`; 1 before any.
  [[nodiscard]] double weight(FlowId flow) const {
    const FrameRow* row = rows_.find(flow);
    return row == nullptr ? 1.0 : row->weight;
  }

  /// At most one observer; not owned.  Pass nullptr to detach.
  void set_observer(SchedulerObserver* observer) { observer_ = observer; }

  /// Checkpoint state (common/archive.hpp): the queues, per-flow weights
  /// and head progress as per-flow record tables, the in-flight latch and
  /// backlog, then the discipline's private state through
  /// discipline_fields().  A restore throws SnapshotError on state a run
  /// cannot reach (a latch on an empty or out-of-range queue, progress
  /// past the head packet, a packet of length <= 0, a backlog that
  /// disagrees with the queues).  Restore into a freshly constructed
  /// scheduler of the same discipline and flow count (checked); the
  /// observer wiring is runtime state and is not part of the snapshot.
  void fields(Archive& a);

 protected:
  /// Discipline-private checkpoint state.  The default declares nothing —
  /// correct only for genuinely stateless disciplines.
  virtual void discipline_fields(Archive& a) { (void)a; }

  /// --- Discipline interface -------------------------------------------
  /// Called when a packet arrival makes flow `flow` go from idle to
  /// backlogged (its queue was empty and nothing of it was in flight).
  virtual void on_flow_backlogged(FlowId flow) = 0;

  /// Called for *every* packet arrival, after the queue push and after any
  /// on_flow_backlogged.  `length` is the packet's length in flits if the
  /// discipline declared requires_apriori_length(), and -1 otherwise —
  /// this is how the framework keeps wormhole-capable disciplines honest.
  virtual void on_packet_enqueued(Cycle now, FlowId flow, Flits length) {
    (void)now;
    (void)flow;
    (void)length;
  }

  /// Selects the flow whose head packet is served next.  Called only when
  /// at least one flow is backlogged and no packet is in flight.  The
  /// returned flow must be backlogged.
  virtual FlowId select_next_flow(Cycle now) = 0;

  /// Called when the in-flight packet's tail flit has been sent.
  /// `observed_length` is the now-revealed packet length in flits;
  /// `queue_now_empty` tells the discipline whether the flow stays
  /// backlogged.
  virtual void on_packet_complete(FlowId flow, Flits observed_length,
                                  bool queue_now_empty) = 0;

  /// FBRR overrides flit-granularity transmission entirely; the default
  /// latches onto select_next_flow()'s choice until the packet completes.
  virtual std::optional<FlitEvent> pull_flit_impl(Cycle now);

  /// --- Services available to disciplines ------------------------------
  [[nodiscard]] bool flow_backlogged(FlowId flow) const {
    const FrameRow* row = rows_.find(flow);
    return row != nullptr && row->queue.len > 0;
  }

  /// A-priori length oracle.  Only disciplines returning true from
  /// requires_apriori_length() may call this; enforced at runtime.
  [[nodiscard]] Flits head_packet_length(FlowId flow) const;

  struct EmitResult {
    FlitEvent flit;
    bool packet_completed = false;
    Flits observed_length = 0;
    bool queue_now_empty = false;
  };

  /// Transmits one flit from the head packet of `flow` (which must be
  /// backlogged), handling all arrival/departure/observer bookkeeping.
  /// Does NOT call on_packet_complete — callers route completion to their
  /// own bookkeeping.
  EmitResult emit_flit_from(Cycle now, FlowId flow);

  /// --- Per-packet stamp rows (timestamp disciplines) -------------------
  /// Queued packets carry a double stamp slot in the shared node pool;
  /// these pass-throughs keep the queues themselves private.
  [[nodiscard]] double queue_head_stamp(FlowId flow) const {
    return queues_.head_stamp(queued_row(flow).queue);
  }
  void queue_set_tail_stamp(FlowId flow, double s) {
    queues_.set_tail_stamp(queued_row(flow).queue, s);
  }
  template <typename Fn>
  void queue_for_each_stamp(FlowId flow, Fn&& fn) const {
    if (const FrameRow* row = rows_.find(flow))
      queues_.for_each_stamp(row->queue, fn);
  }
  template <typename Fn>
  void queue_assign_stamps(FlowId flow, std::size_t count, Fn&& next_value) {
    if (count > 0)
      queues_.assign_stamps(queued_row(flow).queue, count, next_value);
  }

 private:
  /// A flow's frame row, built on its first enqueue or set_weight.  A
  /// flow without one has an empty queue, weight 1 and no progress.
  struct FrameRow {
    QueueRow queue;
    Flits progress = 0;  // flits sent of the head packet
    double weight = 1.0;
  };

  /// The row of a flow with a packet queued (checked).
  [[nodiscard]] const FrameRow& queued_row(FlowId flow) const {
    const FrameRow* row = rows_.find(flow);
    WS_CHECK_MSG(row != nullptr && row->queue.len > 0,
                 "discipline selected a flow with an empty queue");
    return *row;
  }
  /// The cross-field rules of a restored frame.
  void check_restored() const;

  [[nodiscard]] FrameRow& queued_row(FlowId flow) {
    FrameRow* row = rows_.find(flow);
    WS_CHECK_MSG(row != nullptr && row->queue.len > 0,
                 "discipline selected a flow with an empty queue");
    return *row;
  }

  PacketQueuePool queues_;
  FlowRows<FrameRow> rows_;
  std::optional<FlowId> latched_flow_;  // packet in flight (default impl)
  Flits backlog_flits_ = 0;
  SchedulerObserver* observer_ = nullptr;
};

}  // namespace wormsched::core
