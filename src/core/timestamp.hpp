// Timestamp-based fair queuing: the O(log n) family of Table 1.
//
// These disciplines stamp every arriving packet with a virtual finish time
// and serve head packets in increasing stamp order.  They need the packet
// length at *arrival* to compute the stamp, so — like DRR — they cannot
// run in a wormhole switch (requires_apriori_length() is true).  They are
// in the library as the fairness/complexity comparison points for ERR:
// better fairness (FM ~ m for Fair Queuing per Table 1), but with a
// per-packet priority-queue cost of O(log n).
//
// TimestampScheduler provides the shared machinery (per-packet stamps in
// the scheduler's shared queue-node pool, the head-candidate heap,
// service hooks); SCFQ and Virtual Clock are the two concrete stamping
// rules.  WFQ/PGPS and WF2Q+ live in their own files
// because they additionally track GPS virtual time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <string_view>
#include <vector>

#include "common/epoch_bitset.hpp"
#include "common/types.hpp"
#include "core/scheduler.hpp"

namespace wormsched::core {

class TimestampScheduler : public Scheduler {
 public:
  explicit TimestampScheduler(std::size_t num_flows);

  [[nodiscard]] bool requires_apriori_length() const final { return true; }

 protected:
  /// Computes the virtual finish stamp of a packet of `length` flits
  /// arriving on `flow` at cycle `now`.
  virtual double stamp(Cycle now, FlowId flow, Flits length) = 0;

  /// The packet with stamp `tag` on `flow` enters service (SCFQ advances
  /// its self-clocked virtual time here).
  virtual void on_service_start(FlowId flow, double tag) {
    (void)flow;
    (void)tag;
  }

  /// Every queue just drained (used by SCFQ to reset virtual time).
  virtual void on_all_idle() {}

  void on_flow_backlogged(FlowId) final {}
  void on_packet_enqueued(Cycle now, FlowId flow, Flits length) final;
  FlowId select_next_flow(Cycle now) final;
  void on_packet_complete(FlowId flow, Flits observed_length,
                          bool queue_now_empty) final;

  /// Checkpoint of the shared machinery (per-packet stamps, candidate
  /// heap, sequence counter), then the stamping rule's own state via the
  /// stamping_fields() hook.  The heap is serialized by draining a copy
  /// in (tag, sequence) order; restoring by pushing in that order
  /// rebuilds an equivalent heap because the comparator is a strict
  /// total order (the sequence tie-break), so pop order — the only
  /// observable — is preserved exactly.
  void discipline_fields(Archive& a) final;
  virtual void stamping_fields(Archive& a) { (void)a; }

 private:
  struct HeapEntry {
    double tag;
    std::uint64_t sequence;  // FIFO tie-break for equal tags
    FlowId flow;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.tag != b.tag) return a.tag > b.tag;
      return a.sequence > b.sequence;
    }
  };

  void push_candidate(FlowId flow);

  // Stamps live in the queue-node pool (one double per queued packet);
  // heap membership is an epoch bitset, O(1) to clear on restore.
  EpochBitset in_heap_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later> heap_;
  std::uint64_t next_sequence_ = 0;
  std::size_t backlogged_flows_ = 0;
  FlowId serving_ = FlowId::invalid();
};

/// Self-Clocked Fair Queuing (Golestani, INFOCOM 1994 — reference [9] of
/// the paper, the source of the relative fairness measure).  Virtual time
/// is the stamp of the packet in service; arriving packets get
/// F = max(v, F_prev_of_flow) + L / w.
class ScfqScheduler final : public TimestampScheduler {
 public:
  explicit ScfqScheduler(std::size_t num_flows);

  [[nodiscard]] std::string_view name() const override { return "SCFQ"; }

 protected:
  double stamp(Cycle now, FlowId flow, Flits length) override;
  void on_service_start(FlowId flow, double tag) override;
  void on_all_idle() override;
  void stamping_fields(Archive& a) override;

 private:
  double virtual_time_ = 0.0;
  std::vector<double> last_finish_;
};

/// Start-time Fair Queuing (Goyal, Vin & Cheng, SIGCOMM 1996).  Packets
/// are served in order of virtual *start* time S = max(v, F_prev), with
/// v the start tag of the packet in service; immune to SCFQ's burst
///-ahead because a flow's next start never precedes its previous finish.
class StfqScheduler final : public TimestampScheduler {
 public:
  explicit StfqScheduler(std::size_t num_flows);

  [[nodiscard]] std::string_view name() const override { return "STFQ"; }

 protected:
  double stamp(Cycle now, FlowId flow, Flits length) override;
  void on_service_start(FlowId flow, double tag) override;
  void on_all_idle() override;
  void stamping_fields(Archive& a) override;

 private:
  double virtual_time_ = 0.0;
  std::vector<double> last_finish_;
};

/// Virtual Clock (Zhang, SIGCOMM 1990 — reference [20]).  Stamps emulate
/// time-division multiplexing at each flow's reserved rate; unlike SCFQ
/// the clock never resets, so an idle flow's history is not forgiven.
class VirtualClockScheduler final : public TimestampScheduler {
 public:
  explicit VirtualClockScheduler(std::size_t num_flows);

  [[nodiscard]] std::string_view name() const override { return "VC"; }
  void set_weight(FlowId flow, double weight) override;

 protected:
  double stamp(Cycle now, FlowId flow, Flits length) override;
  void stamping_fields(Archive& a) override;

 private:
  /// Reserved rate of `flow` in flits/cycle: weight_i / sum of weights
  /// (the output moves one flit per cycle).
  [[nodiscard]] double rate(FlowId flow) const;

  std::vector<double> aux_vc_;
  double total_weight_;
};

}  // namespace wormsched::core
