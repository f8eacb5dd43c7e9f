// The two plain round-robin baselines of Sec. 2:
//
//   * PBRR (Packet-Based Round Robin): one whole packet per flow visit.
//     Unfair when packet sizes differ across flows — a flow sending
//     packets twice as long gets twice the bandwidth (Fig. 4(a)).  Its
//     relative fairness measure is unbounded (Table 1).
//   * FBRR (Flit-Based Round Robin): one flit per flow visit.  The
//     fairest possible discipline at flit granularity (Fig. 4(b)), but
//     only applicable where flits carry flow tags (virtual channels); it
//     cannot schedule entry into a shared output queue of a wormhole
//     switch, where a packet's flits must stay contiguous.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "common/types.hpp"
#include "core/flow_state_pool.hpp"
#include "core/scheduler.hpp"

namespace wormsched::core {

/// FIFO of active flows shared by the plain round-robin disciplines.
class ActiveFlowRing {
 public:
  explicit ActiveFlowRing(std::size_t num_flows);

  void activate(FlowId flow);
  [[nodiscard]] bool empty() const { return fifo_.empty(); }
  [[nodiscard]] std::size_t size() const { return fifo_.size(); }
  /// Pops the head flow; the caller re-activates it if still backlogged.
  FlowId take_next();
  [[nodiscard]] bool contains(FlowId flow) const;

  /// Checkpoint/restore: the ring is serialized as its flow-id order.
  void fields(Archive& a);

 private:
  ActiveFifo fifo_;
};

class PbrrScheduler final : public Scheduler {
 public:
  explicit PbrrScheduler(std::size_t num_flows);

  [[nodiscard]] std::string_view name() const override { return "PBRR"; }

 protected:
  void on_flow_backlogged(FlowId flow) override;
  FlowId select_next_flow(Cycle now) override;
  void on_packet_complete(FlowId flow, Flits observed_length,
                          bool queue_now_empty) override;
  void discipline_fields(Archive& a) override;

 private:
  ActiveFlowRing ring_;
  FlowId serving_;
};

class FbrrScheduler final : public Scheduler {
 public:
  explicit FbrrScheduler(std::size_t num_flows);

  [[nodiscard]] std::string_view name() const override { return "FBRR"; }

 protected:
  void on_flow_backlogged(FlowId flow) override;
  // FBRR interleaves flits directly; the packet-latching path is unused.
  std::optional<FlitEvent> pull_flit_impl(Cycle now) override;
  FlowId select_next_flow(Cycle now) override;
  void on_packet_complete(FlowId flow, Flits observed_length,
                          bool queue_now_empty) override;
  void discipline_fields(Archive& a) override;

 private:
  ActiveFlowRing ring_;
};

}  // namespace wormsched::core
