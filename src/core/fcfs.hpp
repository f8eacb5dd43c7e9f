// First-Come-First-Served — the baseline most wormhole switches actually
// implement (Sec. 2).  Packets are served in global arrival order, so a
// bursty or long-packet source steals bandwidth in proportion to what it
// injects (Fig. 4(c)); its relative fairness measure is unbounded
// (Table 1).
#pragma once

#include <cstddef>
#include <string_view>

#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "core/scheduler.hpp"

namespace wormsched::core {

class FcfsScheduler final : public Scheduler {
 public:
  explicit FcfsScheduler(std::size_t num_flows);

  [[nodiscard]] std::string_view name() const override { return "FCFS"; }

 protected:
  void on_flow_backlogged(FlowId flow) override;
  void on_packet_enqueued(Cycle now, FlowId flow, Flits length) override;
  FlowId select_next_flow(Cycle now) override;
  void on_packet_complete(FlowId flow, Flits observed_length,
                          bool queue_now_empty) override;
  void discipline_fields(Archive& a) override;

 private:
  // Global arrival order.  Because per-flow queues are FIFO, the head
  // packet of the recorded flow is exactly the globally oldest packet.
  RingBuffer<FlowId> arrival_order_;
};

}  // namespace wormsched::core
