// Weighted Round Robin (WRR) — the classic packet-count round robin.
//
// Each visit serves ceil(weight_i) whole packets from the flow.  WRR is
// wormhole-deployable (packet counts need no length knowledge) and is the
// natural weighted generalization of the paper's PBRR baseline — and it
// inherits PBRR's flaw: flows sending longer packets get proportionally
// more bandwidth, so its relative fairness measure is unbounded in bytes
// even though it is perfectly fair in packets.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "core/round_robin.hpp"
#include "core/scheduler.hpp"

namespace wormsched::core {

class WrrScheduler final : public Scheduler {
 public:
  explicit WrrScheduler(std::size_t num_flows);

  [[nodiscard]] std::string_view name() const override { return "WRR"; }
  void set_weight(FlowId flow, double weight) override;

 protected:
  void on_flow_backlogged(FlowId flow) override;
  FlowId select_next_flow(Cycle now) override;
  void on_packet_complete(FlowId flow, Flits observed_length,
                          bool queue_now_empty) override;
  void discipline_fields(Archive& a) override;

 private:
  ActiveFlowRing ring_;
  std::vector<std::uint32_t> packets_per_visit_;
  FlowId serving_ = FlowId::invalid();
  std::uint32_t remaining_this_visit_ = 0;
};

}  // namespace wormsched::core
