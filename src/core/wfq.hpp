// Weighted Fair Queuing / PGPS (Demers, Keshav & Shenker, SIGCOMM 1989 —
// reference [6] of the paper; virtual-time form due to Parekh & Gallager).
//
// WFQ emulates the ideal GPS fluid server: each arriving packet is stamped
// with the virtual time at which GPS would finish it, and packets are
// served in stamp order.  Computing the stamps requires tracking GPS
// virtual time V(t), which advances at rate 1/Phi(t) where Phi is the
// total weight of GPS-backlogged flows — a piecewise-linear function whose
// breakpoints are GPS packet departures.  This is the "Fair Queuing" row
// of Table 1: fairness ~ m, but O(log n) work per packet and a fluid
// tracker on the side — the implementation cost ERR is designed to avoid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <string_view>
#include <vector>

#include "core/timestamp.hpp"

namespace wormsched::core {

class WfqScheduler final : public TimestampScheduler {
 public:
  explicit WfqScheduler(std::size_t num_flows);

  [[nodiscard]] std::string_view name() const override { return "WFQ"; }

  /// GPS virtual time after the most recent arrival (test hook).
  [[nodiscard]] double virtual_time() const { return virtual_time_; }

 protected:
  double stamp(Cycle now, FlowId flow, Flits length) override;
  void stamping_fields(Archive& a) override;

 private:
  struct GpsDeparture {
    double finish;
    std::uint64_t sequence;
    FlowId flow;
  };
  struct Later {
    bool operator()(const GpsDeparture& a, const GpsDeparture& b) const {
      if (a.finish != b.finish) return a.finish > b.finish;
      return a.sequence > b.sequence;
    }
  };

  /// Advances V to real time `t`, retiring GPS departures that occur in
  /// (last_update_, t] and updating Phi at each.
  void advance_virtual_time(double t);

  double virtual_time_ = 0.0;
  double last_update_ = 0.0;  // real time of the last V update
  double phi_ = 0.0;          // total weight of GPS-backlogged flows
  std::vector<double> last_gps_finish_;
  std::vector<std::uint32_t> gps_pending_;  // packets not yet done in GPS
  std::priority_queue<GpsDeparture, std::vector<GpsDeparture>, Later>
      departures_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace wormsched::core
