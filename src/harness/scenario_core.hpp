// The one per-cycle scenario loop, shared by run_scenario() and
// ScenarioRun (harness-internal).
//
// A cycle delivers the cycle's arrivals, offers one transmission slot,
// updates flow activity, then applies the horizon/drain stop rule.  The
// activity update is O(touched): a flow's queue changes only when a packet
// arrives for it or when it sends the pulled flit (a tail flit pops the
// queue), so only those flows are re-recorded, and ActivityTracker treats
// an unchanged state as a no-op.  The windows equal a full per-flow
// sweep's at O(arrivals) per cycle instead of O(flows).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "core/scheduler.hpp"
#include "harness/scenario.hpp"
#include "metrics/delay.hpp"
#include "validate/err_auditor.hpp"

namespace wormsched {
class Archive;
}  // namespace wormsched

namespace wormsched::core {
class ErrScheduler;
}  // namespace wormsched::core

namespace wormsched::harness {

class ScenarioCore final : private core::SchedulerObserver {
 public:
  /// Builds the named scheduler for `trace` and wires the metrics, the
  /// ERR auditor (config.audit) and the trace sink (config.trace).
  /// `config` and `trace` are referenced, not copied: both must outlive
  /// the core.
  ScenarioCore(std::string_view scheduler_name, const ScenarioConfig& config,
               const traffic::Trace& trace);
  ~ScenarioCore() override;
  ScenarioCore(const ScenarioCore&) = delete;
  ScenarioCore& operator=(const ScenarioCore&) = delete;

  [[nodiscard]] Cycle now() const { return t_; }
  [[nodiscard]] bool done() const { return done_; }
  /// Runs cycle now().
  void step();
  void run_to_completion() {
    while (!done_) step();
  }

  [[nodiscard]] const core::Scheduler& scheduler() const { return *scheduler_; }

  /// Replay cursor, scheduler and metrics state: the body of a scenario
  /// checkpoint's SSTA section.  Restore into a freshly built core; it
  /// throws SnapshotError on corrupt input, including a logged cycle at
  /// or after the saved one and activity state that disagrees with the
  /// restored queues.
  void fields(Archive& a);

  /// Closes the activity windows, fills the audit counters, detaches the
  /// observers and yields the result.  Call once.
  [[nodiscard]] ScenarioResult finish();

 private:
  // Head-flit instants, the largest served packet, and (when tracing)
  // enqueue/dequeue events; ERR dequeues carry the serving flow's
  // allowance and surplus count at the decision instant.
  void on_packet_arrival(Cycle now, const core::Packet& p) override;
  void on_flit(Cycle now, const core::FlitEvent& flit) override;
  void on_packet_departure(Cycle now, const core::Packet& p) override;
  /// The cross-field rules of a restored core.
  void check_restored() const;

  const ScenarioConfig& config_;
  const traffic::Trace& trace_;
  std::unique_ptr<core::Scheduler> scheduler_;
  const core::ErrScheduler* err_ = nullptr;
  ScenarioResult result_;
  std::optional<validate::AuditLog> local_log_;
  std::optional<validate::ErrAuditor> auditor_;
  metrics::ObserverChain chain_;
  std::vector<FlowId> touched_;  // flows whose queue the cycle changed

  std::size_t next_arrival_ = 0;
  PacketId::rep_type next_packet_id_ = 0;
  Cycle t_ = 0;
  std::size_t trace_round_ = 0;
  bool done_ = false;
  bool finished_ = false;
};

}  // namespace wormsched::harness
