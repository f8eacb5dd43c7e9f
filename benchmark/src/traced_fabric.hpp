// The traced twin of harness::NetworkRun.
//
// NetworkRun owns its engine, so spans cannot sit between the engine and
// the components it ticks.  TracedFabric wires the same public pieces in
// the same order — fault model, Network, NetworkTrafficSource, the
// fabric and ERR auditors, Engine — with each component and observer
// behind a forwarding proxy that opens a span, and drives them with
// NetworkRun's segment logic.  The digest comparison in the benchmark
// proves the wiring matches.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "harness/network_sweep.hpp"
#include "sim/engine.hpp"
#include "tracer.hpp"
#include "validate/err_auditor.hpp"
#include "validate/faults.hpp"
#include "validate/network_auditor.hpp"
#include "validate/violation.hpp"
#include "wormhole/network.hpp"
#include "wormhole/patterns.hpp"
#include "workload.hpp"

namespace wsbench {

/// Ticks `inner` inside a span.  With `network` set it also samples the
/// network's live-router count after every tick.
class TimedComponent final : public wormsched::sim::Component {
 public:
  TimedComponent(wormsched::sim::Component& inner, Site site, Tracer& tracer,
                 const wormsched::wormhole::Network* network,
                 LayerCounts& counts)
      : inner_(inner),
        site_(site),
        tracer_(tracer),
        network_(network),
        counts_(counts) {}

  void tick(wormsched::Cycle now) override {
    {
      Span span(tracer_, site_);
      inner_.tick(now);
    }
    if (network_ != nullptr) {
      counts_.live_router_sum += network_->live_router_count();
      ++counts_.network_ticks;
    }
  }
  [[nodiscard]] bool idle() const override { return inner_.idle(); }

 private:
  wormsched::sim::Component& inner_;
  Site site_;
  Tracer& tracer_;
  const wormsched::wormhole::Network* network_;
  LayerCounts& counts_;
};

/// Forwards cycle-end notifications to `inner` inside a span.
class TimedNetworkObserver final : public wormsched::wormhole::NetworkObserver {
 public:
  TimedNetworkObserver(wormsched::wormhole::NetworkObserver& inner,
                       Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void on_cycle_end(wormsched::Cycle now,
                    const wormsched::wormhole::Network& network,
                    const wormsched::wormhole::CycleDelta& delta) override {
    Span span(tracer_, Site::kNetAudit);
    inner_.on_cycle_end(now, network, delta);
  }
  [[nodiscard]] bool wants_delta() const override {
    return inner_.wants_delta();
  }

 private:
  wormsched::wormhole::NetworkObserver& inner_;
  Tracer& tracer_;
};

class TracedFabric {
 public:
  /// A run of `config` with `seed` whose clock starts at `start_cycle`
  /// (non-zero only when the caller restores a checkpoint into it).
  TracedFabric(const wormsched::harness::NetworkScenarioConfig& config,
               std::uint64_t seed, Tracer& tracer, LayerCounts& counts,
               wormsched::Cycle start_cycle = 0);
  TracedFabric(const TracedFabric&) = delete;
  TracedFabric& operator=(const TracedFabric&) = delete;

  [[nodiscard]] wormsched::Cycle now() const { return engine_.now(); }
  /// NetworkRun::done().
  [[nodiscard]] bool done() const;
  /// NetworkRun::advance_to(), each engine call inside a span.
  void advance_to(wormsched::Cycle target);
  void run_to_completion() { advance_to(wormsched::kCycleMax); }
  /// NetworkRun::finish(), inside a span.
  [[nodiscard]] wormsched::harness::NetworkScenarioResult finish();

  [[nodiscard]] wormsched::wormhole::Network& network() { return *net_; }
  [[nodiscard]] wormsched::wormhole::NetworkTrafficSource& source() {
    return *source_;
  }
  [[nodiscard]] std::uint64_t full_rescans() const {
    return net_auditor_ ? net_auditor_->full_rescans() : 0;
  }

 private:
  wormsched::harness::NetworkScenarioConfig config_;
  Tracer& tracer_;
  std::optional<wormsched::validate::ScheduledFaults> faults_;
  std::unique_ptr<wormsched::wormhole::Network> net_;
  std::unique_ptr<wormsched::wormhole::NetworkTrafficSource> source_;
  std::optional<TimedComponent> source_proxy_;
  std::optional<TimedComponent> net_proxy_;
  wormsched::validate::AuditLog log_;
  std::optional<wormsched::validate::NetworkAuditor> net_auditor_;
  std::optional<TimedNetworkObserver> net_auditor_proxy_;
  std::vector<std::unique_ptr<wormsched::validate::ErrAuditor>> err_auditors_;
  wormsched::sim::Engine engine_;
  wormsched::Cycle end_cycle_ = 0;
};

/// Digest of a network run's simulated results.
void digest_network(const wormsched::harness::NetworkScenarioResult& r,
                    Digest& d);

/// Flit-hops of the delivered log: each packet's length times the routers
/// it crossed (hops + 1).
[[nodiscard]] std::uint64_t flit_hops(const wormsched::wormhole::Network& net);

}  // namespace wsbench
