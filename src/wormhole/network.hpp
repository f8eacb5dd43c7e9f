// Whole-network wormhole simulator: routers + links + NICs.
//
// Cycle-accurate at flit granularity with credit-based flow control and a
// configurable per-output-queue arbiter in every router (ERR by default).
// Used by the integration tests (delivery, credit conservation, deadlock
// freedom) and the A4 network bench (ERR vs RR/FCFS under hotspot
// traffic).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/shard_partition.hpp"
#include "common/stats.hpp"
#include "common/tick_team.hpp"
#include "common/types.hpp"
#include "metrics/perf_counters.hpp"
#include "sim/engine.hpp"
#include "wormhole/fault_hooks.hpp"
#include "wormhole/flit.hpp"
#include "wormhole/observer.hpp"
#include "wormhole/router.hpp"
#include "wormhole/shard.hpp"
#include "wormhole/topology.hpp"

namespace wormsched {
class SnapshotReader;
class SnapshotWriter;
}  // namespace wormsched

namespace wormsched::wormhole {

struct NetworkConfig {
  enum class Routing {
    kDor,        // deterministic: XY on mesh/torus, hashed up/down on
                 // the fat tree
    kWestFirst,  // adaptive west-first turn model (mesh only)
    kUpDownAdaptive,  // adaptive up/down — all uplinks while climbing
                      // (fat tree only)
  };

  TopologySpec topo = TopologySpec::mesh(4, 4);
  RouterConfig router;
  std::uint32_t link_latency = 1;  // cycles; >= 1
  Routing routing = Routing::kDor;
  /// Optional fault injector (not owned; must outlive the network).
  /// nullptr = fault-free.  Faults perturb *timing* (stalled wires,
  /// quarantined credits), never drop flits or credits, so every
  /// conservation invariant holds with faults enabled.
  const FaultModel* faults = nullptr;
  /// Shard domains for the multi-threaded tick (>= 1).  1 (the default)
  /// ticks every router on the caller thread; > 1 partitions routers into
  /// contiguous domains whose NIC injection and router ticks run on
  /// worker lanes against per-shard staging, bit-identical to the caller
  /// thread by construction (see shard.hpp).  Clamped to the router count
  /// (a 1x1 mesh with shards = 8 has one shard).
  std::uint32_t shards = 1;
  /// Worker lanes ticking the shard domains (>= 1; clamped to `shards`).
  /// A lane handles shards lane, lane + threads, ... — so threads <
  /// shards oversubscribes domains onto lanes without changing results.
  /// 1 with shards > 1 runs the staging path on the caller thread (the
  /// differential the tests lean on).
  std::uint32_t threads = 1;
  /// Keep the per-packet delivered log.  The log grows with the run, so
  /// soak mode turns it off and reads the O(1) accumulators instead
  /// (delivered_packets(), latency_overall(), latency_quantiles()); every
  /// counter and statistic is maintained identically either way.
  bool record_delivered = true;
};

/// The first fabric rule `config` breaks, router rules included (on the
/// resolved watermarks), then the arbiter name, topology and routing.
/// Network's constructor asserts there is none; the CLI reports it as
/// "option --<option>: <message>" and exits 2.
[[nodiscard]] std::optional<ConfigError> check_config(
    const NetworkConfig& config);

struct DeliveredPacket {
  PacketId id;
  FlowId flow;
  NodeId source;
  NodeId dest;
  Flits length = 0;
  Cycle created = 0;
  Cycle delivered = 0;
};

class Network final : public sim::Component {
 public:
  // Wire records live at namespace scope (shard.hpp) so the shard lanes
  // can stage them; the nested names remain for the audit accessors.
  using WireFlit = wormhole::WireFlit;
  using WireCredit = wormhole::WireCredit;

  explicit Network(const NetworkConfig& config);

  /// Queues a packet at its source NIC and files it in the packet table,
  /// where it stays until its tail is ejected.  Unbounded NIC queue —
  /// sources are modelled as having their own memory; fairness pressure
  /// happens inside the fabric.  Call between ticks.
  void inject(Cycle now, const PacketDescriptor& packet);

  /// One network cycle: deliver in-flight flits/credits, inject from NICs
  /// (one flit per node per cycle), then tick the active routers.  A
  /// router is active while it holds flits or owns an output; it enrolls
  /// when a flit or credit reaches it and retires once drained, so an
  /// idle fabric costs nothing per cycle.  One kernel serves every
  /// configuration: the wires pop serially, then injection and the
  /// routers run per shard range — on the caller thread, or with
  /// config.shards > 1 on the worker lanes against per-shard staging that
  /// a serial commit folds back (see shard.hpp).  An attached trace sink
  /// or perf counters (neither is thread-safe) keep the cycle on the
  /// caller thread; results are bit-identical either way.
  void tick(Cycle now) override;
  /// O(shards): counters track NIC backlog and live routers per shard
  /// (one shard by default); the wires are FIFOs with O(1) emptiness
  /// checks.
  [[nodiscard]] bool idle() const override;

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] Router& router(NodeId node) { return routers_[node.index()]; }

  [[nodiscard]] const std::vector<DeliveredPacket>& delivered() const {
    return delivered_;
  }
  [[nodiscard]] std::uint64_t injected_packets() const { return injected_; }
  /// Packets fully delivered (tail ejected).  O(1); counted even when
  /// config.record_delivered is off.
  [[nodiscard]] std::uint64_t delivered_packets() const {
    return delivered_packets_;
  }
  [[nodiscard]] std::uint64_t delivered_flits() const {
    return delivered_flits_;
  }
  /// End-to-end packet latency (inject call to tail ejection) per source.
  /// O(1): the stats accumulate at ejection time, not by scanning the
  /// delivered log (which grows with the run).
  [[nodiscard]] const RunningStat& latency_by_source(NodeId source) const {
    return latency_by_source_[source.index()];
  }
  [[nodiscard]] const RunningStat& latency_overall() const {
    return latency_overall_;
  }
  /// Reservoir-sampled packet-latency quantiles, fed at tail ejection in
  /// delivery order — the same samples, in the same order, a post-run
  /// scan of the delivered log would feed, so consumers get identical
  /// p99s without the log.
  [[nodiscard]] const QuantileEstimator& latency_quantiles() const {
    return latency_quantiles_;
  }
  /// Delivered flit counts keyed by flow id (for fairness comparisons).
  /// O(num_flows): folded into a running accumulator at tail ejection —
  /// never a scan of the delivered log — so it works with
  /// config.record_delivered off and stays flat-RSS on long runs.
  [[nodiscard]] std::vector<Flits> delivered_flits_by_flow(
      std::size_t num_flows) const;

  /// Attaches a cycle-end observer (not owned; must outlive its
  /// attachment).  Any number may be attached at once — the auditor, a
  /// trace probe, and ad-hoc test hooks compose — and all are notified in
  /// attachment order after every tick.  An observer whose wants_delta()
  /// returns true switches on CycleDelta collection for the whole fabric;
  /// wants_delta() is re-sampled only at attach/detach time, so its
  /// answer must be stable while attached.
  void attach_observer(NetworkObserver* observer) {
    observers_.attach(observer);
    refresh_delta_collection();
  }
  /// Detaches `observer`; a no-op if it is not attached.  Delta
  /// collection stops (and any half-built delta is discarded) once no
  /// remaining observer wants it.
  void detach_observer(NetworkObserver* observer) {
    observers_.detach(observer);
    refresh_delta_collection();
  }
  [[nodiscard]] const ObserverMux& observers() const { return observers_; }
  /// Whether the network is accumulating a CycleDelta each tick.
  [[nodiscard]] bool collecting_delta() const { return collect_delta_; }

  /// Attaches a per-stage perf-counter sink (not owned) to the network
  /// and every router; nullptr (the default) detaches and keeps the hot
  /// path uninstrumented.
  void set_perf_counters(metrics::PerfCounters* counters);

  /// Attaches a structured event sink (not owned) to the network and
  /// every router; nullptr (the default) detaches.  The network stamps
  /// the sink's clock each tick and records flit injection/ejection and
  /// fault-injector actions; routers record output-port stalls.
  void set_trace_sink(obs::TraceSink* sink);

  /// --- Audit accessors (read-only views for src/validate) -------------
  [[nodiscard]] const NetworkConfig& config() const { return config_; }
  [[nodiscard]] const Router& router(NodeId node) const {
    return routers_[node.index()];
  }
  /// Total flits of every packet ever passed to inject().
  [[nodiscard]] Flits injected_flits() const { return injected_flits_; }
  /// Flits still queued at source NICs (not yet entered the fabric).
  /// O(shards): the counters are per shard domain so each lane writes
  /// only its own.
  [[nodiscard]] Flits nic_backlog_flits() const {
    Flits total = 0;
    for (const Flits f : shard_nic_backlog_) total += f;
    return total;
  }
  [[nodiscard]] const RingBuffer<WireFlit>& flit_wire() const {
    return flit_wire_;
  }
  [[nodiscard]] const RingBuffer<WireCredit>& credit_wire() const {
    return credit_wire_;
  }
  /// Credits withheld by a fault's starvation window (empty when
  /// fault-free).
  [[nodiscard]] const RingBuffer<WireCredit>& credit_quarantine() const {
    return credit_quarantine_;
  }
  /// Whether router `node` is enrolled in the active set this cycle.
  [[nodiscard]] bool router_live(NodeId node) const {
    const std::uint32_t at = live_bit_[node.index()];
    return ((live_words_[at >> 6] >> (at & 63)) & 1) != 0;
  }
  /// The packets the fabric holds, each from inject() to its tail's
  /// ejection; every flit names its packet by slot.  Mutable for tests
  /// that plant a flit past inject(): its packet is filed here first.
  [[nodiscard]] const PacketTable& packets() const { return packets_; }
  [[nodiscard]] PacketTable& packets() { return packets_; }
  [[nodiscard]] std::uint32_t live_router_count() const {
    std::uint32_t total = 0;
    for (const std::uint32_t c : shard_live_) total += c;
    return total;
  }
  /// Effective shard domains (config.shards clamped to the router count).
  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shard_ranges_.size());
  }
  /// Worker lanes the sharded tick uses (1 with a single shard).
  [[nodiscard]] std::uint32_t tick_lanes() const {
    return team_ != nullptr ? team_->lanes() : 1;
  }

  /// Checkpoint/restore of the full fabric: NIC queues, in-flight wire
  /// flits and credits (quarantine included), every router pipeline and
  /// arbiter, the latency accumulators and counters, and the clock.
  /// Geometry (topology, VC/buffer/latency/routing/arbiter config) is
  /// embedded and checked on restore — a snapshot only restores into a
  /// freshly constructed network with matching config.  Sharding
  /// (config.shards/threads) is NOT part of the snapshot: the per-shard
  /// counters are recomputed, so a serial checkpoint restores into a
  /// sharded network and vice versa, bit-identically.  The delivered log
  /// is not serialized (it is derived output, unbounded under soak);
  /// restored runs continue the log from empty.  save_state() and
  /// restore_state() forward to fields().
  void fields(Archive& a);
  void save_state(SnapshotWriter& w) const;
  void restore_state(SnapshotReader& r);

 private:
  friend class ShardLane;
  friend class Router;  // ticks against the network as its env

  // The router env of the caller-thread tick (see RouterEnv).
  void send_flit(NodeId from, Direction out, const Flit& flit);
  void eject(NodeId node, const Flit& flit, Cycle now);
  void send_credit(NodeId node, Direction in, std::uint32_t cls);
  void send_signal(NodeId node, Direction in, std::uint32_t cls, bool on);
  RouteDecision route(NodeId node, const Flit& flit, Direction in_from,
                      std::uint32_t in_class);
  void route_candidates(NodeId node, const Flit& flit, Direction in_from,
                        std::uint32_t in_class, RouteCandidates& out);

  /// Files a due wire entry into its router — a credit-wire entry by
  /// kind, to accept_credit or accept_signal — and enrolls the router in
  /// the active set.
  void deliver(const WireFlit& wf) {
    routers_[wf.to.index()].accept_flit(wf.in, wf.cls, wf.flit);
    mark_live(wf.to.index());
  }
  void deliver(const WireCredit& wc) {
    Router& rt = routers_[wc.to.index()];
    if (wc.kind == WireCredit::Kind::kCredit)
      rt.accept_credit(wc.out, wc.cls);
    else
      rt.accept_signal(wc.out, wc.cls, wc.kind == WireCredit::Kind::kOn);
    mark_live(wc.to.index());
  }
  /// The send paths of the network and of every shard lane: append the
  /// wire record to `wire` (the global wire, or a lane's staging) and the
  /// to-wire event to `delta`.
  template <class Wire>
  void put_flit(Wire& wire, CycleDelta& delta, NodeId from, Direction out,
                const Flit& flit);
  template <class Wire>
  void put_credit(Wire& wire, CycleDelta& delta, NodeId node, Direction in,
                  std::uint32_t cls, WireCredit::Kind kind);

  struct Nic {
    RingBuffer<PacketSlot> queue;  // slots in packets_
    Flits sent_of_current = 0;
  };

  /// Recomputes the per-shard NIC and liveness counters after a restore.
  void rebuild_shard_counters();

  /// Enrolls router `index` in the active set (idempotent).
  void mark_live(std::size_t index) {
    const std::uint32_t at = live_bit_[index];
    std::uint64_t& word = live_words_[at >> 6];
    const std::uint64_t b = std::uint64_t{1} << (at & 63);
    if ((word & b) != 0) return;
    word |= b;
    ++shard_live_[shard_of_[index]];
  }

  /// The per-range step of tick(): shards [first, last) deliver the
  /// arrivals staged on their lanes, inject from their NICs (unless
  /// `frozen`) and tick their routers against `env` (the network itself
  /// or the shard's lane), recording delta events into `delta`.
  template <class Env>
  void step(Cycle now, bool frozen, std::uint32_t first, std::uint32_t last,
            Env& env, CycleDelta& delta);
  /// Moves one flit of NIC `n`'s front packet into the router if the
  /// local VC has room; delta events go to `delta` (the global delta on
  /// the caller thread, the owning lane's on the lanes).
  void nic_inject_one(Cycle now, std::uint32_t n, CycleDelta& delta);

  /// Adds router `index` to the cycle's touched set, recording it into
  /// `delta`'s touched list (idempotent across all deltas of the cycle:
  /// the flag array is global and shard lanes only ever flag their own
  /// routers).  Callers guard on collect_delta_.
  void touch_into(CycleDelta& delta, std::size_t index) {
    if (touched_flag_[index]) return;
    touched_flag_[index] = 1;
    delta.touched.push_back(static_cast<std::uint32_t>(index));
  }
  /// Records a wire event at `node`'s unit (`port`, `cls`) into `events`,
  /// one of `delta`'s lists, and touches the node.  Callers guard on
  /// collect_delta_, so the uncollected hot path pays no call.
  void note(CycleDelta& delta, std::vector<CycleDelta::UnitEvent>& events,
            NodeId node, Direction port, std::uint32_t cls) {
    touch_into(delta, node.index());
    events.push_back(
        CycleDelta::UnitEvent{delta_unit(node, port, cls), node.value()});
  }
  /// Global unit key for CycleDelta events (see UnitEvent in
  /// observer.hpp); emission sites precompute it so consumers pay no
  /// per-event arithmetic.
  [[nodiscard]] std::uint32_t delta_unit(NodeId node, Direction d,
                                         std::uint32_t cls) const {
    return (node.value() * kNumDirections + static_cast<std::uint32_t>(d)) *
               config_.router.num_vcs +
           cls;
  }
  /// Re-derives collect_delta_ from the attached observers; discards any
  /// half-built delta when collection switches off.
  void refresh_delta_collection();

  NetworkConfig config_;
  Topology topo_;
  std::vector<Router> routers_;
  PacketTable packets_;
  std::vector<Nic> nics_;
  // Constant latency means launch order == arrival order: plain FIFOs.
  RingBuffer<WireFlit> flit_wire_;
  RingBuffer<WireCredit> credit_wire_;
  // Credits held back by a fault's starvation window; release cycles are
  // non-decreasing (FaultModel contract), so this too is a FIFO.
  RingBuffer<WireCredit> credit_quarantine_;
  std::vector<DeliveredPacket> delivered_;
  // Streaming per-flow delivered-flit totals (grown on first delivery of
  // a flow).  Like the latency stats — and unlike the delivered log — it
  // is derived observability state and not part of the snapshot; a
  // restored network counts deliveries from the restore point, exactly
  // as the log-scanning implementation did.
  std::vector<Flits> flow_delivered_flits_;
  std::vector<RunningStat> latency_by_source_;  // indexed by source node
  RunningStat latency_overall_;
  QuantileEstimator latency_quantiles_;
  std::uint64_t injected_ = 0;
  std::uint64_t delivered_packets_ = 0;
  std::uint64_t delivered_flits_ = 0;
  Flits injected_flits_ = 0;
  ObserverMux observers_;
  // Per-cycle movement record handed to observers.  Collection runs only
  // while some attached observer wants it (collect_delta_); the vectors
  // are cleared — never shrunk — after dispatch, so steady-state
  // collection allocates nothing.  touched_flag_ dedups the touched list.
  CycleDelta delta_;
  std::vector<std::uint8_t> touched_flag_;
  bool collect_delta_ = false;
  // On/off + finite buffers: a link-stall fault freezes NIC injection and
  // the router pipelines for the cycle (see the ctor comment); computed
  // once so the tick hot path tests a bool.
  bool freeze_on_stall_ = false;
  Cycle now_ = 0;  // cached for send_flit latency stamping
  // Active-set bookkeeping.  Router n's live bit means it must tick this
  // cycle (it holds work or just received a flit/credit); step() walks
  // the set bits.  Each shard's bits start a fresh word, so a lane never
  // writes a word another lane writes; live_bit_[n] is router n's bit
  // position (word * 64 + bit), shard_words_[s] the first word of shard
  // s.  The per-shard counters make idle() O(shards).  Counters are split
  // per shard domain so each lane writes only its own shards' counters;
  // the caller thread uses the same arrays (one shard when config.shards
  // == 1).
  std::vector<std::uint64_t> live_words_;
  std::vector<std::uint32_t> live_bit_;
  std::vector<std::uint32_t> shard_words_;
  std::vector<std::uint32_t> shard_live_;          // live routers per shard
  std::vector<std::uint32_t> shard_nonempty_nics_;  // NICs with backlog
  std::vector<Flits> shard_nic_backlog_;            // queued flits per shard
  // Sharding geometry: contiguous ascending router ranges plus the
  // inverse map (node index -> owning shard).
  std::vector<ShardRange> shard_ranges_;
  std::vector<std::uint32_t> shard_of_;
  // One staging lane per shard (its vectors stay empty unless the lanes
  // run the cycle) + the persistent worker team, built only when
  // config.shards > 1.
  std::vector<ShardLane> lanes_;
  std::unique_ptr<TickTeam> team_;
  metrics::PerfCounters* perf_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace wormsched::wormhole
