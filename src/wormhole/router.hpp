// Wormhole virtual-channel router.
//
// A standard credit-flow-controlled VC router with the canonical stages,
// executed once per cycle:
//   RC — route computation for head flits that reached a buffer front;
//   VA — output-queue allocation: packet-granular arbitration, the stage
//        the paper's ERR targets ("scheduling entry into the output
//        queues from the various input queues, all flits of a packet have
//        to be scheduled before a flit from another packet enters the
//        same output queue");
//   SA/ST — per physical port, one flit per cycle moves from the winning
//        bound input VC to the link, consuming a downstream credit.
//
// The VA arbiter never sees packet lengths — it is charged per cycle of
// output occupancy (or per flit, for the ablation), which is exactly the
// information a real wormhole switch has.  Occupancy is charged when the
// tail leaves: each output remembers the router tick it was bound on,
// and the release charges every tick from that one through the current
// one in a single call, so no tick walks the bound outputs just to add
// 1.0 to each.  Nothing reads the accumulated cost before release except
// a save of fields(), which writes it as if it had been charged tick by
// tick.
//
// The pipeline is bitmask-sparse: three uint64_t pending masks (routable
// inputs, requesting outputs, bound outputs) are walked with
// std::countr_zero, so a tick costs work proportional to pending units,
// not kNumDirections x num_vcs.  The NetworkAuditor re-derives every mask
// from the per-unit flags and flags any bookkeeping bug.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "metrics/perf_counters.hpp"
#include "obs/trace_sink.hpp"
#include "wormhole/arbiter.hpp"
#include "wormhole/flit.hpp"
#include "wormhole/topology.hpp"

namespace wormsched::wormhole {

/// Backpressure scheme between adjacent routers.
///  * kCredit — the classic wormhole credit loop: the sender holds one
///    credit per downstream buffer slot and a credit flit returns per
///    forwarded flit.
///  * kOnOff — threshold (XON/XOFF) signalling: the receiver raises an
///    "off" signal when an input VC's occupancy crosses `on_high` and an
///    "on" signal when it falls back to `on_low`; the sender streams
///    freely while the peer is "on".  Signals ride the credit wire, so
///    they share its latency; the watermark headroom must absorb the
///    flits in flight during one signal round-trip (Network resolves the
///    auto watermarks to guarantee that).
enum class FlowControl : std::uint8_t { kCredit = 0, kOnOff = 1 };

/// Buffer model: kFinite bounds every input VC at `buffer_depth` (the
/// flow-control scheme enforces it); kInfinite lets buffers grow without
/// bound and disables backpressure entirely (no credits, no signals) —
/// the idealized baseline the finite schemes are compared against.
enum class BufferModel : std::uint8_t { kFinite = 0, kInfinite = 1 };

struct RouterConfig {
  std::uint32_t num_vcs = 2;       // VC classes per port (torus needs >= 2)
  std::uint32_t buffer_depth = 8;  // flit slots per input VC
  std::string arbiter = "err-cycles";
  FlowControl flow_control = FlowControl::kCredit;
  BufferModel buffer_model = BufferModel::kFinite;
  /// On/off watermarks (flits buffered in one input VC).  0 means "auto":
  /// the Network resolves high = buffer_depth - (3*link_latency - 2)
  /// (clamped to >= 1; the headroom derivation is in Network's ctor) and
  /// low = (high + 1) / 2 before building routers.  A Router in on/off
  /// mode requires resolved values with
  /// 1 <= on_low <= on_high <= buffer_depth.
  std::uint32_t on_high = 0;
  std::uint32_t on_low = 0;
};

/// A broken configuration rule: the CLI option that sets the offending
/// field (`vcs`, `buffers`, `arbiter`, `on-low`, `routing`, ...) and why.
struct ConfigError {
  std::string option;
  std::string message;
};

/// The first rule `config` breaks: VC classes, buffer depth, on/off
/// watermark order.  The Router constructor asserts there is none.
[[nodiscard]] std::optional<ConfigError> check_router_config(
    const RouterConfig& config);

/// Callbacks the router needs from its surrounding network.
class RouterEnv {
 public:
  virtual ~RouterEnv() = default;
  /// Puts `flit` on the link leaving `from` through `out` (non-local).
  virtual void send_flit(NodeId from, Direction out, const Flit& flit) = 0;
  /// Delivers `flit` to the NIC sink of `node`.
  virtual void eject(NodeId node, const Flit& flit, Cycle now) = 0;
  /// Returns one credit to the upstream router feeding (`node`, `in`).
  virtual void send_credit(NodeId node, Direction in, std::uint32_t cls) = 0;
  /// Carries an on/off signal to the upstream router feeding (`node`,
  /// `in`): `on` false stops the peer, true restarts it.  Only called in
  /// on/off flow-control mode; the default aborts so a credit-only env
  /// never silently swallows a signal.
  virtual void send_signal(NodeId node, Direction in, std::uint32_t cls,
                           bool on);
  /// Routing oracle (delegates to the Topology).
  virtual RouteDecision route(NodeId node, const Flit& flit, Direction in_from,
                              std::uint32_t in_class) = 0;
  /// Adaptive routing oracle: appends all legal next hops for the packet
  /// to `out` (called with `out` empty; must stay allocation-free).  The
  /// router picks the least-congested one at route-computation time.
  /// Default: the single deterministic route.
  virtual void route_candidates(NodeId node, const Flit& flit,
                                Direction in_from, std::uint32_t in_class,
                                RouteCandidates& out) {
    out.push_back(route(node, flit, in_from, in_class));
  }
};

class Router {
 public:
  /// The pending bitmasks cap a router at 64 port/VC units.
  static constexpr std::uint32_t kMaxUnits = 64;

  /// `num_nodes` is the fabric's node count: every flit the router holds
  /// comes from and goes to a node below it.
  Router(NodeId id, const RouterConfig& config, std::uint32_t num_nodes);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const RouterConfig& config() const { return config_; }

  /// Files a copy of an arriving flit into input buffer (`in`, `cls`).
  /// The credit protocol guarantees space; overflow is a checked
  /// invariant violation.
  void accept_flit(Direction in, std::uint32_t cls, const Flit& flit);

  /// Returns one credit to output (`out`, `cls`).
  void accept_credit(Direction out, std::uint32_t cls);

  /// Applies an on/off signal from the downstream router fed through
  /// output (`out`, `cls`): `on` false parks the output, true releases
  /// it.  On/off mode only.
  void accept_signal(Direction out, std::uint32_t cls, bool on);

  /// NIC-side query: can the local input VC take one more flit?
  [[nodiscard]] bool can_accept_local(std::uint32_t cls) const;

  /// One router cycle: RC, VA, SA/ST (occupancy is charged at release).
  void tick(Cycle now, RouterEnv& env);

  /// True when no flits are buffered and no output is owned.  O(1): both
  /// quantities are counted as flits and bindings come and go, because
  /// the network's active-set scheduler queries this after every tick.
  [[nodiscard]] bool drained() const {
    return buffered_flits_ == 0 && bound_outputs_ == 0;
  }

  [[nodiscard]] std::uint64_t forwarded_flits() const { return forwarded_; }

  /// Checkpoint state: input buffers (flit-for-flit), output bindings
  /// and credits, per-port SA pointers and stats, counters, pending
  /// bitmasks, and each output arbiter's discipline state.  A bound
  /// output's arbiter is saved with its not-yet-charged occupancy
  /// included.  Restore into a freshly constructed router with the same
  /// config (unit count and arbiter name are checked).  Restore re-derives
  /// the counters and pending masks from the restored units and throws
  /// SnapshotError when the saved ones disagree.
  void fields(Archive& a);

  /// Per-stage wall-tick sink for the instrumented bench run; nullptr
  /// (the default) keeps the hot path uninstrumented.
  void set_perf_counters(metrics::PerfCounters* counters) {
    perf_ = counters;
  }

  /// Structured event sink (not owned); nullptr (the default) keeps the
  /// hot path at one pointer test.  Records kRouterStall on starved busy
  /// ports.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  /// Per-output-port observability counters.
  struct PortStats {
    std::uint64_t flits = 0;     // flits transmitted through the port
    std::uint64_t grants = 0;    // packets granted an output queue
    std::uint64_t busy = 0;      // cycles >= 1 of the port's queues bound
    std::uint64_t starved = 0;   // busy cycles in which no flit moved
                                 // (bubbles or exhausted credits)
  };
  [[nodiscard]] const PortStats& port_stats(Direction port) const {
    return port_stats_[static_cast<std::size_t>(port)];
  }

  /// --- Audit accessors (read-only views for src/validate) -------------
  /// Flits buffered across all input VCs.
  [[nodiscard]] std::uint32_t buffered_flits() const {
    return buffered_flits_;
  }
  /// Flits buffered in input VC (`in`, `cls`).
  [[nodiscard]] std::size_t input_buffer_size(Direction in,
                                              std::uint32_t cls) const {
    return inputs_[unit(in, cls)].buffer.size();
  }
  /// Whether input VC (`in`, `cls`)'s front packet holds a route.
  [[nodiscard]] bool input_routed(Direction in, std::uint32_t cls) const {
    return inputs_[unit(in, cls)].routed;
  }
  /// Credits currently held for output VC (`out`, `cls`).
  [[nodiscard]] std::uint32_t output_credits(Direction out,
                                             std::uint32_t cls) const {
    return outputs_[unit(out, cls)].credits;
  }
  /// Same, by router-local unit index — for observers that carry
  /// precomputed unit keys (CycleDelta::UnitEvent).
  [[nodiscard]] std::uint32_t output_credits_by_unit(std::uint32_t u) const {
    return outputs_[u].credits;
  }
  /// Whether output VC (`out`, `cls`) is owned by a packet in flight.
  [[nodiscard]] bool output_bound(Direction out, std::uint32_t cls) const {
    return outputs_[unit(out, cls)].bound;
  }
  /// On/off mode: whether this router has an outstanding "off" toward
  /// the upstream feeding input VC (`in`, `cls`).
  [[nodiscard]] bool off_sent(Direction in, std::uint32_t cls) const {
    return off_sent_[unit(in, cls)] != 0;
  }
  /// On/off mode: the last signal received for output VC (`out`, `cls`)
  /// (true until the first "off" arrives).
  [[nodiscard]] bool peer_on(Direction out, std::uint32_t cls) const {
    return peer_on_[unit(out, cls)] != 0;
  }
  /// The arbiter governing output port `out`, class `cls` (never null).
  [[nodiscard]] PortArbiter& arbiter(Direction out, std::uint32_t cls) {
    return *outputs_[unit(out, cls)].arbiter;
  }
  [[nodiscard]] const PortArbiter& arbiter(Direction out,
                                           std::uint32_t cls) const {
    return *outputs_[unit(out, cls)].arbiter;
  }
  /// Pending bitmasks (unit index = direction * num_vcs + class).  The
  /// pipeline walks these; the auditor re-derives each from the per-unit
  /// flags and cross-checks.
  [[nodiscard]] std::uint64_t routable_inputs_mask() const {
    return routable_inputs_;
  }
  [[nodiscard]] std::uint64_t requesting_outputs_mask() const {
    return requesting_outputs_;
  }
  [[nodiscard]] std::uint64_t bound_outputs_mask() const {
    return bound_outputs_mask_;
  }
  /// The pending bitmasks the per-unit flags imply, which the three masks
  /// above must equal: the one definition the auditor checks every
  /// audited cycle and a restore checks once.
  struct UnitMasks {
    std::uint64_t routable = 0;
    std::uint64_t requesting = 0;
    std::uint64_t bound = 0;
  };
  [[nodiscard]] UnitMasks implied_masks() const;
  [[nodiscard]] std::uint32_t num_units() const {
    return static_cast<std::uint32_t>(inputs_.size());
  }

  [[nodiscard]] std::uint32_t unit(Direction d, std::uint32_t cls) const {
    return static_cast<std::uint32_t>(d) * config_.num_vcs + cls;
  }
  /// Table lookups (built in the ctor), not a division by num_vcs.
  [[nodiscard]] Direction unit_direction(std::uint32_t index) const {
    return static_cast<Direction>(unit_port_[index]);
  }
  [[nodiscard]] std::uint32_t unit_class(std::uint32_t index) const {
    return unit_class_[index];
  }

 private:
  struct InputVc {
    RingBuffer<Flit> buffer;
    bool routed = false;  // the packet at the front has a route
    Direction out = Direction::kLocal;
    std::uint32_t out_class = 0;
  };
  struct OutputVc {
    std::uint32_t credits = 0;
    bool bound = false;
    std::uint32_t owner = 0;  // input VC index owning this output queue
    /// Router tick (ticks_) on which the current owner was granted; the
    /// release charges ticks_ - bound_tick + 1 cycles.
    std::uint64_t bound_tick = 0;
    std::unique_ptr<PortArbiter> arbiter;
  };

  [[nodiscard]] static std::uint64_t bit(std::uint32_t u) {
    return std::uint64_t{1} << u;
  }

  /// Picks the best candidate route for a head flit: an unbound output VC
  /// with the most credits wins (greedy congestion-aware selection); a
  /// deterministic oracle returns one candidate and this reduces to it.
  [[nodiscard]] RouteDecision choose_route(RouterEnv& env, const Flit& head,
                                           Direction in_from,
                                           std::uint32_t in_class);

  /// RC for one input unit: routes the head at its front, raises the
  /// arbitration request, maintains the masks.  Shared by the RC stage
  /// and the tail-handling re-request in SA.
  void route_input(std::uint32_t g, RouterEnv& env);
  /// VA for one free output unit: grant + bind + mask upkeep.
  void try_bind_output(std::uint32_t i, Cycle now);
  /// Cycles bound output `ov` has held its owner through the current
  /// tick and not yet charged.
  [[nodiscard]] std::uint64_t uncharged_cycles(const OutputVc& ov) const {
    return ticks_ - ov.bound_tick + 1;
  }
  /// SA/ST for one busy physical port (at least one of its VCs bound);
  /// idle ports are skipped and record no stats.
  void sa_port(std::uint32_t p, Cycle now, RouterEnv& env);
  /// The consistency pass of a restore: re-derives the counters and masks
  /// from the restored units and rejects a snapshot that disagrees.
  void check_restored_state() const;

  /// On/off hysteresis, run at the end of every tick: raises "off" for
  /// non-local input VCs that crossed on_high, "on" for parked ones that
  /// drained to on_low.  Emitting from the router's own tick (not at
  /// flit-arrival time) keeps the signal order identical between the
  /// serial and the sharded network tick.
  void emit_onoff_signals(RouterEnv& env);

  NodeId id_;
  std::uint32_t num_nodes_;
  RouterConfig config_;
  // Mode shorthands: exactly one is set unless the buffer model is
  // infinite (then neither — no backpressure at all).
  bool credit_flow_ = true;
  bool onoff_flow_ = false;
  std::vector<InputVc> inputs_;
  std::vector<OutputVc> outputs_;
  /// On/off state: per input unit, 1 while our "off" is outstanding; per
  /// output unit, 0 while the downstream peer has us parked.
  std::vector<std::uint8_t> off_sent_;
  std::vector<std::uint8_t> peer_on_;
  std::vector<std::uint32_t> sa_pointer_;  // per port: RR over its VCs
  std::vector<PortStats> port_stats_ =
      std::vector<PortStats>(kNumDirections);
  // Unit decode tables and per-port unit masks, fixed by num_vcs.
  std::array<std::uint8_t, kMaxUnits> unit_port_{};
  std::array<std::uint8_t, kMaxUnits> unit_class_{};
  std::array<std::uint64_t, kNumDirections> port_units_{};
  // Whether the arbiters charge per flit (err-flits); charge_flit() is
  // skipped otherwise.
  bool flit_charging_ = false;
  // Ticks so far; OutputVc::bound_tick is measured on this clock, which
  // (unlike `now`) skips the cycles a frozen fabric does not tick us.
  std::uint64_t ticks_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint32_t buffered_flits_ = 0;  // across all input VCs
  std::uint32_t bound_outputs_ = 0;   // output VCs currently owned
  // Pending bitmasks, one bit per port/VC unit (ctor checks units <= 64),
  // maintained by the mutation helpers.
  std::uint64_t routable_inputs_ = 0;    // front is an unrouted head
  std::uint64_t requesting_outputs_ = 0; // arbiter pending_total() > 0
  std::uint64_t bound_outputs_mask_ = 0; // mirrors OutputVc::bound
  metrics::PerfCounters* perf_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace wormsched::wormhole
