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
// from the per-unit flags and flags any bookkeeping bug.  On/off
// hysteresis walks a fourth mask, of the input units whose occupancy
// changed or whose last evaluation fired.
//
// A flit-hop touches one per-router array: every input VC is a fixed ring
// of buffer_depth flits in one slab of units x depth (the infinite-buffer
// model doubles the slab's depth when a ring fills).  tick() and its
// stages are templates over the env, so the sends, the ejection and the
// routing oracle inline into the pipeline; the templates are defined at
// the end of this header.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
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

/// Callbacks the router needs from its surrounding network.  Router::tick
/// is a template over the env type, so an env is any class with these
/// members, resolved at compile time (no virtual call per flit-hop):
///
///   void send_flit(NodeId from, Direction out, const Flit& flit);
///       puts `flit` on the link leaving `from` through `out` (non-local);
///   void eject(NodeId node, const Flit& flit, Cycle now);
///       delivers `flit` to the NIC sink of `node`;
///   void send_credit(NodeId node, Direction in, std::uint32_t cls);
///       returns one credit to the upstream router feeding (`node`, `in`);
///   RouteDecision route(NodeId node, const Flit& flit, Direction in_from,
///                       std::uint32_t in_class);
///       the routing oracle (delegates to the Topology);
///   void route_candidates(NodeId node, const Flit& flit, Direction in_from,
///                         std::uint32_t in_class, RouteCandidates& out);
///       optional adaptive oracle: appends every legal next hop to `out`
///       (called with `out` empty; must stay allocation-free), and the
///       router picks the least-congested one.  Without it the router
///       takes route()'s single answer.
///
/// Deriving from RouterEnv supplies send_signal, which carries an on/off
/// signal to the upstream router feeding (`node`, `in`) (`on` false
/// stops the peer, true restarts it).  The router calls it only in on/off
/// flow-control mode; this default aborts, so a credit-only env never
/// silently swallows a signal.
struct RouterEnv {
  void send_signal(NodeId node, Direction in, std::uint32_t cls, bool on);
};

/// Cache-line aligned: a tick's hot members share the first lines.
class alignas(64) Router {
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
  void accept_flit(Direction in, std::uint32_t cls, const Flit& flit) {
    const std::uint32_t g = unit(in, cls);
    InputVc& iv = inputs_[g];
    if (iv.size == depth_) {
      WS_CHECK_MSG(config_.buffer_model == BufferModel::kInfinite,
                   credit_flow_
                       ? "credit protocol violated: input buffer overflow"
                       : "on/off protocol violated: input buffer overflow");
      grow_slab();
    }
    std::uint32_t at = iv.head + iv.size;
    if (at >= depth_) at -= depth_;
    slab_[g * depth_ + at] = flit;
    ++iv.size;
    ++buffered_flits_;
    onoff_pending_ |= bit(g);
    // While the VC holds no route its front is an unrouted packet head
    // (wormhole ordering: mid-packet flits only arrive while routed).
    if (!iv.routed) routable_inputs_ |= bit(g);
  }

  /// Returns one credit to output (`out`, `cls`).
  void accept_credit(Direction out, std::uint32_t cls) {
    WS_CHECK_MSG(credit_flow_,
                 "credit delivered outside credit flow control");
    OutputVc& ov = outputs_[unit(out, cls)];
    WS_CHECK_MSG(ov.credits < config_.buffer_depth,
                 "credit protocol violated: credit overflow");
    ++ov.credits;
  }

  /// Applies an on/off signal from the downstream router fed through
  /// output (`out`, `cls`): `on` false parks the output, true releases
  /// it.  On/off mode only.
  void accept_signal(Direction out, std::uint32_t cls, bool on);

  /// NIC-side query: can the local input VC take one more flit?
  [[nodiscard]] bool can_accept_local(std::uint32_t cls) const;

  /// One router cycle: RC, VA, SA/ST (occupancy is charged at release),
  /// then on/off hysteresis.
  template <class Env>
  void tick(Cycle now, Env& env);

  /// True when no flits are buffered and no output is owned.  O(1): both
  /// quantities are counted as flits and bindings come and go, because
  /// the network's active-set scheduler queries this after every tick.
  [[nodiscard]] bool drained() const {
    return buffered_flits_ == 0 && bound_outputs_ == 0;
  }

  [[nodiscard]] std::uint64_t forwarded_flits() const { return forwarded_; }

  /// Checkpoint state: input buffers (flit-for-flit, each flit with its
  /// packet's fields from `packets`), output bindings and credits,
  /// per-port SA pointers and stats, counters, pending bitmasks, and each
  /// output arbiter's discipline state.  A bound output's arbiter is
  /// saved with its not-yet-charged occupancy included.  Restore into a
  /// freshly constructed router with the same config (unit count and
  /// arbiter name are checked); the buffered flits' packets are filed in
  /// `packets` (PacketTable::restore_flit).  Restore re-derives the
  /// counters and pending masks from the restored units and throws
  /// SnapshotError when the saved ones disagree.
  void fields(Archive& a, PacketTable& packets);

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
    return inputs_[unit(in, cls)].size;
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
    return inputs_[unit(in, cls)].off_sent;
  }
  /// On/off mode: the last signal received for output VC (`out`, `cls`)
  /// (true until the first "off" arrives).
  [[nodiscard]] bool peer_on(Direction out, std::uint32_t cls) const {
    return outputs_[unit(out, cls)].peer_on;
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
    // The unit's ring in the slab: flits [head, head + size) modulo depth_.
    std::uint32_t head = 0;
    std::uint32_t size = 0;
    bool routed = false;  // the packet at the front has a route
    Direction out = Direction::kLocal;
    /// On/off mode: our "off" toward the upstream is outstanding.
    bool off_sent = false;
    std::uint32_t out_class = 0;
  };
  struct OutputVc {
    std::uint32_t credits = 0;
    bool bound = false;
    /// On/off mode: the last signal received (true until the first
    /// "off" arrives).
    bool peer_on = true;
    std::uint32_t owner = 0;  // input VC index owning this output queue
    /// Router tick (ticks_) on which the current owner was granted; the
    /// release charges ticks_ - bound_tick + 1 cycles.
    std::uint64_t bound_tick = 0;
    std::unique_ptr<PortArbiter> arbiter;
  };
  /// One input unit's ring as Archive::seq sees a sequence.
  class BufferView;

  [[nodiscard]] static std::uint64_t bit(std::uint32_t u) {
    return std::uint64_t{1} << u;
  }
  /// Every unit's bit.
  [[nodiscard]] std::uint64_t all_units() const {
    return num_units() == kMaxUnits ? ~std::uint64_t{0}
                                    : bit(num_units()) - 1;
  }
  /// Slab position of the flit `i` places behind unit `g`'s front.
  [[nodiscard]] std::uint32_t slab_index(std::uint32_t g,
                                         std::uint32_t i) const {
    std::uint32_t at = inputs_[g].head + i;
    if (at >= depth_) at -= depth_;
    return g * depth_ + at;
  }
  /// Infinite-buffer model: doubles every ring's depth, each ring's flits
  /// moved to the front of its new stretch of the slab.
  void grow_slab();

  /// Picks the best candidate route for a head flit: an unbound output VC
  /// with the most credits wins (greedy congestion-aware selection); a
  /// deterministic oracle returns one candidate and this reduces to it.
  template <class Env>
  [[nodiscard]] RouteDecision choose_route(Env& env, const Flit& head,
                                           Direction in_from,
                                           std::uint32_t in_class);

  /// RC for one input unit: routes the head at its front, raises the
  /// arbitration request, maintains the masks.  Shared by the RC stage
  /// and the tail-handling re-request in SA.
  template <class Env>
  void route_input(std::uint32_t g, Env& env);
  /// VA for one free output unit: grant + bind + mask upkeep.
  void try_bind_output(std::uint32_t i, Cycle now);
  /// Cycles bound output `ov` has held its owner through the current
  /// tick and not yet charged.
  [[nodiscard]] std::uint64_t uncharged_cycles(const OutputVc& ov) const {
    return ticks_ - ov.bound_tick + 1;
  }
  /// SA/ST for one busy physical port (at least one of its VCs bound);
  /// idle ports are skipped and record no stats.
  template <class Env>
  void sa_port(std::uint32_t p, Cycle now, Env& env);
  /// The consistency pass of a restore: re-derives the counters and masks
  /// from the restored units and rejects a snapshot that disagrees.
  void check_restored_state() const;

  /// On/off hysteresis, run at the end of every tick: raises "off" for
  /// non-local input VCs that crossed on_high, "on" for parked ones that
  /// drained to on_low.  Only the units in onoff_pending_ are evaluated,
  /// in ascending order; any other unit would evaluate to no signal, so
  /// the signals are those of a scan over every unit.  Emitting from the
  /// router's own tick (not at flit-arrival time) keeps the signal order
  /// identical between the serial and the sharded network tick.
  template <class Env>
  void emit_onoff_signals(Env& env);

  // Members are ordered by how often a tick touches them: the masks,
  // counters and mode flags first, then the unit arrays, then what only
  // configuration, stats and checkpoints read.
  //
  // Pending bitmasks, one bit per port/VC unit (ctor checks units <= 64),
  // maintained by the mutation helpers.
  std::uint64_t routable_inputs_ = 0;    // front is an unrouted head
  std::uint64_t requesting_outputs_ = 0; // arbiter pending_total() > 0
  std::uint64_t bound_outputs_mask_ = 0; // mirrors OutputVc::bound
  // Input units the next hysteresis pass evaluates: occupancy changed
  // since their last evaluation, or it fired.  Derived state, not
  // checkpointed: construction and restore set every unit.
  std::uint64_t onoff_pending_ = 0;
  // Ticks so far; OutputVc::bound_tick is measured on this clock, which
  // (unlike `now`) skips the cycles a frozen fabric does not tick us.
  std::uint64_t ticks_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint32_t buffered_flits_ = 0;  // across all input VCs
  std::uint32_t bound_outputs_ = 0;   // output VCs currently owned
  // Flit slots per input ring: buffer_depth, or (infinite model) however
  // deep the slab has grown.
  std::uint32_t depth_ = 0;
  NodeId id_;
  RouterConfig config_;
  std::uint32_t num_nodes_;
  // Mode shorthands: exactly one is set unless the buffer model is
  // infinite (then neither — no backpressure at all).
  bool credit_flow_ = true;
  bool onoff_flow_ = false;
  // Whether the arbiters charge per flit (err-flits); charge_flit() is
  // skipped otherwise.
  bool flit_charging_ = false;
  std::vector<InputVc> inputs_;
  std::vector<OutputVc> outputs_;
  // Every input ring, unit-major: unit g owns [g * depth_, (g+1) * depth_).
  std::vector<Flit> slab_;
  metrics::PerfCounters* perf_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  std::array<std::uint32_t, kNumDirections> sa_pointer_{};  // RR over VCs
  // Unit decode tables and per-port unit masks, fixed by num_vcs.
  std::array<std::uint64_t, kNumDirections> port_units_{};
  std::array<std::uint8_t, kMaxUnits> unit_port_{};
  std::array<std::uint8_t, kMaxUnits> unit_class_{};
  std::array<PortStats, kNumDirections> port_stats_{};
};

// --- The pipeline, instantiated per env type ------------------------------

template <class Env>
RouteDecision Router::choose_route(Env& env, const Flit& head,
                                   Direction in_from, std::uint32_t in_class) {
  if constexpr (!requires(RouteCandidates& out) {
                  env.route_candidates(id_, head, in_from, in_class, out);
                }) {
    return env.route(id_, head, in_from, in_class);
  } else {
    RouteCandidates candidates;
    env.route_candidates(id_, head, in_from, in_class, candidates);
    WS_CHECK(!candidates.empty());
    if (candidates.size() == 1) return candidates[0];
    const RouteDecision* best = &candidates[0];
    std::int64_t best_score = -1;
    for (const RouteDecision& cand : candidates) {
      const OutputVc& ov = outputs_[unit(cand.out, cand.out_class)];
      // Congestion signal per mode: free credits under credit flow, the
      // peer's on/off state under threshold flow, nothing when buffers
      // are infinite (any unbound output is equally good).
      std::int64_t score = 0;
      if (!ov.bound) {
        if (credit_flow_) {
          score = 1 + static_cast<std::int64_t>(ov.credits);
        } else if (onoff_flow_) {
          score = ov.peer_on ? 2 : 1;
        } else {
          score = 1;
        }
      }
      if (score > best_score) {
        best_score = score;
        best = &cand;
      }
    }
    return *best;
  }
}

template <class Env>
void Router::route_input(std::uint32_t g, Env& env) {
  InputVc& iv = inputs_[g];
  const Flit& head = slab_[g * depth_ + iv.head];
  WS_CHECK_MSG(is_head(head.type),
               "input VC front is mid-packet but VC has no route");
  const RouteDecision d =
      choose_route(env, head, unit_direction(g), unit_class(g));
  iv.out = d.out;
  iv.out_class = d.out_class;
  iv.routed = true;
  routable_inputs_ &= ~bit(g);
  const std::uint32_t o = unit(d.out, d.out_class);
  outputs_[o].arbiter->request(FlowId(g));
  requesting_outputs_ |= bit(o);
}

template <class Env>
void Router::sa_port(std::uint32_t p, Cycle now, Env& env) {
  const auto port = static_cast<Direction>(p);
  const std::uint32_t vcs = config_.num_vcs;
  const std::uint32_t start = sa_pointer_[p];  // < vcs (restore checks it)
  bool port_moved = false;
  for (std::uint32_t probe = 0; probe < vcs; ++probe) {
    std::uint32_t cls = start + probe;
    if (cls >= vcs) cls -= vcs;
    const std::uint32_t o = unit(port, cls);
    OutputVc& ov = outputs_[o];
    if (!ov.bound) continue;
    // Downstream-space gate per mode; the infinite model never blocks.
    if (credit_flow_) {
      if (ov.credits == 0) continue;
    } else if (onoff_flow_) {
      if (!ov.peer_on) continue;
    }
    const std::uint32_t g = ov.owner;
    InputVc& iv = inputs_[g];
    if (iv.size == 0) continue;  // worm bubble: flits still upstream

    // The flit leaves from where it sits: the env copies it onward, then
    // the slot is dropped.
    Flit& flit = slab_[g * depth_ + iv.head];
    flit.vc_class = static_cast<std::uint8_t>(cls);
    const bool tail = is_tail(flit.type);
    --buffered_flits_;
    if (credit_flow_) --ov.credits;
    if (flit_charging_) ov.arbiter->charge_flit();
    ++forwarded_;

    const Direction in_dir = unit_direction(g);
    if (credit_flow_ && in_dir != Direction::kLocal)
      env.send_credit(id_, in_dir, unit_class(g));

    if (port == Direction::kLocal) {
      env.eject(id_, flit, now);
    } else {
      env.send_flit(id_, port, flit);
    }
    iv.head = iv.head + 1 == depth_ ? 0 : iv.head + 1;
    --iv.size;
    onoff_pending_ |= bit(g);

    if (tail) {
      iv.routed = false;
      ov.bound = false;
      --bound_outputs_;
      bound_outputs_mask_ &= ~bit(o);
      // If the next packet's head is already buffered, route it and
      // raise its request *before* releasing: the arbiter then sees the
      // input VC as still backlogged, which is what lets ERR apply its
      // continuation rule (and carry surplus counts across packets)
      // instead of treating every packet boundary as an idle gap.
      if (iv.size != 0) route_input(g, env);
      // Occupancy: the packet held the output on every tick from its
      // grant through this one.
      ov.arbiter->charge_cycles(uncharged_cycles(ov));
      ov.arbiter->release();
    }
    // Rotate fairness among VCs.
    sa_pointer_[p] = cls + 1 == vcs ? 0 : cls + 1;
    port_moved = true;
    break;  // port bandwidth: one flit/cycle
  }
  PortStats& stats = port_stats_[p];
  ++stats.busy;
  if (port_moved) {
    ++stats.flits;
  } else {
    ++stats.starved;
    if (trace_ != nullptr)
      trace_->record(obs::TraceEvent::router_stall(now, id_.value(), p));
  }
}

template <class Env>
void Router::emit_onoff_signals(Env& env) {
  // The local units (the port-0 bits) are never evaluated: the NIC feeds
  // them through can_accept_local, not a link, so there is no upstream to
  // signal.  Ports without an upstream (mesh edges, unwired fat-tree
  // slots) never buffer a flit, so the >= on_high branch is unreachable
  // for them.
  std::uint64_t fired = 0;
  for (std::uint64_t m = onoff_pending_ & ~port_units_[0]; m != 0;
       m &= m - 1) {
    const auto g = static_cast<std::uint32_t>(std::countr_zero(m));
    InputVc& iv = inputs_[g];
    if (!iv.off_sent) {
      if (iv.size < config_.on_high) continue;
      iv.off_sent = true;
      env.send_signal(id_, unit_direction(g), unit_class(g), /*on=*/false);
    } else {
      if (iv.size > config_.on_low) continue;
      iv.off_sent = false;
      env.send_signal(id_, unit_direction(g), unit_class(g), /*on=*/true);
    }
    // With on_low == on_high a unit at that occupancy fires every tick,
    // so a unit that fired is evaluated again next tick.
    fired |= bit(g);
  }
  onoff_pending_ = fired;
}

template <class Env>
void Router::tick(Cycle now, Env& env) {
  ++ticks_;
  // Each stage walks only the units with work, in ascending unit index.

  // --- RC: route fresh head flits and raise arbitration requests. -------
  // route_input only clears bits, so walking a snapshot of the mask
  // visits exactly the units that held an unrouted head at stage entry.
  {
    metrics::ScopedStageTimer timer(perf_, metrics::Stage::kRouteCompute);
    for (std::uint64_t m = routable_inputs_; m != 0; m &= m - 1) {
      route_input(static_cast<std::uint32_t>(std::countr_zero(m)), env);
    }
  }

  // --- VA ---------------------------------------------------------------
  {
    metrics::ScopedStageTimer timer(perf_, metrics::Stage::kVcAlloc);
    // Lazy arbitration: only outputs with pending heads (requesting bit)
    // and no current owner can change state; grant() on any other unit is
    // a proven no-op, so the walk skips it entirely.  Binding unit i only
    // touches bit i, so a snapshot walk is exact.
    for (std::uint64_t m = requesting_outputs_ & ~bound_outputs_mask_; m != 0;
         m &= m - 1) {
      try_bind_output(static_cast<std::uint32_t>(std::countr_zero(m)), now);
    }
  }

  // --- SA/ST: one flit per physical port per cycle. ---------------------
  {
    metrics::ScopedStageTimer timer(perf_, metrics::Stage::kSwitchTraversal);
    // A port with no bound VC cannot move a flit and records no stats;
    // skip it without touching its VCs.  Units are port-major, so the
    // lowest bound unit names the next busy port in ascending order, and
    // clearing that port's units moves on to the next one.  The walk is
    // over the bound set at SA entry: releases inside sa_port only clear
    // bits of ports already visited.
    for (std::uint64_t m = bound_outputs_mask_; m != 0;) {
      const std::uint32_t p =
          unit_port_[static_cast<std::uint32_t>(std::countr_zero(m))];
      m &= ~port_units_[p];
      sa_port(p, now, env);
    }
  }

  // Hysteresis runs after SA in the same tick, so a router that drains
  // completely always restores its upstream to "on" before retiring from
  // the active set.
  if (onoff_flow_) emit_onoff_signals(env);
}

}  // namespace wormsched::wormhole
