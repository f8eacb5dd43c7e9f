#include "wormhole/router.hpp"

#include <bit>

#include "common/assert.hpp"
#include "common/archive.hpp"
#include "wormhole/flit_snapshot.hpp"

namespace wormsched::wormhole {

namespace {
// The local "ejection" output is an infinite sink; its credits start at a
// value no run can exhaust.
constexpr std::uint32_t kLocalCredits = 1u << 30;
}  // namespace

std::optional<ConfigError> check_router_config(const RouterConfig& config) {
  constexpr std::uint32_t kMaxVcs = Router::kMaxUnits / kNumDirections;
  const auto fail = [](const char* option, std::string message) {
    return std::optional<ConfigError>({option, std::move(message)});
  };
  if (config.num_vcs < 1) return fail("vcs", "must be >= 1");
  if (config.num_vcs > kMaxVcs)
    return fail("vcs", "must be <= " + std::to_string(kMaxVcs) +
                           " (a router has at most 64 port/VC units)");
  if (config.buffer_depth < 1)
    return fail("buffers",
                "buffer_depth 0 deadlocks every flow-control scheme");
  const bool high_broken = config.on_high > config.buffer_depth;
  if (config.flow_control == FlowControl::kOnOff &&
      config.buffer_model == BufferModel::kFinite &&
      (high_broken || config.on_low < 1 || config.on_low > config.on_high))
    return fail(high_broken ? "on-high" : "on-low",
                "must keep 1 <= on_low <= on_high <= buffer_depth (on_high "
                "is " + std::to_string(config.on_high) + ")");
  return std::nullopt;
}

void RouterEnv::send_signal(NodeId, Direction, std::uint32_t, bool) {
  WS_CHECK_MSG(false, "router env does not carry on/off signals");
}

Router::Router(NodeId id, const RouterConfig& config,
               std::uint32_t num_nodes)
    : id_(id),
      num_nodes_(num_nodes),
      config_(config),
      credit_flow_(config.flow_control == FlowControl::kCredit &&
                   config.buffer_model == BufferModel::kFinite),
      onoff_flow_(config.flow_control == FlowControl::kOnOff &&
                  config.buffer_model == BufferModel::kFinite),
      inputs_(kNumDirections * config.num_vcs),
      outputs_(kNumDirections * config.num_vcs),
      off_sent_(kNumDirections * config.num_vcs, 0),
      peer_on_(kNumDirections * config.num_vcs, 1),
      sa_pointer_(kNumDirections, 0) {
  if (const auto error = check_router_config(config))
    WS_CHECK_MSG(false, (error->option + ": " + error->message).c_str());
  WS_CHECK_MSG(id.value() < num_nodes, "router id outside the fabric");
  for (std::uint32_t i = 0; i < inputs_.size(); ++i) {
    const std::uint32_t port = i / config.num_vcs;
    unit_port_[i] = static_cast<std::uint8_t>(port);
    unit_class_[i] = static_cast<std::uint8_t>(i % config.num_vcs);
    port_units_[port] |= bit(i);
  }
  const std::size_t requesters = inputs_.size();
  for (std::uint32_t i = 0; i < outputs_.size(); ++i) {
    OutputVc& ov = outputs_[i];
    ov.credits = unit_direction(i) == Direction::kLocal ? kLocalCredits
                                                        : config.buffer_depth;
    ov.arbiter = make_arbiter(config.arbiter, requesters);
    WS_CHECK_MSG(ov.arbiter != nullptr, "unknown router arbiter");
  }
  flit_charging_ =
      outputs_[0].arbiter->charging() == PortArbiter::Charging::kFlits;
}

void Router::fields(Archive& a) {
  const auto units = static_cast<std::uint32_t>(inputs_.size());
  const std::uint32_t vcs = config_.num_vcs;
  const auto last_direction = static_cast<Direction>(kNumDirections - 1);
  const auto nodes = below(num_nodes_);
  a.fingerprint<std::uint64_t>("units", units);
  a.fingerprint("arbiter", config_.arbiter);
  const std::uint64_t depth = config_.buffer_model == BufferModel::kFinite
                                  ? config_.buffer_depth
                                  : Archive::kNoMax;
  for (std::uint32_t g = 0; g < units; ++g) {
    const Archive::Scope s = a.scope("inputs", g);
    InputVc& iv = inputs_[g];
    a.seq("buffer", iv.buffer,
          [&a, nodes](Flit& f) { flit_fields(a, f, nodes); }, depth);
    a.b("routed", iv.routed);
    a.enumeration<std::uint32_t>("out", iv.out, last_direction);
    a.u32("out_class", iv.out_class, below(vcs));
    bool off_sent = off_sent_[g] != 0;
    a.b("off_sent", off_sent);
    if (a.loading()) off_sent_[g] = off_sent ? 1 : 0;
  }
  for (std::uint32_t o = 0; o < units; ++o) {
    const Archive::Scope s = a.scope("outputs", o);
    OutputVc& ov = outputs_[o];
    a.u32("credits", ov.credits);
    a.b("bound", ov.bound);
    a.u32("owner", ov.owner, below(units));
    bool peer_on = peer_on_[o] != 0;
    a.b("peer_on", peer_on);
    if (a.loading()) peer_on_[o] = peer_on ? 1 : 0;
    const Archive::Scope arbiter = a.scope("arbiter");
    ov.arbiter->fields(a, a.saving() && ov.bound ? uncharged_cycles(ov) : 0);
  }
  a.each("sa_pointer", sa_pointer_,
         [&a, vcs](std::uint32_t& p) { a.u32("", p, below(vcs)); });
  a.each("port_stats", port_stats_, [&a](PortStats& ps) {
    a.u64("flits", ps.flits);
    a.u64("grants", ps.grants);
    a.u64("busy", ps.busy);
    a.u64("starved", ps.starved);
  });
  a.u64("forwarded", forwarded_);
  a.u32("buffered_flits", buffered_flits_);
  a.u32("bound_outputs", bound_outputs_);
  a.u64("routable_inputs", routable_inputs_);
  a.u64("requesting_outputs", requesting_outputs_);
  a.u64("bound_outputs_mask", bound_outputs_mask_);
  if (!a.loading()) return;
  check_restored_state();
  // The saved arbiters already carry every cycle up to the save point;
  // occupancy from here on is counted from the next tick.
  for (OutputVc& ov : outputs_) ov.bound_tick = ticks_ + 1;
}

Router::UnitMasks Router::implied_masks() const {
  UnitMasks masks;
  for (std::uint32_t u = 0; u < inputs_.size(); ++u) {
    if (!inputs_[u].routed && !inputs_[u].buffer.empty())
      masks.routable |= bit(u);
    if (outputs_[u].arbiter->pending_total() > 0) masks.requesting |= bit(u);
    if (outputs_[u].bound) masks.bound |= bit(u);
  }
  return masks;
}

void Router::check_restored_state() const {
  std::uint64_t buffered = 0;
  for (std::uint32_t u = 0; u < inputs_.size(); ++u) {
    const OutputVc& ov = outputs_[u];
    buffered += inputs_[u].buffer.size();
    if (ov.bound != ov.arbiter->bound() ||
        (ov.bound && ov.arbiter->owner().value() != ov.owner))
      throw SnapshotError("router snapshot output binding disagrees with "
                          "its arbiter");
  }
  const UnitMasks implied = implied_masks();
  if (implied.routable != routable_inputs_ ||
      implied.requesting != requesting_outputs_ ||
      implied.bound != bound_outputs_mask_)
    throw SnapshotError("router snapshot pending masks disagree with its "
                        "units");
  if (buffered != buffered_flits_ ||
      static_cast<std::uint32_t>(std::popcount(implied.bound)) !=
          bound_outputs_)
    throw SnapshotError("router snapshot counters disagree with its units");
}

void Router::accept_flit(Direction in, std::uint32_t cls, const Flit& flit) {
  const std::uint32_t g = unit(in, cls);
  InputVc& iv = inputs_[g];
  if (config_.buffer_model == BufferModel::kFinite) {
    WS_CHECK_MSG(iv.buffer.size() < config_.buffer_depth,
                 credit_flow_
                     ? "credit protocol violated: input buffer overflow"
                     : "on/off protocol violated: input buffer overflow");
  }
  iv.buffer.push_back(flit);
  ++buffered_flits_;
  // While the VC holds no route its front is an unrouted packet head
  // (wormhole ordering: mid-packet flits only arrive while routed).
  if (!iv.routed) routable_inputs_ |= bit(g);
}

void Router::accept_credit(Direction out, std::uint32_t cls) {
  WS_CHECK_MSG(credit_flow_, "credit delivered outside credit flow control");
  OutputVc& ov = outputs_[unit(out, cls)];
  WS_CHECK_MSG(ov.credits < config_.buffer_depth,
               "credit protocol violated: credit overflow");
  ++ov.credits;
}

void Router::accept_signal(Direction out, std::uint32_t cls, bool on) {
  WS_CHECK_MSG(onoff_flow_, "on/off signal outside on/off flow control");
  peer_on_[unit(out, cls)] = on ? 1 : 0;
}

bool Router::can_accept_local(std::uint32_t cls) const {
  return config_.buffer_model == BufferModel::kInfinite ||
         inputs_[unit(Direction::kLocal, cls)].buffer.size() <
             config_.buffer_depth;
}

RouteDecision Router::choose_route(RouterEnv& env, const Flit& head,
                                   Direction in_from, std::uint32_t in_class) {
  RouteCandidates candidates;
  env.route_candidates(id_, head, in_from, in_class, candidates);
  WS_CHECK(!candidates.empty());
  const RouteDecision* best = &candidates[0];
  std::int64_t best_score = -1;
  for (const RouteDecision& cand : candidates) {
    const std::uint32_t o = unit(cand.out, cand.out_class);
    const OutputVc& ov = outputs_[o];
    // Congestion signal per mode: free credits under credit flow, the
    // peer's on/off state under threshold flow, nothing when buffers are
    // infinite (any unbound output is equally good).
    std::int64_t score = 0;
    if (!ov.bound) {
      if (credit_flow_) {
        score = 1 + static_cast<std::int64_t>(ov.credits);
      } else if (onoff_flow_) {
        score = peer_on_[o] != 0 ? 2 : 1;
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

void Router::route_input(std::uint32_t g, RouterEnv& env) {
  InputVc& iv = inputs_[g];
  const Flit& head = iv.buffer.front();
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

void Router::try_bind_output(std::uint32_t i, Cycle now) {
  OutputVc& ov = outputs_[i];
  const auto chosen = ov.arbiter->grant(now);
  if (!chosen) return;
  ov.bound = true;
  ov.owner = static_cast<std::uint32_t>(chosen->value());
  ov.bound_tick = ticks_;
  ++bound_outputs_;
  bound_outputs_mask_ |= bit(i);
  if (ov.arbiter->pending_total() == 0) requesting_outputs_ &= ~bit(i);
  ++port_stats_[static_cast<std::size_t>(unit_direction(i))].grants;
}

void Router::sa_port(std::uint32_t p, Cycle now, RouterEnv& env) {
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
      if (peer_on_[o] == 0) continue;
    }
    InputVc& iv = inputs_[ov.owner];
    if (iv.buffer.empty()) continue;  // worm bubble: flits still upstream

    // The flit leaves from where it sits: the env copies it onward, then
    // the slot is dropped.
    Flit& flit = iv.buffer.front();
    flit.vc_class = VcId(cls);
    const bool tail = is_tail(flit.type);
    --buffered_flits_;
    if (credit_flow_) --ov.credits;
    if (flit_charging_) ov.arbiter->charge_flit();
    ++forwarded_;

    const Direction in_dir = unit_direction(ov.owner);
    if (credit_flow_ && in_dir != Direction::kLocal)
      env.send_credit(id_, in_dir, unit_class(ov.owner));

    if (port == Direction::kLocal) {
      env.eject(id_, flit, now);
    } else {
      env.send_flit(id_, port, flit);
    }
    iv.buffer.drop_front();

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
      if (!iv.buffer.empty()) {
        route_input(ov.owner, env);
      }
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

void Router::emit_onoff_signals(RouterEnv& env) {
  // Skip the local units (g < num_vcs): the NIC feeds them through
  // can_accept_local, not a link, so there is no upstream to signal.
  // Ports without an upstream (mesh edges, unwired fat-tree slots) never
  // buffer a flit, so the >= on_high branch is unreachable for them.
  for (std::uint32_t g = config_.num_vcs; g < inputs_.size(); ++g) {
    const std::size_t occ = inputs_[g].buffer.size();
    if (off_sent_[g] == 0) {
      if (occ >= config_.on_high) {
        off_sent_[g] = 1;
        env.send_signal(id_, unit_direction(g), unit_class(g), /*on=*/false);
      }
    } else if (occ <= config_.on_low) {
      off_sent_[g] = 0;
      env.send_signal(id_, unit_direction(g), unit_class(g), /*on=*/true);
    }
  }
}

void Router::tick(Cycle now, RouterEnv& env) {
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
