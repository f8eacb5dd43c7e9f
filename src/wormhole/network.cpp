#include "wormhole/network.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/snapshot.hpp"
#include "wormhole/flit_snapshot.hpp"

namespace wormsched::wormhole {

Network::Network(const NetworkConfig& config)
    : config_(config), topo_(config.topo) {
  WS_CHECK(config.link_latency >= 1);
  WS_CHECK_MSG(config.shards >= 1, "shards must be >= 1");
  WS_CHECK_MSG(config.threads >= 1, "threads must be >= 1");
  WS_CHECK_MSG(config.router.buffer_depth >= 1,
               "buffer_depth 0 deadlocks every flow-control scheme");
  if (config.topo.kind == TopologySpec::Kind::kTorus) {
    WS_CHECK_MSG(config.router.num_vcs >= 2,
                 "torus requires >= 2 VC classes (dateline rule)");
    WS_CHECK_MSG(config.routing == NetworkConfig::Routing::kDor,
                 "torus supports deterministic DOR routing only");
  }
  if (config.routing == NetworkConfig::Routing::kWestFirst)
    WS_CHECK_MSG(config.topo.kind == TopologySpec::Kind::kMesh,
                 "west-first routing is mesh-only");
  if (config.routing == NetworkConfig::Routing::kUpDownAdaptive)
    WS_CHECK_MSG(config.topo.kind == TopologySpec::Kind::kFatTree,
                 "up/down adaptive routing is fat-tree-only");
  // Resolve the on/off auto watermarks before any router is built.  An
  // "off" emitted at occupancy on_high takes link_latency (L) cycles to
  // arrive, during which the sender streams L - 1 more flits on top of
  // the L already in flight (2L - 1 of headroom).  A link-stall fault can
  // additionally bunch up to L spaced arrivals into one delivery burst
  // that jumps occupancy past on_high before the off fires, so the auto
  // watermark reserves 3L - 2 slots — overflow-proof even under faults
  // (for L = 1 the two bounds coincide).  Explicit watermarks are only
  // required to be ordered; the auditor polices what a too-tight choice
  // actually breaks.
  if (config.router.flow_control == FlowControl::kOnOff &&
      config.router.buffer_model == BufferModel::kFinite) {
    RouterConfig& rc = config_.router;
    const std::uint32_t headroom =
        static_cast<std::uint32_t>(3 * config.link_latency - 2);
    if (rc.on_high == 0)
      rc.on_high =
          rc.buffer_depth > headroom ? rc.buffer_depth - headroom : 1;
    if (rc.on_low == 0) rc.on_low = (rc.on_high + 1) / 2;
    WS_CHECK_MSG(rc.on_low >= 1 && rc.on_low <= rc.on_high &&
                     rc.on_high <= rc.buffer_depth,
                 "on/off watermarks must satisfy "
                 "1 <= on_low <= on_high <= buffer_depth");
  }
  // In on/off mode a link stall freezes the router pipelines as well:
  // with no credits to absorb the slip, a stalled channel asserts
  // backpressure straight into the output stage, and senders that kept
  // streaming would overflow the fixed watermark headroom the moment the
  // stall released its bunched-up flits.
  freeze_on_stall_ = config.router.flow_control == FlowControl::kOnOff &&
                     config.router.buffer_model == BufferModel::kFinite;
  routers_.reserve(topo_.num_nodes());
  for (std::uint32_t n = 0; n < topo_.num_nodes(); ++n)
    routers_.emplace_back(NodeId(n), config_.router);  // resolved watermarks
  nics_.resize(topo_.num_nodes());
  router_live_.resize(topo_.num_nodes(), 0);
  touched_flag_.resize(topo_.num_nodes(), 0);
  latency_by_source_.resize(topo_.num_nodes());

  // Sharding geometry.  One shard (the default, or anything clamped down
  // to one) keeps the serial kernel; the same per-shard counter arrays
  // back both paths so the bookkeeping code is shared.
  shard_ranges_ = make_shard_partition(topo_.num_nodes(), config.shards);
  const auto num_shards = static_cast<std::uint32_t>(shard_ranges_.size());
  shard_live_.assign(num_shards, 0);
  shard_nonempty_nics_.assign(num_shards, 0);
  shard_nic_backlog_.assign(num_shards, 0);
  shard_of_.resize(topo_.num_nodes());
  for (std::uint32_t s = 0; s < num_shards; ++s)
    for (std::uint32_t n = shard_ranges_[s].begin; n < shard_ranges_[s].end;
         ++n)
      shard_of_[n] = s;
  if (num_shards > 1) {
    lanes_ = std::vector<ShardLane>(num_shards);
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      lanes_[s].net_ = this;
      lanes_[s].shard_ = s;
    }
    team_ = std::make_unique<TickTeam>(std::min(config.threads, num_shards));
  }
}

void Network::inject(Cycle, const PacketDescriptor& packet) {
  WS_CHECK(packet.length > 0);
  WS_CHECK_MSG(packet.source.value() < topo_.num_endpoints() &&
                   packet.dest.value() < topo_.num_endpoints(),
               "packet source/dest must be fabric endpoints");
  Nic& nic = nics_[packet.source.index()];
  const std::uint32_t s = shard_of_[packet.source.index()];
  if (nic.queue.empty()) ++shard_nonempty_nics_[s];
  nic.queue.push_back(packet);
  shard_nic_backlog_[s] += packet.length;
  injected_flits_ += packet.length;
  ++injected_;
  // inject() runs between ticks (traffic sources fire before the
  // network), so the enqueue lands in the delta the next tick publishes.
  if (collect_delta_) delta_.enqueued_flits += packet.length;
}

void Network::refresh_delta_collection() {
  const bool want = observers_.any_wants_delta();
  if (collect_delta_ && !want) {
    for (const std::uint32_t n : delta_.touched) touched_flag_[n] = 0;
    delta_.clear();
  }
  collect_delta_ = want;
}

void Network::mark_live(std::size_t index) {
  if (router_live_[index]) return;
  router_live_[index] = 1;
  ++shard_live_[shard_of_[index]];
}

void Network::set_live(std::size_t index, bool live) {
  if (static_cast<bool>(router_live_[index]) == live) return;
  router_live_[index] = live ? 1 : 0;
  std::uint32_t& count = shard_live_[shard_of_[index]];
  live ? ++count : --count;
}

void Network::apply_wire_credit(const WireCredit& wc) {
  Router& rt = routers_[wc.to.index()];
  if (wc.kind == WireCredit::Kind::kCredit)
    rt.accept_credit(wc.out, wc.cls);
  else
    rt.accept_signal(wc.out, wc.cls, wc.kind == WireCredit::Kind::kOn);
}

void Network::send_flit(NodeId from, Direction out, const Flit& flit) {
  const NodeId to = topo_.neighbor(from, out);
  WS_CHECK_MSG(to.is_valid(), "flit sent off the edge of the fabric");
  flit_wire_.emplace_back(now_ + config_.link_latency, to,
                          topo_.peer_port(from, out),
                          static_cast<std::uint32_t>(flit.vc_class.value()),
                          flit);
  if (collect_delta_) {
    touch(from.index());
    delta_.flits_to_wire.push_back(CycleDelta::UnitEvent{
        delta_unit(from, out,
                   static_cast<std::uint32_t>(flit.vc_class.value())),
        from.value()});
  }
}

void Network::eject(NodeId node, const Flit& flit, Cycle now) {
  ++delivered_flits_;
  if (collect_delta_) {
    touch(node.index());
    delta_.ejections.push_back(node.value());
  }
  WS_CHECK_MSG(flit.dest == node, "flit ejected at the wrong node");
  const bool tail = is_tail(flit.type);
  double latency = 0.0;
  if (tail) {
    if (config_.record_delivered)
      delivered_.push_back(DeliveredPacket{flit.packet, flit.flow, flit.source,
                                           flit.dest, flit.index + 1,
                                           flit.created, now});
    const std::size_t fi = flit.flow.index();
    if (fi >= flow_delivered_flits_.size())
      flow_delivered_flits_.resize(fi + 1, 0);
    flow_delivered_flits_[fi] += flit.index + 1;
    ++delivered_packets_;
    latency = static_cast<double>(now - flit.created);
    latency_by_source_[flit.source.index()].add(latency);
    latency_overall_.add(latency);
    latency_quantiles_.add(latency);
  }
  if (trace_ != nullptr)
    trace_->record(obs::TraceEvent::flit_eject(now, node.value(),
                                               flit.flow.value(),
                                               flit.packet.value(), flit.index,
                                               tail, latency));
}

void Network::send_credit(NodeId node, Direction in, std::uint32_t cls) {
  const NodeId upstream = topo_.neighbor(node, in);
  WS_CHECK(upstream.is_valid());
  credit_wire_.push_back(WireCredit{now_ + config_.link_latency, upstream,
                                    topo_.peer_port(node, in), cls,
                                    WireCredit::Kind::kCredit});
  if (collect_delta_) {
    touch(node.index());
    delta_.credits_to_wire.push_back(
        CycleDelta::UnitEvent{delta_unit(node, in, cls), node.value()});
  }
}

void Network::send_signal(NodeId node, Direction in, std::uint32_t cls,
                          bool on) {
  const NodeId upstream = topo_.neighbor(node, in);
  WS_CHECK(upstream.is_valid());
  credit_wire_.push_back(
      WireCredit{now_ + config_.link_latency, upstream,
                 topo_.peer_port(node, in), cls,
                 on ? WireCredit::Kind::kOn : WireCredit::Kind::kOff});
  if (collect_delta_) {
    touch(node.index());
    delta_.credits_to_wire.push_back(
        CycleDelta::UnitEvent{delta_unit(node, in, cls), node.value()});
  }
}

RouteDecision Network::route(NodeId node, const Flit& flit, Direction in_from,
                             std::uint32_t in_class) {
  return topo_.route(node, flit.dest, in_from, in_class);
}

void Network::route_candidates(NodeId node, const Flit& flit,
                               Direction in_from, std::uint32_t in_class,
                               RouteCandidates& out) {
  if (config_.routing == NetworkConfig::Routing::kWestFirst) {
    topo_.west_first_candidates(node, flit.dest, in_from, in_class, out);
    return;
  }
  if (config_.routing == NetworkConfig::Routing::kUpDownAdaptive) {
    topo_.updown_candidates(node, flit.dest, in_from, in_class, out);
    return;
  }
  out.push_back(route(node, flit, in_from, in_class));
}

void Network::set_perf_counters(metrics::PerfCounters* counters) {
  perf_ = counters;
  for (Router& r : routers_) r.set_perf_counters(counters);
}

void Network::set_trace_sink(obs::TraceSink* sink) {
  trace_ = sink;
  for (Router& r : routers_) r.set_trace_sink(sink);
}

void Network::nic_inject_one(Cycle now, std::uint32_t n, CycleDelta& delta) {
  Nic& nic = nics_[n];
  Router& r = routers_[n];
  if (!r.can_accept_local(0)) return;
  const PacketDescriptor& pkt = nic.queue.front();
  Flit flit;
  flit.packet = pkt.id;
  flit.flow = pkt.flow;
  flit.source = pkt.source;
  flit.dest = pkt.dest;
  flit.vc_class = VcId(0);
  flit.index = nic.sent_of_current;
  flit.created = pkt.created;
  const bool head = nic.sent_of_current == 0;
  const bool tail = nic.sent_of_current + 1 == pkt.length;
  flit.type = head && tail  ? FlitType::kHeadTail
              : head        ? FlitType::kHead
              : tail        ? FlitType::kTail
                            : FlitType::kBody;
  r.accept_flit(Direction::kLocal, 0, flit);
  if (trace_ != nullptr)
    trace_->record(obs::TraceEvent::flit_inject(
        now, n, flit.flow.value(), flit.packet.value(), flit.index));
  mark_live(n);
  if (collect_delta_) {
    touch_into(delta, n);
    delta.injections.push_back(n);
  }
  const std::uint32_t s = shard_of_[n];
  --shard_nic_backlog_[s];
  if (tail) {
    (void)nic.queue.pop_front();
    nic.sent_of_current = 0;
    if (nic.queue.empty()) --shard_nonempty_nics_[s];
  } else {
    ++nic.sent_of_current;
  }
}

void Network::tick(Cycle now) {
  // Trace sinks and perf counters are single-threaded; their attachment
  // falls back to the serial kernel.  Results are bit-identical either
  // way, so a traced run still reproduces a sharded one exactly.
  if (shard_ranges_.size() > 1 && trace_ == nullptr && perf_ == nullptr)
    tick_sharded(now);
  else
    tick_serial(now);
}

void Network::tick_serial(Cycle now) {
  now_ = now;
  if (trace_ != nullptr) trace_->set_now(now);
  const FaultModel* faults = config_.faults;
  const bool stalled = faults != nullptr && faults->link_stalled(now);
  // Under on/off flow control a stalled link freezes the pipelines too
  // (see the ctor comment); signals still deliver, traffic still queues
  // at the NICs.
  const bool frozen = stalled && freeze_on_stall_;

  {
    metrics::ScopedStageTimer timer(perf_, metrics::Stage::kWireDelivery);

    // 0. Credits whose starvation window has elapsed re-enter the
    // protocol.
    while (!credit_quarantine_.empty() &&
           credit_quarantine_.front().arrive <= now) {
      const WireCredit wc = credit_quarantine_.pop_front();
      apply_wire_credit(wc);
      mark_live(wc.to.index());
      if (collect_delta_) {
        touch(wc.to.index());
        delta_.credits_from_wire.push_back(CycleDelta::UnitEvent{
            delta_unit(wc.to, wc.out, wc.cls), wc.to.value()});
      }
    }

    // 1. Wire delivery (constant latency -> FIFO order).  An arriving
    // flit or credit enrolls its destination router in the active set.  A
    // link stall pauses flit delivery for the cycle — the flits stay
    // queued, in order, and arrive late; nothing is ever dropped.
    if (!stalled) {
      while (!flit_wire_.empty() && flit_wire_.front().arrive <= now) {
        const WireFlit& wf = flit_wire_.front();
        routers_[wf.to.index()].accept_flit(wf.in, wf.cls, wf.flit);
        mark_live(wf.to.index());
        if (collect_delta_) {
          touch(wf.to.index());
          delta_.flits_from_wire.push_back(CycleDelta::UnitEvent{
              delta_unit(wf.to, wf.in, wf.cls), wf.to.value()});
        }
        flit_wire_.drop_front();
      }
    } else if (trace_ != nullptr && !flit_wire_.empty() &&
               flit_wire_.front().arrive <= now) {
      // Only stalls that actually delay a due flit are events; recording
      // every cycle of an idle-fabric stall window would just flood the
      // ring.
      trace_->record(obs::TraceEvent::fault_link_stall(now));
    }
    while (!credit_wire_.empty() && credit_wire_.front().arrive <= now) {
      const WireCredit wc = credit_wire_.pop_front();
      // On/off signals are exempt from the credit-hold fault: delaying
      // an "off" would break the watermark overshoot bound, turning a
      // liveness fault into a buffer-overflow correctness bug.  The
      // fault model is a pure hash of (cycle, node), so skipping the
      // query for signals leaves every credit's verdict unchanged.
      const Cycle hold =
          faults != nullptr && wc.kind == WireCredit::Kind::kCredit
              ? faults->credit_hold_cycles(now, wc.to)
              : 0;
      if (hold > 0) {
        WireCredit held = wc;
        held.arrive = now + hold;
        credit_quarantine_.push_back(held);
        if (trace_ != nullptr)
          trace_->record(
              obs::TraceEvent::fault_credit_hold(now, wc.to.value(), hold));
        continue;
      }
      apply_wire_credit(wc);
      mark_live(wc.to.index());
      if (collect_delta_) {
        touch(wc.to.index());
        delta_.credits_from_wire.push_back(CycleDelta::UnitEvent{
            delta_unit(wc.to, wc.out, wc.cls), wc.to.value()});
      }
    }
  }

  // 2. NIC injection: one flit per node per cycle into local VC class 0.
  // Only NICs holding backlog are visited; `remaining` cuts the scan off
  // once every nonempty NIC has been seen.
  if (!frozen && nic_backlog_flits() != 0) {
    metrics::ScopedStageTimer timer(perf_, metrics::Stage::kNicInject);
    std::uint32_t remaining = 0;
    for (const std::uint32_t c : shard_nonempty_nics_) remaining += c;
    for (std::uint32_t n = 0; remaining != 0 && n < nics_.size(); ++n) {
      if (nics_[n].queue.empty()) continue;
      --remaining;
      nic_inject_one(now, n, delta_);
    }
  }

  // 3. Router pipelines.  A drained router's tick is a no-op (nothing to
  // route, grant, charge or forward), so only active routers tick; the
  // ascending scan keeps side-effect order — and therefore every figure —
  // identical to the legacy full-fabric loop.  New work can only arrive
  // through the wires (link latency >= 1), never mid-scan.
  if (frozen) {
    // Stalled on/off cycle: no router ticks, no liveness changes.
  } else if (config_.dense_tick) {
    for (std::uint32_t n = 0; n < routers_.size(); ++n) {
      routers_[n].tick(now, *this);
      const bool live_now = !routers_[n].drained();
      // Every event site touches its router, so the only liveness change
      // an event does not already cover is this transition.
      if (collect_delta_ && static_cast<bool>(router_live_[n]) != live_now)
        touch(n);
      set_live(n, live_now);
    }
  } else if (live_router_count() != 0) {
    // Router ticks never enroll *other* routers mid-scan (new work only
    // travels via the wires), so the live count at loop entry bounds the
    // number of routers left to visit.
    std::uint32_t remaining = live_router_count();
    for (std::uint32_t n = 0; remaining != 0 && n < routers_.size(); ++n) {
      if (!router_live_[n]) continue;
      --remaining;
      routers_[n].tick(now, *this);
      if (routers_[n].drained()) {
        set_live(n, false);
        // The one liveness change with no event of its own: a credit can
        // wake an already-drained router, whose next tick is a no-op that
        // idles it again.  The drain itself enrolls it in the touched set.
        if (collect_delta_) touch(n);
      }
    }
  }

  // 4. Observers (auditor, probes) see the settled post-cycle state —
  // identical in the active-set and dense paths by construction — plus
  // this cycle's delta.  The delta is cleared after dispatch; its vectors
  // keep their capacity, so steady state allocates nothing.
  if (!observers_.empty()) {
    metrics::ScopedStageTimer timer(perf_, metrics::Stage::kObserver);
    observers_.on_cycle_end(now, *this, delta_);
    if (collect_delta_) {
      for (const std::uint32_t n : delta_.touched) touched_flag_[n] = 0;
      delta_.clear();
    }
  }
}

void Network::tick_sharded(Cycle now) {
  now_ = now;
  const FaultModel* faults = config_.faults;
  const bool stalled = faults != nullptr && faults->link_stalled(now);
  // link_stalled is a pure hash of (now), so every lane would reach the
  // same answer; computing it once here keeps the shard hot path cheap
  // and makes the freeze decision trivially serial-identical.
  frozen_this_cycle_ = stalled && freeze_on_stall_;
  const auto num_shards = static_cast<std::uint32_t>(shard_ranges_.size());

  // Phase 0 — classify (serial).  The global wires are popped in exactly
  // the serial order — every fault-model decision included — and each
  // arrival lands on the owning shard's delivery list.  The from-wire
  // delta events are recorded here, straight into the global delta, so
  // their order matches the serial kernel's event order exactly.  The
  // global FIFOs stay the single source of truth the audit accessors
  // expose; between ticks their contents are byte-identical to a serial
  // run's.
  while (!credit_quarantine_.empty() &&
         credit_quarantine_.front().arrive <= now) {
    const WireCredit wc = credit_quarantine_.pop_front();
    lanes_[shard_of_[wc.to.index()]].quarantine_due_.push_back(wc);
    if (collect_delta_) {
      touch(wc.to.index());
      delta_.credits_from_wire.push_back(CycleDelta::UnitEvent{
          delta_unit(wc.to, wc.out, wc.cls), wc.to.value()});
    }
  }
  if (!stalled) {
    while (!flit_wire_.empty() && flit_wire_.front().arrive <= now) {
      const WireFlit& wf = flit_wire_.front();
      lanes_[shard_of_[wf.to.index()]].flits_due_.push_back(wf);
      if (collect_delta_) {
        touch(wf.to.index());
        delta_.flits_from_wire.push_back(CycleDelta::UnitEvent{
            delta_unit(wf.to, wf.in, wf.cls), wf.to.value()});
      }
      flit_wire_.drop_front();
    }
  }
  while (!credit_wire_.empty() && credit_wire_.front().arrive <= now) {
    const WireCredit wc = credit_wire_.pop_front();
    // Signals skip the credit-hold fault; see tick_serial.
    const Cycle hold =
        faults != nullptr && wc.kind == WireCredit::Kind::kCredit
            ? faults->credit_hold_cycles(now, wc.to)
            : 0;
    if (hold > 0) {
      WireCredit held = wc;
      held.arrive = now + hold;
      credit_quarantine_.push_back(held);
      continue;
    }
    lanes_[shard_of_[wc.to.index()]].credits_due_.push_back(wc);
    if (collect_delta_) {
      touch(wc.to.index());
      delta_.credits_from_wire.push_back(CycleDelta::UnitEvent{
          delta_unit(wc.to, wc.out, wc.cls), wc.to.value()});
    }
  }

  // Phase 1 — compute (parallel).  Lane l handles shards l, l + lanes,
  // ...  Each shard's work touches only its own routers, NICs, counters,
  // and staging vectors; the barriers inside run() provide the
  // happens-before edges around the serial phases.
  const std::uint32_t nlanes = team_->lanes();
  team_->run([&](std::uint32_t lane) {
    for (std::uint32_t s = lane; s < num_shards; s += nlanes)
      compute_shard(now, s);
  });

  // Phase 2 — commit (serial).  Appending the staged sends shard-
  // ascending reproduces the serial FIFO contents byte for byte (see
  // shard.hpp for the argument).
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    ShardLane& lane = lanes_[s];
    for (const WireFlit& wf : lane.out_flits_) flit_wire_.push_back(wf);
    for (const WireCredit& wc : lane.out_credits_) credit_wire_.push_back(wc);
  }
  // Ejections replay through the serial eject path in shard-ascending
  // (= serial router) order: the delivered log, the latency RunningStats
  // (floating-point summation order included), and the ejection delta
  // events come out exactly as the serial kernel produces them.
  for (std::uint32_t s = 0; s < num_shards; ++s)
    for (const ShardLane::StagedEjection& e : lanes_[s].ejections_)
      eject(e.node, e.flit, now);
  // Merge the lane deltas (to-wire events, injections, touched) into the
  // global delta, shard-ascending — again the serial per-vector order.
  if (collect_delta_) {
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      const CycleDelta& d = lanes_[s].delta_;
      delta_.flits_to_wire.insert(delta_.flits_to_wire.end(),
                                  d.flits_to_wire.begin(),
                                  d.flits_to_wire.end());
      delta_.credits_to_wire.insert(delta_.credits_to_wire.end(),
                                    d.credits_to_wire.begin(),
                                    d.credits_to_wire.end());
      delta_.injections.insert(delta_.injections.end(), d.injections.begin(),
                               d.injections.end());
      delta_.touched.insert(delta_.touched.end(), d.touched.begin(),
                            d.touched.end());
    }
  }
  for (std::uint32_t s = 0; s < num_shards; ++s) lanes_[s].clear_cycle();

  // Observers run serially, after commit, against the settled state —
  // the same post-cycle snapshot and (up to benign per-vector grouping of
  // the touched list) the same delta a serial tick dispatches.
  if (!observers_.empty()) {
    observers_.on_cycle_end(now, *this, delta_);
    if (collect_delta_) {
      for (const std::uint32_t n : delta_.touched) touched_flag_[n] = 0;
      delta_.clear();
    }
  }
}

void Network::compute_shard(Cycle now, std::uint32_t s) {
  ShardLane& lane = lanes_[s];
  // Deliver this shard's arrivals in the serial sub-order: quarantine
  // releases first, then flits, then wire credits.  Per-router arrival
  // order is all that matters for bit-identity (routers only interact
  // via the wires), and it is preserved exactly.
  for (const WireCredit& wc : lane.quarantine_due_) {
    apply_wire_credit(wc);
    mark_live(wc.to.index());
  }
  for (const WireFlit& wf : lane.flits_due_) {
    routers_[wf.to.index()].accept_flit(wf.in, wf.cls, wf.flit);
    mark_live(wf.to.index());
  }
  for (const WireCredit& wc : lane.credits_due_) {
    apply_wire_credit(wc);
    mark_live(wc.to.index());
  }

  // Stalled on/off cycle: arrivals above still land (signals must keep
  // moving), but injection and the pipelines freeze — mirroring
  // tick_serial's gate exactly.
  if (frozen_this_cycle_) return;

  // NIC injection for this shard's nodes.  Wire flits never land on a
  // kLocal input, so each node's accept decision depends only on its own
  // router — the parallel scan makes the same choices as the serial one.
  const ShardRange range = shard_ranges_[s];
  if (shard_nic_backlog_[s] != 0) {
    std::uint32_t remaining = shard_nonempty_nics_[s];
    for (std::uint32_t n = range.begin; remaining != 0 && n < range.end; ++n) {
      if (nics_[n].queue.empty()) continue;
      --remaining;
      nic_inject_one(now, n, lane.delta_);
    }
  }

  // Router pipelines, ticked against the staging lane instead of the
  // network itself.
  if (config_.dense_tick) {
    for (std::uint32_t n = range.begin; n < range.end; ++n) {
      routers_[n].tick(now, lane);
      const bool live_now = !routers_[n].drained();
      if (collect_delta_ && static_cast<bool>(router_live_[n]) != live_now)
        touch_into(lane.delta_, n);
      set_live(n, live_now);
    }
  } else if (shard_live_[s] != 0) {
    std::uint32_t remaining = shard_live_[s];
    for (std::uint32_t n = range.begin; remaining != 0 && n < range.end; ++n) {
      if (!router_live_[n]) continue;
      --remaining;
      routers_[n].tick(now, lane);
      if (routers_[n].drained()) {
        set_live(n, false);
        if (collect_delta_) touch_into(lane.delta_, n);
      }
    }
  }
}

bool Network::idle() const {
  if (!flit_wire_.empty() || !credit_wire_.empty() ||
      !credit_quarantine_.empty())
    return false;
  for (const Flits f : shard_nic_backlog_)
    if (f != 0) return false;
  for (const std::uint32_t c : shard_live_)
    if (c != 0) return false;
  return true;
}

namespace {

void save_wire_flit(SnapshotWriter& w, const WireFlit& wf) {
  w.u64(wf.arrive);
  w.u32(wf.to.value());
  w.u8(static_cast<std::uint8_t>(wf.in));
  w.u32(wf.cls);
  save_flit(w, wf.flit);
}

WireFlit load_wire_flit(SnapshotReader& r, std::uint32_t num_nodes,
                        std::uint32_t num_vcs) {
  WireFlit wf;
  wf.arrive = r.u64();
  wf.to = NodeId(r.u32());
  const std::uint8_t in = r.u8();
  if (wf.to.value() >= num_nodes || in >= kNumDirections)
    throw SnapshotError("wire flit addresses a node or port off the fabric");
  wf.in = static_cast<Direction>(in);
  wf.cls = r.u32();
  if (wf.cls >= num_vcs)
    throw SnapshotError("wire flit names a VC class the fabric lacks");
  wf.flit = load_flit(r);
  return wf;
}

void save_wire_credit(SnapshotWriter& w, const WireCredit& wc) {
  w.u64(wc.arrive);
  w.u32(wc.to.value());
  w.u8(static_cast<std::uint8_t>(wc.out));
  w.u32(wc.cls);
  w.u8(static_cast<std::uint8_t>(wc.kind));
}

WireCredit load_wire_credit(SnapshotReader& r, std::uint32_t num_nodes,
                            std::uint32_t num_vcs) {
  WireCredit wc;
  wc.arrive = r.u64();
  wc.to = NodeId(r.u32());
  const std::uint8_t out = r.u8();
  if (wc.to.value() >= num_nodes || out >= kNumDirections)
    throw SnapshotError("wire credit addresses a node or port off the fabric");
  wc.out = static_cast<Direction>(out);
  wc.cls = r.u32();
  if (wc.cls >= num_vcs)
    throw SnapshotError("wire credit names a VC class the fabric lacks");
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(WireCredit::Kind::kOn))
    throw SnapshotError("wire credit has an unknown kind");
  wc.kind = static_cast<WireCredit::Kind>(kind);
  return wc;
}

}  // namespace

void Network::save_state(SnapshotWriter& w) const {
  // Geometry fingerprint, checked on restore.  Sharding (shards/threads)
  // is deliberately absent: it never changes results, so a snapshot is
  // free to restore under a different thread count.
  w.u8(static_cast<std::uint8_t>(config_.topo.kind));
  w.u32(config_.topo.width);
  w.u32(config_.topo.height);
  w.u32(config_.router.num_vcs);
  w.u32(config_.router.buffer_depth);
  w.str(config_.router.arbiter);
  w.u64(config_.link_latency);
  w.u8(static_cast<std::uint8_t>(config_.routing));
  w.u8(static_cast<std::uint8_t>(config_.router.flow_control));
  w.u8(static_cast<std::uint8_t>(config_.router.buffer_model));
  // Watermarks are saved post-resolution (the ctor replaced the 0 = auto
  // sentinels), so resolved state compares against resolved state.
  w.u32(config_.router.on_high);
  w.u32(config_.router.on_low);

  w.u64(now_);
  w.u64(injected_);
  w.u64(delivered_packets_);
  w.u64(delivered_flits_);
  w.i64(injected_flits_);

  w.u64(nics_.size());
  for (const Nic& nic : nics_) {
    save_sequence(w, nic.queue, [](SnapshotWriter& o,
                                   const PacketDescriptor& p) {
      save_packet_descriptor(o, p);
    });
    w.i64(nic.sent_of_current);
  }

  save_sequence(w, flit_wire_, save_wire_flit);
  save_sequence(w, credit_wire_, save_wire_credit);
  save_sequence(w, credit_quarantine_, save_wire_credit);

  w.u64(latency_by_source_.size());
  for (const RunningStat& s : latency_by_source_) s.save(w);
  latency_overall_.save(w);
  latency_quantiles_.save(w);

  w.u64(router_live_.size());
  for (const std::uint8_t live : router_live_) w.b(live != 0);
  for (const Router& router : routers_) router.save_state(w);
}

void Network::restore_state(SnapshotReader& r) {
  const auto kind = static_cast<TopologySpec::Kind>(r.u8());
  const std::uint32_t width = r.u32();
  const std::uint32_t height = r.u32();
  const std::uint32_t num_vcs = r.u32();
  const std::uint32_t buffer_depth = r.u32();
  const std::string arbiter = r.str();
  const Cycle link_latency = r.u64();
  const auto routing = static_cast<NetworkConfig::Routing>(r.u8());
  if (kind != config_.topo.kind || width != config_.topo.width ||
      height != config_.topo.height)
    throw SnapshotError("snapshot topology does not match this network");
  if (num_vcs != config_.router.num_vcs ||
      buffer_depth != config_.router.buffer_depth ||
      arbiter != config_.router.arbiter)
    throw SnapshotError("snapshot router config does not match this network");
  if (link_latency != config_.link_latency || routing != config_.routing)
    throw SnapshotError("snapshot link/routing config does not match this "
                        "network");
  const auto flow_control = static_cast<FlowControl>(r.u8());
  const auto buffer_model = static_cast<BufferModel>(r.u8());
  const std::uint32_t on_high = r.u32();
  const std::uint32_t on_low = r.u32();
  if (flow_control != config_.router.flow_control ||
      buffer_model != config_.router.buffer_model ||
      on_high != config_.router.on_high || on_low != config_.router.on_low)
    throw SnapshotError("snapshot flow-control config does not match this "
                        "network");

  now_ = r.u64();
  injected_ = r.u64();
  delivered_packets_ = r.u64();
  delivered_flits_ = r.u64();
  injected_flits_ = r.i64();

  if (r.u64() != nics_.size())
    throw SnapshotError("snapshot NIC count does not match this network");
  const auto num_shards = static_cast<std::uint32_t>(shard_ranges_.size());
  shard_nonempty_nics_.assign(num_shards, 0);
  shard_nic_backlog_.assign(num_shards, 0);
  for (std::size_t n = 0; n < nics_.size(); ++n) {
    Nic& nic = nics_[n];
    restore_sequence(r, nic.queue, [](SnapshotReader& i) {
      return load_packet_descriptor(i);
    });
    nic.sent_of_current = r.i64();
    if (!nic.queue.empty() &&
        (nic.sent_of_current < 0 ||
         nic.sent_of_current >= nic.queue.front().length))
      throw SnapshotError("NIC mid-packet cursor is outside its packet");
    // Per-shard injection bookkeeping is derived state: recompute it so
    // the shard geometry of the restoring network (which may differ from
    // the saving one) gets consistent counters.
    const std::uint32_t s = shard_of_[n];
    if (!nic.queue.empty()) ++shard_nonempty_nics_[s];
    Flits backlog = -nic.sent_of_current;
    for (std::size_t i = 0; i < nic.queue.size(); ++i) {
      const PacketDescriptor& p = nic.queue[i];
      if (p.length <= 0) throw SnapshotError("queued packet has no flits");
      backlog += p.length;
    }
    shard_nic_backlog_[s] += backlog;
  }

  const std::uint32_t nodes = topo_.num_nodes();
  const std::uint32_t vcs = config_.router.num_vcs;
  restore_sequence(r, flit_wire_, [nodes, vcs](SnapshotReader& i) {
    return load_wire_flit(i, nodes, vcs);
  });
  restore_sequence(r, credit_wire_, [nodes, vcs](SnapshotReader& i) {
    return load_wire_credit(i, nodes, vcs);
  });
  restore_sequence(r, credit_quarantine_, [nodes, vcs](SnapshotReader& i) {
    return load_wire_credit(i, nodes, vcs);
  });

  if (r.u64() != latency_by_source_.size())
    throw SnapshotError("snapshot source count does not match this network");
  for (RunningStat& s : latency_by_source_) s.restore(r);
  latency_overall_.restore(r);
  latency_quantiles_.restore(r);

  if (r.u64() != router_live_.size())
    throw SnapshotError("snapshot router count does not match this network");
  shard_live_.assign(num_shards, 0);
  for (std::size_t n = 0; n < router_live_.size(); ++n) {
    const bool live = r.b();
    router_live_[n] = live ? 1 : 0;
    if (live) ++shard_live_[shard_of_[n]];
  }
  for (Router& router : routers_) router.restore_state(r);
}

std::vector<Flits> Network::delivered_flits_by_flow(
    std::size_t num_flows) const {
  WS_CHECK(flow_delivered_flits_.size() <= num_flows);
  std::vector<Flits> counts(num_flows, 0);
  std::copy(flow_delivered_flits_.begin(), flow_delivered_flits_.end(),
            counts.begin());
  return counts;
}

}  // namespace wormsched::wormhole
