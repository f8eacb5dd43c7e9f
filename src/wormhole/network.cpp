#include "wormhole/network.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"
#include "common/archive.hpp"
#include "wormhole/flit_snapshot.hpp"

namespace wormsched::wormhole {

namespace {

// Resolves the on/off auto watermarks (0) the way the routers are built.
// An "off" emitted at occupancy on_high takes link_latency (L) cycles to
// arrive, during which the sender streams L - 1 more flits on top of the
// L already in flight (2L - 1 of headroom).  A link-stall fault can
// additionally bunch up to L spaced arrivals into one delivery burst that
// jumps occupancy past on_high before the off fires, so the auto
// watermark reserves 3L - 2 slots — overflow-proof even under faults (for
// L = 1 the two bounds coincide).  Explicit watermarks are only required
// to be ordered; the auditor polices what a too-tight choice actually
// breaks.
RouterConfig resolve_watermarks(const NetworkConfig& config) {
  RouterConfig rc = config.router;
  if (rc.flow_control != FlowControl::kOnOff ||
      rc.buffer_model != BufferModel::kFinite)
    return rc;
  const std::uint32_t headroom = 3 * config.link_latency - 2;
  if (rc.on_high == 0)
    rc.on_high = rc.buffer_depth > headroom ? rc.buffer_depth - headroom : 1;
  if (rc.on_low == 0) rc.on_low = (rc.on_high + 1) / 2;
  return rc;
}

}  // namespace

std::optional<ConfigError> check_config(const NetworkConfig& config) {
  using Kind = TopologySpec::Kind;
  using Routing = NetworkConfig::Routing;
  const Kind kind = config.topo.kind;
  const auto fail = [](const char* option, std::string message) {
    return std::optional<ConfigError>({option, std::move(message)});
  };
  if (config.link_latency < 1) return fail("link-latency", "must be >= 1");
  if (config.threads < 1) return fail("threads", "must be >= 1");
  if (config.shards < 1) return fail("shards", "must be >= 1");
  if (auto error = check_router_config(resolve_watermarks(config)))
    return error;
  if (make_arbiter(config.router.arbiter, 1) == nullptr)
    return fail("arbiter", "'" + config.router.arbiter +
                               "' is not one of err-cycles|err-flits|rr|fcfs");
  if (kind == Kind::kTorus && config.router.num_vcs < 2)
    return fail("vcs", "torus requires >= 2 VC classes (dateline rule)");
  if (kind == Kind::kTorus && config.routing != Routing::kDor)
    return fail("routing", "torus supports deterministic DOR routing only");
  if (config.routing == Routing::kWestFirst && kind != Kind::kMesh)
    return fail("routing", "west-first routing is mesh-only");
  if (config.routing == Routing::kUpDownAdaptive && kind != Kind::kFatTree)
    return fail("routing", "up/down adaptive routing is fat-tree-only");
  return std::nullopt;
}

Network::Network(const NetworkConfig& config)
    : config_(config), topo_(config.topo) {
  if (const auto error = check_config(config))
    WS_CHECK_MSG(false, (error->option + ": " + error->message).c_str());
  config_.router = resolve_watermarks(config);
  // In on/off mode a link stall freezes the router pipelines as well:
  // with no credits to absorb the slip, a stalled channel asserts
  // backpressure straight into the output stage, and senders that kept
  // streaming would overflow the fixed watermark headroom the moment the
  // stall released its bunched-up flits.
  freeze_on_stall_ = config.router.flow_control == FlowControl::kOnOff &&
                     config.router.buffer_model == BufferModel::kFinite;
  routers_.reserve(topo_.num_nodes());
  for (std::uint32_t n = 0; n < topo_.num_nodes(); ++n)
    routers_.emplace_back(NodeId(n), config_.router,  // resolved watermarks
                          topo_.num_nodes());
  nics_.resize(topo_.num_nodes());
  touched_flag_.resize(topo_.num_nodes(), 0);
  latency_by_source_.resize(topo_.num_nodes());

  // Sharding geometry.  Every shard has its counters and a lane; the
  // worker team exists only with more than one shard (one shard, the
  // default or anything clamped down to one, always ticks on the caller
  // thread).
  shard_ranges_ = make_shard_partition(topo_.num_nodes(), config.shards);
  const auto num_shards = static_cast<std::uint32_t>(shard_ranges_.size());
  shard_live_.assign(num_shards, 0);
  shard_nonempty_nics_.assign(num_shards, 0);
  shard_nic_backlog_.assign(num_shards, 0);
  shard_of_.resize(topo_.num_nodes());
  live_bit_.resize(topo_.num_nodes());
  shard_words_.resize(num_shards);
  std::uint32_t words = 0;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const ShardRange& range = shard_ranges_[s];
    shard_words_[s] = words;
    for (std::uint32_t n = range.begin; n < range.end; ++n) {
      shard_of_[n] = s;
      live_bit_[n] = words * 64 + (n - range.begin);
    }
    words += (range.end - range.begin + 63) / 64;
  }
  live_words_.assign(words, 0);
  lanes_ = std::vector<ShardLane>(num_shards);
  for (ShardLane& lane : lanes_) lane.net_ = this;
  if (num_shards > 1)
    team_ = std::make_unique<TickTeam>(std::min(config.threads, num_shards));
}

void Network::inject(Cycle, const PacketDescriptor& packet) {
  WS_CHECK(packet.length > 0 && packet.length <= kMaxPacketFlits);
  WS_CHECK_MSG(packet.source.value() < topo_.num_endpoints() &&
                   packet.dest.value() < topo_.num_endpoints(),
               "packet source/dest must be fabric endpoints");
  Nic& nic = nics_[packet.source.index()];
  const std::uint32_t s = shard_of_[packet.source.index()];
  if (nic.queue.empty()) ++shard_nonempty_nics_[s];
  nic.queue.push_back(packets_.add(packet));
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

template <class Wire>
void Network::put_flit(Wire& wire, CycleDelta& delta, NodeId from,
                       Direction out, const Flit& flit) {
  const NodeId to = topo_.neighbor(from, out);
  WS_CHECK_MSG(to.is_valid(), "flit sent off the edge of the fabric");
  const std::uint32_t cls = flit.vc_class;
  wire.emplace_back(now_ + config_.link_latency, to,
                    topo_.peer_port(from, out), cls, flit);
  if (collect_delta_) note(delta, delta.flits_to_wire, from, out, cls);
}

template <class Wire>
void Network::put_credit(Wire& wire, CycleDelta& delta, NodeId node,
                         Direction in, std::uint32_t cls,
                         WireCredit::Kind kind) {
  const NodeId upstream = topo_.neighbor(node, in);
  WS_CHECK(upstream.is_valid());
  wire.push_back(WireCredit{now_ + config_.link_latency, upstream,
                            topo_.peer_port(node, in), cls, kind});
  if (collect_delta_) note(delta, delta.credits_to_wire, node, in, cls);
}

void Network::send_flit(NodeId from, Direction out, const Flit& flit) {
  put_flit(flit_wire_, delta_, from, out, flit);
}

void Network::eject(NodeId node, const Flit& flit, Cycle now) {
  ++delivered_flits_;
  if (collect_delta_) {
    touch_into(delta_, node.index());
    delta_.ejections.push_back(node.value());
  }
  const PacketDescriptor& p = packets_[flit.slot];
  WS_CHECK_MSG(p.dest == node, "flit ejected at the wrong node");
  const bool tail = is_tail(flit.type);
  double latency = 0.0;
  if (tail) {
    const Flits length = Flits{flit.index} + 1;
    if (config_.record_delivered)
      delivered_.push_back(DeliveredPacket{p.id, p.flow, p.source, p.dest,
                                           length, p.created, now});
    const std::size_t fi = p.flow.index();
    if (fi >= flow_delivered_flits_.size())
      flow_delivered_flits_.resize(fi + 1, 0);
    flow_delivered_flits_[fi] += length;
    ++delivered_packets_;
    latency = static_cast<double>(now - p.created);
    latency_by_source_[p.source.index()].add(latency);
    latency_overall_.add(latency);
    latency_quantiles_.add(latency);
  }
  if (trace_ != nullptr)
    trace_->record(obs::TraceEvent::flit_eject(now, node.value(),
                                               p.flow.value(), p.id.value(),
                                               flit.index, tail, latency));
  // The tail is the packet's last flit anywhere: its slot is free again.
  if (tail) packets_.release(flit.slot);
}

void Network::send_credit(NodeId node, Direction in, std::uint32_t cls) {
  put_credit(credit_wire_, delta_, node, in, cls, WireCredit::Kind::kCredit);
}

void Network::send_signal(NodeId node, Direction in, std::uint32_t cls,
                          bool on) {
  put_credit(credit_wire_, delta_, node, in, cls,
             on ? WireCredit::Kind::kOn : WireCredit::Kind::kOff);
}

RouteDecision Network::route(NodeId node, const Flit& flit, Direction in_from,
                             std::uint32_t in_class) {
  return topo_.route(node, packets_[flit.slot].dest, in_from, in_class);
}

void Network::route_candidates(NodeId node, const Flit& flit,
                               Direction in_from, std::uint32_t in_class,
                               RouteCandidates& out) {
  const NodeId dest = packets_[flit.slot].dest;
  if (config_.routing == NetworkConfig::Routing::kWestFirst) {
    topo_.west_first_candidates(node, dest, in_from, in_class, out);
    return;
  }
  if (config_.routing == NetworkConfig::Routing::kUpDownAdaptive) {
    topo_.updown_candidates(node, dest, in_from, in_class, out);
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
  const PacketDescriptor& pkt = packets_[nic.queue.front()];
  Flit flit;
  flit.slot = nic.queue.front();
  flit.index = static_cast<std::uint32_t>(nic.sent_of_current);
  flit.vc_class = 0;
  const bool head = nic.sent_of_current == 0;
  const bool tail = nic.sent_of_current + 1 == pkt.length;
  flit.type = head && tail  ? FlitType::kHeadTail
              : head        ? FlitType::kHead
              : tail        ? FlitType::kTail
                            : FlitType::kBody;
  r.accept_flit(Direction::kLocal, 0, flit);
  if (trace_ != nullptr)
    trace_->record(obs::TraceEvent::flit_inject(now, n, pkt.flow.value(),
                                                pkt.id.value(), flit.index));
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
  now_ = now;
  if (trace_ != nullptr) trace_->set_now(now);
  const FaultModel* faults = config_.faults;
  const bool stalled = faults != nullptr && faults->link_stalled(now);
  // Under on/off flow control a stalled link freezes the pipelines too
  // (see the ctor comment); signals still deliver, traffic still queues
  // at the NICs.
  const bool frozen = stalled && freeze_on_stall_;
  // Trace sinks and perf counters are single-threaded: attaching either
  // runs the cycle on the caller thread.  Results are bit-identical
  // either way, so a traced run still reproduces a sharded one exactly.
  const bool lanes_run =
      team_ != nullptr && trace_ == nullptr && perf_ == nullptr;

  // 1. Wire delivery (constant latency -> FIFO order), always serial, so
  // every fault decision, trace event and from-wire delta event comes out
  // in one order.  Each due entry goes straight to its router, or, when
  // the lanes run, onto its shard's delivery list.  The global wires stay
  // the single source of truth the audit accessors expose.
  {
    metrics::ScopedStageTimer timer(perf_, metrics::Stage::kWireDelivery);

    // Credits whose starvation window has elapsed re-enter the protocol.
    while (!credit_quarantine_.empty() &&
           credit_quarantine_.front().arrive <= now) {
      const WireCredit wc = credit_quarantine_.pop_front();
      if (lanes_run)
        lanes_[shard_of_[wc.to.index()]].quarantine_due_.push_back(wc);
      else
        deliver(wc);
      if (collect_delta_)
        note(delta_, delta_.credits_from_wire, wc.to, wc.out, wc.cls);
    }

    // A link stall pauses flit delivery for the cycle — the flits stay
    // queued, in order, and arrive late; nothing is ever dropped.
    if (!stalled) {
      while (!flit_wire_.empty() && flit_wire_.front().arrive <= now) {
        const WireFlit& wf = flit_wire_.front();
        if (lanes_run)
          lanes_[shard_of_[wf.to.index()]].flits_due_.push_back(wf);
        else
          deliver(wf);
        if (collect_delta_)
          note(delta_, delta_.flits_from_wire, wf.to, wf.in, wf.cls);
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
      if (lanes_run)
        lanes_[shard_of_[wc.to.index()]].credits_due_.push_back(wc);
      else
        deliver(wc);
      if (collect_delta_)
        note(delta_, delta_.credits_from_wire, wc.to, wc.out, wc.cls);
    }
  }

  // 2. NIC injection and the router pipelines, by shard range: once over
  // every shard against the network itself, or per shard on the lanes
  // (lane l takes shards l, l + lanes, ...) against the shard's lane.
  const std::uint32_t num_shards = shard_count();
  if (!lanes_run) {
    step(now, frozen, 0, num_shards, *this, delta_);
  } else {
    const std::uint32_t nlanes = team_->lanes();
    team_->run([&](std::uint32_t lane) {
      for (std::uint32_t s = lane; s < num_shards; s += nlanes)
        step(now, frozen, s, s + 1, lanes_[s], lanes_[s].delta_);
    });

    // 3. Commit (serial).  Appending the staged sends shard-ascending
    // reproduces the caller thread's FIFO contents byte for byte (see
    // shard.hpp for the argument).
    for (const ShardLane& lane : lanes_) {
      for (const WireFlit& wf : lane.out_flits_) flit_wire_.push_back(wf);
      for (const WireCredit& wc : lane.out_credits_) credit_wire_.push_back(wc);
    }
    // Ejections replay through the network's eject path in
    // shard-ascending (= router) order: the delivered log, the latency
    // RunningStats (floating-point summation order included), and the
    // ejection delta events come out exactly as on the caller thread.
    for (const ShardLane& lane : lanes_)
      for (const ShardLane::StagedEjection& e : lane.ejections_)
        eject(e.node, e.flit, now);
    // Merge the lane deltas (to-wire events, injections, touched) into the
    // global delta, shard-ascending — again the caller thread's
    // per-vector order.
    if (collect_delta_) {
      for (const ShardLane& lane : lanes_) {
        const CycleDelta& d = lane.delta_;
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
    for (ShardLane& lane : lanes_) lane.clear_cycle();
  }

  // 4. Observers (auditor, probes) see the settled post-cycle state —
  // identical in every path by construction — plus this cycle's delta
  // (equal up to the benign per-vector grouping of the touched list).
  // The delta is cleared after dispatch; its vectors keep their capacity,
  // so steady state allocates nothing.
  if (!observers_.empty()) {
    metrics::ScopedStageTimer timer(perf_, metrics::Stage::kObserver);
    observers_.on_cycle_end(now, *this, delta_);
    if (collect_delta_) {
      for (const std::uint32_t n : delta_.touched) touched_flag_[n] = 0;
      delta_.clear();
    }
  }
}

template <class Env>
void Network::step(Cycle now, bool frozen, std::uint32_t first,
                   std::uint32_t last, Env& env, CycleDelta& delta) {
  // Arrivals staged for these shards, in the pop loop's sub-order:
  // quarantine releases, then flits, then wire credits.  Per-router
  // arrival order is all bit-identity needs (routers interact only via
  // the wires), and it is kept exactly.
  for (std::uint32_t s = first; s < last; ++s) {
    const ShardLane& lane = lanes_[s];
    for (const WireCredit& wc : lane.quarantine_due_) deliver(wc);
    for (const WireFlit& wf : lane.flits_due_) deliver(wf);
    for (const WireCredit& wc : lane.credits_due_) deliver(wc);
  }
  // Stalled on/off cycle: arrivals still land (signals must keep moving),
  // but injection and the pipelines freeze, with no liveness changes.
  if (frozen) return;
  const std::uint32_t begin = shard_ranges_[first].begin;
  const std::uint32_t end = shard_ranges_[last - 1].end;

  // NIC injection: one flit per node per cycle into local VC class 0.
  // Only NICs holding backlog are visited; `remaining` cuts the scan off
  // once every nonempty NIC has been seen.  Wire flits never land on a
  // kLocal input, so each node's accept decision depends only on its own
  // router, whatever the range.
  std::uint32_t remaining = 0;
  for (std::uint32_t s = first; s < last; ++s)
    remaining += shard_nonempty_nics_[s];
  if (remaining != 0) {
    metrics::ScopedStageTimer timer(perf_, metrics::Stage::kNicInject);
    for (std::uint32_t n = begin; remaining != 0 && n < end; ++n) {
      if (nics_[n].queue.empty()) continue;
      --remaining;
      nic_inject_one(now, n, delta);
    }
  }

  // Router pipelines.  A drained router's tick is a no-op (nothing to
  // route, grant, charge or forward), so only active routers tick, in
  // ascending order: the set bits of each shard's live words.  New work
  // can only arrive through the wires (link latency >= 1), never
  // mid-scan, and router ticks never enroll *other* routers, so a word
  // read once covers its routers for the cycle.
  for (std::uint32_t s = first; s < last; ++s) {
    if (shard_live_[s] == 0) continue;
    const std::uint32_t shard_begin = shard_ranges_[s].begin;
    const std::uint32_t words =
        (shard_ranges_[s].end - shard_begin + 63) / 64;
    for (std::uint32_t w = 0; w < words; ++w) {
      std::uint64_t& word = live_words_[shard_words_[s] + w];
      for (std::uint64_t m = word; m != 0; m &= m - 1) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(m));
        const std::uint32_t n = shard_begin + w * 64 + b;
        Router& r = routers_[n];
        r.tick(now, env);
        if (!r.drained()) continue;
        word &= ~(std::uint64_t{1} << b);
        --shard_live_[s];
        // The one liveness change with no event of its own: a credit can
        // wake an already-drained router, whose next tick is a no-op that
        // idles it again.  The drain itself enrolls it in the touched set.
        if (collect_delta_) touch_into(delta, n);
      }
    }
  }
}

// ShardLane: the env a shard's routers tick against on the lanes.
// Sends stage through the network's own wire-record helpers; routing is
// const and stateless, so the network's oracle serves every lane.

void ShardLane::send_flit(NodeId from, Direction out, const Flit& flit) {
  net_->put_flit(out_flits_, delta_, from, out, flit);
}

void ShardLane::eject(NodeId node, const Flit& flit, Cycle) {
  // Staged whole: the delivered log, the latency stats (whose
  // floating-point summation order must match the caller thread's), and
  // the ejection delta all happen at commit, in router order.
  ejections_.push_back(StagedEjection{node, flit});
}

void ShardLane::send_credit(NodeId node, Direction in, std::uint32_t cls) {
  net_->put_credit(out_credits_, delta_, node, in, cls,
                   WireCredit::Kind::kCredit);
}

void ShardLane::send_signal(NodeId node, Direction in, std::uint32_t cls,
                            bool on) {
  net_->put_credit(out_credits_, delta_, node, in, cls,
                   on ? WireCredit::Kind::kOn : WireCredit::Kind::kOff);
}

RouteDecision ShardLane::route(NodeId node, const Flit& flit,
                               Direction in_from, std::uint32_t in_class) {
  return net_->route(node, flit, in_from, in_class);
}

void ShardLane::route_candidates(NodeId node, const Flit& flit,
                                 Direction in_from, std::uint32_t in_class,
                                 RouteCandidates& out) {
  net_->route_candidates(node, flit, in_from, in_class, out);
}

void ShardLane::clear_cycle() {
  quarantine_due_.clear();
  flits_due_.clear();
  credits_due_.clear();
  out_flits_.clear();
  out_credits_.clear();
  ejections_.clear();
  delta_.clear();
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

void Network::fields(Archive& a) {
  // Geometry fingerprint.  Sharding (shards/threads) is deliberately
  // absent: it never changes results, so a snapshot is free to restore
  // under a different thread count.  Watermarks are the resolved ones
  // (the ctor replaced the 0 = auto sentinels).
  a.fingerprint("topology", config_.topo.kind);
  a.fingerprint("width", config_.topo.width);
  a.fingerprint("height", config_.topo.height);
  a.fingerprint("num_vcs", config_.router.num_vcs);
  a.fingerprint("buffer_depth", config_.router.buffer_depth);
  a.fingerprint("arbiter", config_.router.arbiter);
  a.fingerprint<std::uint64_t>("link_latency", config_.link_latency);
  a.fingerprint("routing", config_.routing);
  a.fingerprint("flow_control", config_.router.flow_control);
  a.fingerprint("buffer_model", config_.router.buffer_model);
  a.fingerprint("on_high", config_.router.on_high);
  a.fingerprint("on_low", config_.router.on_low);

  a.u64("now", now_);
  a.u64("injected", injected_);
  a.u64("delivered_packets", delivered_packets_);
  a.u64("delivered_flits", delivered_flits_);
  a.i64("injected_flits", injected_flits_);

  // Packets are written where the v2 format has them, field by field: in
  // the NIC queues and in every flit record.  A restore files them in the
  // packet table again (PacketTable::restore_flit).
  const auto nodes = below(topo_.num_nodes());
  if (a.loading()) packets_.clear();
  a.table("nics", nics_, [this, &a, nodes](Nic& nic) {
    a.seq("queue", nic.queue, [this, &a, nodes](PacketSlot& slot) {
      PacketDescriptor p = a.saving() ? packets_[slot] : PacketDescriptor{};
      packet_fields(a, p, nodes);
      if (a.loading()) slot = packets_.add(p);
    });
    a.i64("sent_of_current", nic.sent_of_current);
    if (!a.loading()) return;
    // Part-way through the head packet, or 0 with nothing queued.
    if (nic.queue.empty() ? nic.sent_of_current != 0
                          : nic.sent_of_current < 0 ||
                                nic.sent_of_current >=
                                    packets_[nic.queue.front()].length)
      a.fail("sent_of_current", "is outside its packet");
    if (nic.sent_of_current > 0)
      packets_.restore_sending(a, nic.queue.front(), nic.sent_of_current);
  });

  const auto vcs = below(config_.router.num_vcs);
  const FlitContext flits{packets_, nodes, vcs};
  const auto last_direction = static_cast<Direction>(kNumDirections - 1);
  a.seq("flit_wire", flit_wire_, [&](WireFlit& wf) {
    a.u64("arrive", wf.arrive);
    a.id("to", wf.to, nodes);
    a.enumeration<std::uint8_t>("in", wf.in, last_direction);
    a.u32("cls", wf.cls, vcs);
    const Archive::Scope s = a.scope("flit");
    flit_fields(a, wf.flit, flits);
  });
  const auto credit = [&](WireCredit& wc) {
    a.u64("arrive", wc.arrive);
    a.id("to", wc.to, nodes);
    a.enumeration<std::uint8_t>("out", wc.out, last_direction);
    a.u32("cls", wc.cls, vcs);
    a.enumeration<std::uint8_t>("kind", wc.kind, WireCredit::Kind::kOn);
  };
  a.seq("credit_wire", credit_wire_, credit);
  a.seq("credit_quarantine", credit_quarantine_, credit);

  a.table("latency_by_source", latency_by_source_,
          [&a](RunningStat& s) { s.fields(a); });
  {
    const Archive::Scope s = a.scope("latency_overall");
    latency_overall_.fields(a);
  }
  {
    const Archive::Scope s = a.scope("latency_quantiles");
    latency_quantiles_.fields(a);
  }
  // The live set, one bool per router (what Archive::table writes).
  {
    const Archive::Scope s = a.scope("router_live");
    a.fingerprint<std::uint64_t>("count", routers_.size());
  }
  for (std::uint32_t n = 0; n < routers_.size(); ++n) {
    const Archive::Scope s = a.scope("router_live", n);
    bool live = router_live(NodeId(n));
    a.b("", live);
    if (!a.loading()) continue;
    const std::uint32_t at = live_bit_[n];
    const std::uint64_t b = std::uint64_t{1} << (at & 63);
    if (live)
      live_words_[at >> 6] |= b;
    else
      live_words_[at >> 6] &= ~b;
  }
  a.each("routers", routers_,
         [this, &a](Router& router) { router.fields(a, packets_); });
  if (!a.loading()) return;
  packets_.finish_restore();
  rebuild_shard_counters();
}

void Network::rebuild_shard_counters() {
  // Per-shard injection and liveness bookkeeping is derived state:
  // recomputed so the shard geometry of the restoring network (which may
  // differ from the saving one) gets consistent counters.
  const auto num_shards = static_cast<std::uint32_t>(shard_ranges_.size());
  shard_nonempty_nics_.assign(num_shards, 0);
  shard_nic_backlog_.assign(num_shards, 0);
  shard_live_.assign(num_shards, 0);
  for (std::size_t n = 0; n < nics_.size(); ++n) {
    const Nic& nic = nics_[n];
    const std::uint32_t s = shard_of_[n];
    if (!nic.queue.empty()) ++shard_nonempty_nics_[s];
    Flits backlog = -nic.sent_of_current;
    for (std::size_t i = 0; i < nic.queue.size(); ++i)
      backlog += packets_[nic.queue[i]].length;
    shard_nic_backlog_[s] += backlog;
    if (router_live(NodeId(static_cast<std::uint32_t>(n)))) ++shard_live_[s];
  }
}

void Network::save_state(SnapshotWriter& w) const { save_fields(w, *this); }

void Network::restore_state(SnapshotReader& r) { restore_fields(r, *this); }

std::vector<Flits> Network::delivered_flits_by_flow(
    std::size_t num_flows) const {
  WS_CHECK(flow_delivered_flits_.size() <= num_flows);
  std::vector<Flits> counts(num_flows, 0);
  std::copy(flow_delivered_flits_.begin(), flow_delivered_flits_.end(),
            counts.begin());
  return counts;
}

}  // namespace wormsched::wormhole
