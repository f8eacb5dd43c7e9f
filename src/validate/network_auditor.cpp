#include "validate/network_auditor.hpp"

#include <sstream>

#include "common/assert.hpp"

namespace wormsched::validate {

namespace {

using wormhole::Direction;
using wormhole::kNumDirections;
using wormhole::Network;

}  // namespace

NetworkAuditor::NetworkAuditor(const NetworkAuditorConfig& config,
                               AuditLog& log)
    : config_(config), log_(log) {
  WS_CHECK(config.check_every >= 1);
}

void NetworkAuditor::on_cycle_end(Cycle now, const Network& network,
                                  const wormhole::CycleDelta& delta) {
  if (!initialized_) {
    nodes_ = network.topology().num_nodes();
    vcs_ = network.config().router.num_vcs;
    depth_ = network.config().router.buffer_depth;
    upn_ = kNumDirections * vcs_;
    const auto& rc = network.config().router;
    const bool finite = rc.buffer_model == wormhole::BufferModel::kFinite;
    credit_ledgers_ =
        finite && rc.flow_control == wormhole::FlowControl::kCredit;
    onoff_ = finite && rc.flow_control == wormhole::FlowControl::kOnOff;
    const std::size_t units =
        static_cast<std::size_t>(nodes_) * kNumDirections * vcs_;
    led_buffered_.assign(nodes_, 0);
    led_credits_.assign(units, 0);
    led_in_buf_.assign(units, 0);
    led_wire_flits_.assign(units, 0);
    led_wire_credits_.assign(units, 0);
    led_live_.assign(nodes_, 0);
    scratch_wire_flits_.assign(units, 0);
    scratch_wire_credits_.assign(units, 0);
    scratch_last_signal_.assign(units, 0);
    peer_key_.assign(units, SIZE_MAX);
    const auto& topo = network.topology();
    for (std::uint32_t n = 0; n < nodes_; ++n) {
      for (std::uint32_t d = 1; d < kNumDirections; ++d) {  // kLocal: no wire
        const auto dir = static_cast<Direction>(d);
        const NodeId nbr = topo.neighbor(NodeId(n), dir);
        if (!nbr.is_valid()) continue;
        const Direction far = topo.peer_port(NodeId(n), dir);
        for (std::uint32_t cls = 0; cls < vcs_; ++cls)
          peer_key_[unit_key(NodeId(n), dir, cls)] = unit_key(nbr, far, cls);
      }
    }
    initialized_ = true;
    if (config_.mode == AuditMode::kIncremental) {
      // The first observed cycle's movements are already folded into the
      // post-cycle state we snapshot, so this cycle's delta is not
      // applied; the snapshot doubles as the initial oracle pass.
      snapshot(network);
      ++checks_;
      ++full_rescans_;
      full_scan(now, network);
      // Seed the cadence counters: the next verify is the first cycle
      // after this one divisible by check_every, and this pass consumed
      // one check from the rescan/mask schedules.
      next_check_ = (now / config_.check_every + 1) * config_.check_every;
      rescan_countdown_ =
          config_.full_rescan_every > 0 ? config_.full_rescan_every - 1 : 0;
      mask_countdown_ =
          config_.mask_check_every > 0 ? config_.mask_check_every - 1 : 0;
      return;
    }
  }

  if (config_.mode == AuditMode::kFull) {
    if (now % config_.check_every != 0) return;
    ++checks_;
    full_scan(now, network);
    return;
  }

  // Incremental: the ledgers must ingest every cycle's movements; only
  // the verification pass is sampled by check_every.
  const bool verify = now >= next_check_;
  if (verify) {
    next_check_ += config_.check_every;
    ++checks_;
  }
  if (!ingest(now, network, delta, verify)) {
    escalate(now, network);
    return;
  }
  if (verify && rescan_countdown_ > 0 && --rescan_countdown_ == 0) {
    rescan_countdown_ = config_.full_rescan_every;
    full_rescan_crosscheck(now, network);
  }
}

void NetworkAuditor::finish(Cycle now, const Network& network) {
  if (finished_) return;
  finished_ = true;
  if (!initialized_) {
    // Zero-cycle run: nothing ever ticked, but the fabric's constructed
    // state is still checkable.  Borrow the observer path to initialize
    // (it snapshots and full-scans in incremental mode).
    const wormhole::CycleDelta empty;
    on_cycle_end(now, network, empty);
    return;
  }
  ++checks_;
  if (config_.mode == AuditMode::kIncremental) {
    full_rescan_crosscheck(now, network);
  } else {
    full_scan(now, network);
  }
}

// --- Full-scan oracle --------------------------------------------------

void NetworkAuditor::full_scan(Cycle now, const Network& net) {
  check_flit_conservation(now, net);
  // The drift cross-check reads the wire bins this pass leaves behind,
  // so they are (re)built whichever protocol oracle runs — including
  // the infinite-buffer case where neither does.
  bin_wires(net);
  if (credit_ledgers_)
    check_credit_conservation(now, net);
  else if (onoff_)
    check_onoff_invariants(now, net);
  check_active_set(now, net);
  check_router_masks(now, net);
}

void NetworkAuditor::check_flit_conservation(Cycle now, const Network& net) {
  const std::uint32_t nodes = net.topology().num_nodes();
  Flits buffered = 0;
  for (std::uint32_t n = 0; n < nodes; ++n)
    buffered += net.router(NodeId(n)).buffered_flits();
  const Flits in_flight = static_cast<Flits>(net.flit_wire().size());
  const Flits accounted = net.nic_backlog_flits() + buffered + in_flight +
                          static_cast<Flits>(net.delivered_flits());
  if (accounted != net.injected_flits()) {
    std::ostringstream os;
    os << "cycle=" << now << " injected=" << net.injected_flits()
       << " != nic=" << net.nic_backlog_flits() << " + buffered=" << buffered
       << " + wire=" << in_flight << " + delivered=" << net.delivered_flits();
    log_.report("net.conservation.flits", os.str());
  }
}

void NetworkAuditor::bin_wires(const Network& net) {
  scratch_wire_flits_.assign(scratch_wire_flits_.size(), 0);
  scratch_wire_credits_.assign(scratch_wire_credits_.size(), 0);
  scratch_last_signal_.assign(scratch_last_signal_.size(), 0);
  const auto& fw = net.flit_wire();
  for (std::size_t i = 0; i < fw.size(); ++i) {
    const Network::WireFlit& wf = fw[i];
    ++scratch_wire_flits_[unit_key(wf.to, wf.in, wf.cls)];
  }
  // Ascending FIFO order: for each bin the last signal written is the
  // newest in flight, which is what the handshake-sync check needs.
  const auto& cw = net.credit_wire();
  for (std::size_t i = 0; i < cw.size(); ++i) {
    const Network::WireCredit& wc = cw[i];
    const std::size_t k = unit_key(wc.to, wc.out, wc.cls);
    ++scratch_wire_credits_[k];
    if (wc.kind != Network::WireCredit::Kind::kCredit)
      scratch_last_signal_[k] = static_cast<std::uint8_t>(wc.kind);
  }
  const auto& cq = net.credit_quarantine();
  for (std::size_t i = 0; i < cq.size(); ++i) {
    const Network::WireCredit& wc = cq[i];
    ++scratch_wire_credits_[unit_key(wc.to, wc.out, wc.cls)];
  }
}

void NetworkAuditor::check_credit_conservation(Cycle now,
                                               const Network& net) {
  const auto& topo = net.topology();

  // The caller (full_scan) just binned both wires by (destination, port,
  // class): a flit heading to (to, in, cls) came from exactly one
  // upstream output, and a credit heading to (to, out, cls) replenishes
  // exactly one output VC.
  for (std::uint32_t n = 0; n < nodes_; ++n) {
    const NodeId node(n);
    const auto& router = net.router(node);
    for (std::uint32_t d = 1; d < kNumDirections; ++d) {  // skip kLocal sink
      const auto out = static_cast<Direction>(d);
      const NodeId neighbor = topo.neighbor(node, out);
      if (!neighbor.is_valid()) continue;  // edge/unwired: port unused
      const Direction far_in = topo.peer_port(node, out);
      for (std::uint32_t cls = 0; cls < vcs_; ++cls) {
        const std::uint32_t total =
            router.output_credits(out, cls) +
            scratch_wire_flits_[unit_key(neighbor, far_in, cls)] +
            static_cast<std::uint32_t>(
                net.router(neighbor).input_buffer_size(far_in, cls)) +
            scratch_wire_credits_[unit_key(node, out, cls)];
        if (total != depth_) {
          std::ostringstream os;
          os << "cycle=" << now << " router=" << n << " out=" << d
             << " cls=" << cls << ": credits="
             << router.output_credits(out, cls) << " + wire_flits="
             << scratch_wire_flits_[unit_key(neighbor, far_in, cls)]
             << " + downstream_buf="
             << net.router(neighbor).input_buffer_size(far_in, cls)
             << " + wire_credits="
             << scratch_wire_credits_[unit_key(node, out, cls)]
             << " != depth=" << depth_;
          log_.report("net.conservation.credits", os.str());
        }
      }
    }
  }
}

void NetworkAuditor::check_onoff_invariants(Cycle now, const Network& net) {
  const auto& topo = net.topology();
  for (std::uint32_t n = 0; n < nodes_; ++n) {
    const NodeId node(n);
    const auto& router = net.router(node);
    check_one_router_occupancy(now, net, n);
    for (std::uint32_t d = 1; d < kNumDirections; ++d) {  // skip kLocal sink
      const auto out = static_cast<Direction>(d);
      const NodeId neighbor = topo.neighbor(node, out);
      if (!neighbor.is_valid()) continue;  // edge/unwired: port unused
      const Direction far_in = topo.peer_port(node, out);
      const auto& down = net.router(neighbor);
      for (std::uint32_t cls = 0; cls < vcs_; ++cls) {
        // Handshake sync: with no signal in flight the sender's off_sent
        // and the receiver's peer_on are complements; with signals in
        // flight the newest one must match the sender's current state
        // (signals are conserved and FIFO, so anything else means one
        // was dropped, duplicated, or reordered).
        const bool off_sent = down.off_sent(far_in, cls);
        const bool peer_on = router.peer_on(out, cls);
        const std::uint8_t last = scratch_last_signal_[unit_key(node, out,
                                                                cls)];
        const bool in_sync =
            last == 0
                ? peer_on == !off_sent
                : off_sent ==
                      (last == static_cast<std::uint8_t>(
                                   Network::WireCredit::Kind::kOff));
        if (!in_sync) {
          std::ostringstream os;
          os << "cycle=" << now << " router=" << n << " out=" << d
             << " cls=" << cls << ": peer_on=" << peer_on
             << " downstream off_sent=" << off_sent << " in-flight signal="
             << (last == 0 ? "none" : last == 1 ? "off" : "on");
          log_.report("net.onoff.signal_sync", os.str());
        }
      }
    }
  }
}

void NetworkAuditor::check_one_router_occupancy(Cycle now, const Network& net,
                                                std::uint32_t n) {
  const auto& router = net.router(NodeId(n));
  for (std::uint32_t d = 0; d < kNumDirections; ++d) {
    const auto dir = static_cast<Direction>(d);
    for (std::uint32_t cls = 0; cls < vcs_; ++cls) {
      const std::size_t occ = router.input_buffer_size(dir, cls);
      if (occ > depth_) {
        std::ostringstream os;
        os << "cycle=" << now << " router=" << n << " in=" << d
           << " cls=" << cls << ": occupancy=" << occ
           << " exceeds buffer_depth=" << depth_
           << " (the off watermark failed to stop the upstream)";
        log_.report("net.onoff.overflow", os.str());
      }
    }
  }
}

void NetworkAuditor::check_active_set(Cycle now, const Network& net) {
  const std::uint32_t nodes = net.topology().num_nodes();
  std::uint32_t live = 0;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const NodeId node(n);
    if (net.router_live(node)) ++live;
    if (!net.router(node).drained() && !net.router_live(node)) {
      std::ostringstream os;
      os << "cycle=" << now << " router=" << n
         << " holds work but is not in the active set";
      log_.report("net.active_set.lost", os.str());
    }
  }
  if (live != net.live_router_count()) {
    std::ostringstream os;
    os << "cycle=" << now << " live flags=" << live
       << " but counter=" << net.live_router_count();
    log_.report("net.active_set.count", os.str());
  }
}

void NetworkAuditor::check_one_router_masks(Cycle now, const Network& net,
                                            std::uint32_t n) {
  const auto& router = net.router(NodeId(n));
  const wormhole::Router::UnitMasks implied = router.implied_masks();
  const auto report = [&](const char* which, std::uint64_t expected,
                          std::uint64_t actual) {
    if (expected == actual) return;
    std::ostringstream os;
    os << "cycle=" << now << " router=" << n << " " << which
       << " mask=" << std::hex << actual << " but flags imply "
       << expected;
    log_.report("net.masks.stale", os.str());
  };
  report("routable_inputs", implied.routable, router.routable_inputs_mask());
  report("requesting_outputs", implied.requesting,
         router.requesting_outputs_mask());
  report("bound_outputs", implied.bound, router.bound_outputs_mask());
}

void NetworkAuditor::check_router_masks(Cycle now, const Network& net) {
  const std::uint32_t nodes = net.topology().num_nodes();
  for (std::uint32_t n = 0; n < nodes; ++n)
    check_one_router_masks(now, net, n);
}

// --- Incremental ledgers -----------------------------------------------

void NetworkAuditor::snapshot(const Network& net) {
  led_injected_ = net.injected_flits();
  led_nic_ = net.nic_backlog_flits();
  led_delivered_ = net.delivered_flits();
  led_wire_flits_total_ = static_cast<std::int64_t>(net.flit_wire().size());
  led_buffered_total_ = 0;
  led_live_count_ = 0;
  for (std::uint32_t n = 0; n < nodes_; ++n) {
    const NodeId node(n);
    const auto& router = net.router(node);
    led_buffered_[n] = static_cast<std::int32_t>(router.buffered_flits());
    led_buffered_total_ += static_cast<Flits>(led_buffered_[n]);
    const bool live = net.router_live(node);
    led_live_[n] = live ? 1 : 0;
    if (live) ++led_live_count_;
    for (std::uint32_t d = 0; d < kNumDirections; ++d) {
      const auto dir = static_cast<Direction>(d);
      for (std::uint32_t cls = 0; cls < vcs_; ++cls) {
        const std::size_t k = unit_key(node, dir, cls);
        led_credits_[k] =
            static_cast<std::int32_t>(router.output_credits(dir, cls));
        led_in_buf_[k] =
            static_cast<std::int32_t>(router.input_buffer_size(dir, cls));
      }
    }
  }
  bin_wires(net);
  for (std::size_t k = 0; k < led_wire_flits_.size(); ++k) {
    led_wire_flits_[k] = static_cast<std::int32_t>(scratch_wire_flits_[k]);
    led_wire_credits_[k] =
        static_cast<std::int32_t>(scratch_wire_credits_[k]);
  }
}

bool NetworkAuditor::ingest(Cycle now, const Network& net,
                            const wormhole::CycleDelta& delta, bool verify) {
  // Every event site enrolls its router in the touched set, so an empty
  // touched set with no NIC enqueues means the whole cycle was a no-op:
  // no ledger changed, no fabric counter changed, and the previous
  // verify's verdict still holds.
  if (delta.touched.empty() && delta.enqueued_flits == 0) return true;

  // --- Ledger updates (every cycle) ---------------------------------
  led_injected_ += delta.enqueued_flits;
  led_nic_ += delta.enqueued_flits;
  for (const std::uint32_t n : delta.injections) {
    --led_nic_;
    ++led_buffered_[n];
    ++led_buffered_total_;
  }
  for (const auto& e : delta.flits_from_wire) {
    --led_wire_flits_[e.unit];
    --led_wire_flits_total_;
    ++led_in_buf_[e.unit];
    ++led_buffered_[e.node];
    ++led_buffered_total_;
  }
  // Outside credit flow control the per-unit credit/input ledgers are
  // unmaintainable from the delta (on/off signal events carry no buffer
  // pop; infinite buffers emit no credit events at all), so only the
  // wire-occupancy ledgers ingest credit-stream events — which is still
  // enough to prove signal flits are conserved end to end.
  for (const auto& e : delta.flits_to_wire) {
    if (credit_ledgers_) --led_credits_[e.unit];
    ++led_wire_flits_[peer_key_[e.unit]];
    ++led_wire_flits_total_;
    --led_buffered_[e.node];
    --led_buffered_total_;
  }
  for (const std::uint32_t n : delta.ejections) {
    --led_buffered_[n];
    --led_buffered_total_;
    ++led_delivered_;
  }
  for (const auto& e : delta.credits_to_wire) {
    if (credit_ledgers_) --led_in_buf_[e.unit];
    ++led_wire_credits_[peer_key_[e.unit]];
  }
  for (const auto& e : delta.credits_from_wire) {
    --led_wire_credits_[e.unit];
    if (credit_ledgers_) ++led_credits_[e.unit];
  }

  bool ok = true;
  const auto mismatch = [&](const char* check, const char* what,
                            std::int64_t ledger, std::int64_t actual,
                            std::uint32_t router, int port, int cls) {
    std::ostringstream os;
    os << "cycle=" << now << " " << what << " ledger=" << ledger
       << " != fabric=" << actual;
    if (router != UINT32_MAX) os << " router=" << router;
    if (port >= 0) os << " port=" << port;
    if (cls >= 0) os << " cls=" << cls;
    log_.report(check, os.str());
    ok = false;
  };

  // Touched routers: fold liveness flips into the active-set shadow
  // (every cycle — the network guarantees every flip is in the touched
  // set), and on verify cycles compare the per-router ledgers too.
  bool check_masks = false;
  if (verify && mask_countdown_ > 0 && --mask_countdown_ == 0) {
    mask_countdown_ = config_.mask_check_every;
    check_masks = true;
  }
  for (const std::uint32_t n : delta.touched) {
    const NodeId node(n);
    const bool live = net.router_live(node);
    if (live != (led_live_[n] != 0)) {
      led_live_[n] = live ? 1 : 0;
      live ? ++led_live_count_ : --led_live_count_;
    }
    if (!verify) continue;
    const auto& router = net.router(node);
    if (led_buffered_[n] != static_cast<Flits>(router.buffered_flits()))
      mismatch("net.ledger.buffered", "buffered_flits", led_buffered_[n],
               router.buffered_flits(), n, -1, -1);
    if (!router.drained() && !live) {
      std::ostringstream os;
      os << "cycle=" << now << " router=" << n
         << " holds work but is not in the active set";
      log_.report("net.active_set.lost", os.str());
    }
    if (check_masks) {
      check_one_router_masks(now, net, n);
      if (onoff_) check_one_router_occupancy(now, net, n);
    }
  }
  if (!verify) return true;

  // Globals: O(1) compares against the fabric's own counters.
  if (led_injected_ != net.injected_flits())
    mismatch("net.ledger.injected", "injected_flits", led_injected_,
             net.injected_flits(), UINT32_MAX, -1, -1);
  if (led_nic_ != net.nic_backlog_flits())
    mismatch("net.ledger.nic", "nic_backlog_flits", led_nic_,
             net.nic_backlog_flits(), UINT32_MAX, -1, -1);
  if (led_delivered_ != net.delivered_flits())
    mismatch("net.ledger.delivered", "delivered_flits",
             static_cast<std::int64_t>(led_delivered_),
             static_cast<std::int64_t>(net.delivered_flits()), UINT32_MAX,
             -1, -1);
  if (led_wire_flits_total_ !=
      static_cast<std::int64_t>(net.flit_wire().size()))
    mismatch("net.ledger.wire", "flit_wire size", led_wire_flits_total_,
             static_cast<std::int64_t>(net.flit_wire().size()), UINT32_MAX,
             -1, -1);
  // Ledger-side conservation identity: the event stream itself must not
  // create or destroy flits.  Holds by construction of apply_delta unless
  // the network under-reported a movement.
  if (led_injected_ != led_nic_ + led_buffered_total_ +
                           static_cast<Flits>(led_wire_flits_total_) +
                           static_cast<Flits>(led_delivered_))
    mismatch("net.ledger.flit_conservation", "injected vs parts",
             led_injected_,
             led_nic_ + led_buffered_total_ +
                 static_cast<Flits>(led_wire_flits_total_) +
                 static_cast<Flits>(led_delivered_),
             UINT32_MAX, -1, -1);

  if (led_live_count_ != net.live_router_count()) {
    std::ostringstream os;
    os << "cycle=" << now << " live flags=" << led_live_count_
       << " but counter=" << net.live_router_count();
    log_.report("net.active_set.count", os.str());
  }

  // Units this cycle's sends moved: the credit ledger vs the fabric's
  // counter (credits gate sending, so every send re-checks the unit that
  // just consumed one), plus the credit conservation sum over the four
  // ledger terms (each event preserves the sum, so a wrong sum means the
  // fabric leaked a credit or flit).  Per-unit input-buffer compares are
  // deliberately absent from this fast path: a fabric input-buffer
  // corruption shifts the same router's buffered aggregate, which the
  // touched-router loop above compares every verify; a compensating
  // intra-router split falls to the periodic full-rescan cross-check.
  if (credit_ledgers_) {
    for (const auto& e : delta.flits_to_wire) {
      const std::uint32_t local = e.unit - e.node * upn_;
      const std::int64_t actual = static_cast<std::int64_t>(
          net.router(NodeId(e.node)).output_credits_by_unit(local));
      if (led_credits_[e.unit] != actual)
        mismatch("net.ledger.credits", "output_credits", led_credits_[e.unit],
                 actual, e.node, static_cast<int>(local / vcs_),
                 static_cast<int>(local % vcs_));
      const std::size_t kd = peer_key_[e.unit];
      const std::int64_t sum = led_credits_[e.unit] + led_wire_flits_[kd] +
                               led_in_buf_[kd] + led_wire_credits_[e.unit];
      if (sum != static_cast<std::int64_t>(depth_))
        mismatch("net.ledger.credit_sum", "credit sum", sum, depth_, e.node,
                 static_cast<int>(local / vcs_),
                 static_cast<int>(local % vcs_));
    }
  }
  return ok;
}

void NetworkAuditor::full_rescan_crosscheck(Cycle now, const Network& net) {
  ++full_rescans_;
  full_scan(now, net);  // leaves the wire bins in the scratch arrays

  bool drift = false;
  const auto report_drift = [&](const std::string& what) {
    log_.report("net.ledger.drift", "cycle=" + std::to_string(now) + " " +
                                        what);
    drift = true;
  };
  if (led_injected_ != net.injected_flits()) report_drift("injected");
  if (led_nic_ != net.nic_backlog_flits()) report_drift("nic_backlog");
  if (led_delivered_ != net.delivered_flits()) report_drift("delivered");
  if (led_wire_flits_total_ !=
      static_cast<std::int64_t>(net.flit_wire().size()))
    report_drift("wire_flits_total");
  Flits buffered_total = 0;
  std::uint32_t live_count = 0;
  for (std::uint32_t n = 0; n < nodes_; ++n) {
    const NodeId node(n);
    const auto& router = net.router(node);
    buffered_total += router.buffered_flits();
    if (net.router_live(node)) ++live_count;
    if (led_buffered_[n] != static_cast<Flits>(router.buffered_flits()))
      report_drift("buffered router=" + std::to_string(n));
    if ((led_live_[n] != 0) != net.router_live(node))
      report_drift("live router=" + std::to_string(n));
    // Local units carry no credit protocol (and local pops emit no
    // events), so only non-local units have exact per-unit ledgers.
    for (std::uint32_t d = 1; d < kNumDirections; ++d) {
      const auto dir = static_cast<Direction>(d);
      for (std::uint32_t cls = 0; cls < vcs_; ++cls) {
        const std::size_t k = unit_key(node, dir, cls);
        if (credit_ledgers_ &&
            led_credits_[k] !=
                static_cast<std::int64_t>(router.output_credits(dir, cls)))
          report_drift("credits router=" + std::to_string(n) +
                       " port=" + std::to_string(d) +
                       " cls=" + std::to_string(cls));
        if (credit_ledgers_ &&
            led_in_buf_[k] != static_cast<std::int64_t>(
                                  router.input_buffer_size(dir, cls)))
          report_drift("in_buf router=" + std::to_string(n) +
                       " port=" + std::to_string(d) +
                       " cls=" + std::to_string(cls));
        if (led_wire_flits_[k] !=
            static_cast<std::int64_t>(scratch_wire_flits_[k]))
          report_drift("wire_flits router=" + std::to_string(n) +
                       " port=" + std::to_string(d) +
                       " cls=" + std::to_string(cls));
        if (led_wire_credits_[k] !=
            static_cast<std::int64_t>(scratch_wire_credits_[k]))
          report_drift("wire_credits router=" + std::to_string(n) +
                       " port=" + std::to_string(d) +
                       " cls=" + std::to_string(cls));
      }
    }
  }
  if (led_buffered_total_ != buffered_total)
    report_drift("buffered_total");
  if (led_live_count_ != live_count) report_drift("live_count");
  if (drift) snapshot(net);  // resync so one fault does not cascade
}

void NetworkAuditor::escalate(Cycle now, const Network& net) {
  ++full_rescans_;
  full_scan(now, net);
  snapshot(net);
}

}  // namespace wormsched::validate
