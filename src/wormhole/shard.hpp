// Shard staging for the multi-threaded network tick.
//
// Network::tick is one kernel.  Its wire pop is serial; its NIC injection
// and router ticks run per shard range, either once over every shard on
// the caller thread against the network itself, or, with
// NetworkConfig::shards > 1 and no trace sink or perf counters attached,
// per contiguous shard domain on a worker lane against that shard's
// ShardLane.  Determinism is by construction, not by luck:
//
//   Wire pop (serial, caller thread): due entries are popped off the
//   global wire FIFOs in one order, including every fault-model decision.
//   When the lanes run, each lands on the owning shard's delivery list;
//   otherwise it is delivered in place.  The global wires stay the single
//   source of truth the audit accessors expose.
//
//   Per-shard step (lanes): each lane delivers its shard's credits and
//   flits, injects from its shard's NICs, and ticks its shard's routers
//   with the ShardLane as the router env.  Sends and ejections are staged
//   into per-shard queues; nothing global is written.  Router ticks are
//   mutually independent within a cycle (all inter-router interaction
//   travels over wires with link_latency >= 1), so any lane interleaving
//   computes the identical per-router state.
//
//   Commit (serial): staged sends are appended to the global wires
//   shard-ascending.  On the caller thread wire entries are pushed in
//   router-ascending order (routers tick ascending, each router's port
//   walk is ascending, and a (router, port) emits at most one flit and
//   one credit per cycle), and shards are contiguous ascending router
//   ranges — so the concatenation reproduces the same FIFO contents byte
//   for byte.  Ejections replay in the same order, keeping the delivered
//   log and the latency RunningStats (floating-point summation order
//   included) bit-identical.
//
//   The packet table is read-only on the lanes: its slots are taken in
//   Network::inject(), between ticks, and released in Network::eject(),
//   which the commit replays on the caller thread.
//
// Each lane also accumulates its own CycleDelta; the commit merges the
// lane deltas into the global delta handed to ObserverMux, so incremental
// auditing keeps working under threads (the auditor's ledger updates are
// commutative integer adds, so the shard-grouped event order yields the
// same ledgers and the same verdicts).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "wormhole/flit.hpp"
#include "wormhole/observer.hpp"
#include "wormhole/router.hpp"
#include "wormhole/topology.hpp"

namespace wormsched::wormhole {

class Network;

/// One flit in flight on a link (public for the audit accessors).
struct WireFlit {
  Cycle arrive;
  NodeId to;
  Direction in;  // input port at the destination router
  std::uint32_t cls;
  Flit flit;
};
static_assert(sizeof(WireFlit) <= 32, "a wire entry fits half a cache line");
/// One credit — or, in on/off flow control, one threshold signal — in
/// flight back to `to`'s output (`out`, `cls`).  Signals share the
/// credit wire (same latency, same FIFO order) so the sharded tick's
/// commit argument covers them unchanged.
struct WireCredit {
  enum class Kind : std::uint8_t { kCredit = 0, kOff = 1, kOn = 2 };
  Cycle arrive;
  NodeId to;
  Direction out;  // output port credited/signalled at the destination
  std::uint32_t cls;
  Kind kind = Kind::kCredit;
};

/// Per-shard staging state + the env its routers tick against on the
/// lanes (see RouterEnv).  Owned by the Network, one per shard domain;
/// every vector is cleared — never shrunk — each cycle, so the sharded
/// tick allocates nothing in steady state.  Sends go through the
/// network's own wire-record helpers and routing through its oracle
/// (defined in network.cpp, where Router::tick is instantiated for this
/// env).
class ShardLane final {
 public:
  ShardLane() = default;

 private:
  friend class Network;
  friend class Router;  // ticks against the lane as its env

  // The env: stage instead of mutating the global fabric.  Only this
  // lane's thread runs these during the per-shard step, and they touch
  // only this lane's vectors, this lane's routers' touched flags, and
  // read-only network state (the packet table included).
  void send_flit(NodeId from, Direction out, const Flit& flit);
  void eject(NodeId node, const Flit& flit, Cycle now);
  void send_credit(NodeId node, Direction in, std::uint32_t cls);
  void send_signal(NodeId node, Direction in, std::uint32_t cls, bool on);
  RouteDecision route(NodeId node, const Flit& flit, Direction in_from,
                      std::uint32_t in_class);
  void route_candidates(NodeId node, const Flit& flit, Direction in_from,
                        std::uint32_t in_class, RouteCandidates& out);

  struct StagedEjection {
    NodeId node;
    Flit flit;
  };

  /// Clears every per-cycle vector (capacity retained).
  void clear_cycle();

  Network* net_ = nullptr;

  // Delivery lists, filled by the serial wire pop in global FIFO order
  // and drained by this shard's step in the same sub-order (quarantine
  // releases, then flits, then credits).
  std::vector<WireCredit> quarantine_due_;
  std::vector<WireFlit> flits_due_;
  std::vector<WireCredit> credits_due_;

  // Staged results of the per-shard step, committed serially.
  std::vector<WireFlit> out_flits_;
  std::vector<WireCredit> out_credits_;
  std::vector<StagedEjection> ejections_;

  // This shard's slice of the cycle's movement record; merged into the
  // network's global delta at commit.
  CycleDelta delta_;
};

}  // namespace wormsched::wormhole
