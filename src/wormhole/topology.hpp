// Topologies and deterministic dimension-order routing.
//
// The library ships k-ary 2-meshes and 2-ary tori (the interconnects of
// the parallel systems the paper targets: Cray T3D, Intel Paragon, IBM SP
// all use low-dimensional meshes/tori or closely related fabrics).  XY
// dimension-order routing is deadlock-free on the mesh; on the torus the
// classic Dally-Seitz dateline rule moves a packet to virtual-channel
// class 1 when it crosses a wrap link, breaking each ring's channel-
// dependency cycle.
//
// A k-ary fat tree (k in {2, 4}; the radix is capped by the router's
// four non-local ports) provides the datacenter-flavored substrate: k
// pods of k/2 edge and k/2 aggregation switches under (k/2)^2 cores.
// Only edge switches carry NICs, so endpoints are the first k^2/2 node
// ids.  Up/down routing — climb to a common ancestor, then descend — is
// deadlock-free on the tree because a packet never turns from a down
// channel back into an up channel.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"

namespace wormsched::wormhole {

/// Router port directions.  For mesh/torus the names are geographic; the
/// fat tree reuses the same four non-local slots as opaque port indices
/// (edge switches use ports 1..k/2 as uplinks, aggregation switches use
/// 1..k/2 down and k/2+1..k up, cores use 1..k down — one per pod).
enum class Direction : std::uint8_t {
  kLocal = 0,
  kEast = 1,
  kWest = 2,
  kNorth = 3,
  kSouth = 4,
};
inline constexpr std::uint32_t kNumDirections = 5;

[[nodiscard]] const char* direction_name(Direction d);

struct Coord {
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  bool operator==(const Coord&) const = default;
};

struct TopologySpec {
  enum class Kind { kMesh, kTorus, kFatTree };
  Kind kind = Kind::kMesh;
  std::uint32_t width = 4;
  std::uint32_t height = 4;

  [[nodiscard]] static TopologySpec mesh(std::uint32_t w, std::uint32_t h) {
    return {Kind::kMesh, w, h};
  }
  [[nodiscard]] static TopologySpec torus(std::uint32_t w, std::uint32_t h) {
    return {Kind::kTorus, w, h};
  }
  /// k-ary fat tree; `width` carries k, `height` is 1.
  [[nodiscard]] static TopologySpec fat_tree(std::uint32_t k) {
    return {Kind::kFatTree, k, 1};
  }

  [[nodiscard]] std::uint32_t fat_tree_k() const { return width; }

  /// Switch count (every switch is a routed node; for the fat tree that
  /// is k^2 edge+aggregation switches plus (k/2)^2 cores).
  [[nodiscard]] std::uint32_t num_nodes() const;

  [[nodiscard]] std::string describe() const;
};

/// Strict parser for the CLI `--topo` grammar: `mesh<W>x<H>`,
/// `torus<W>x<H>`, `fattree:<K>`.  Dimensions must be full-string
/// decimal integers (no trailing garbage) and non-zero; K must be 2 or
/// 4.  On failure returns nullopt and fills `error` with a diagnostic.
[[nodiscard]] std::optional<TopologySpec> parse_topology_spec(
    const std::string& text, std::string* error);

/// Result of one routing decision.
struct RouteDecision {
  Direction out = Direction::kLocal;
  /// VC class the flit must use on the chosen output (dateline rule).
  std::uint32_t out_class = 0;
  /// True when the hop traverses a wrap-around link (torus only).
  bool wraps = false;
};

/// Candidate routes for one head flit, filled in place by the routing
/// oracles so route computation never touches the heap.  A candidate
/// names one (output port, VC class) unit, so the candidate set is
/// bounded by kNumDirections x num_vcs — and the router's pending
/// bitmasks already cap that product at 64 units.
inline constexpr std::size_t kMaxRouteCandidates = 64;
using RouteCandidates = SmallVec<RouteDecision, kMaxRouteCandidates>;

class Topology {
 public:
  explicit Topology(const TopologySpec& spec);

  [[nodiscard]] const TopologySpec& spec() const { return spec_; }
  [[nodiscard]] std::uint32_t num_nodes() const { return spec_.num_nodes(); }

  /// Nodes that carry a NIC.  Mesh/torus: every node.  Fat tree: the
  /// edge switches, which occupy ids [0, k^2/2) — endpoints are always
  /// the contiguous prefix of the id space.
  [[nodiscard]] std::uint32_t num_endpoints() const;
  [[nodiscard]] bool is_endpoint(NodeId n) const {
    return n.value() < num_endpoints();
  }
  [[nodiscard]] NodeId endpoint(std::uint32_t i) const;

  [[nodiscard]] Coord coord(NodeId node) const;
  [[nodiscard]] NodeId node(Coord c) const;

  /// The neighbour reached from `node` through `d`; invalid NodeId when
  /// no link exists there.  kLocal maps to the node itself.  One table
  /// load: the link table is built once at construction.
  [[nodiscard]] NodeId neighbor(NodeId node, Direction d) const {
    return link(node, d).to;
  }

  /// The port at the far end of link (node, d): a flit (or credit /
  /// on-off signal) leaving `node` through `d` arrives at
  /// `neighbor(node, d)` on this port.  Mesh/torus links are geometric,
  /// so this is the opposite compass direction (also on edge ports that
  /// have no link); fat-tree links come from the wiring, and asking for
  /// an unwired fat-tree port is an error.
  [[nodiscard]] Direction peer_port(NodeId node, Direction d) const {
    const Link& l = link(node, d);
    WS_CHECK_MSG(l.to.is_valid() || spec_.kind != TopologySpec::Kind::kFatTree,
                 "peer_port on an unwired fat-tree port");
    return l.port;
  }

  /// True when (node, d) is a torus wrap-around link.
  [[nodiscard]] bool is_wrap_link(NodeId node, Direction d) const;

  /// Deterministic routing step: XY dimension-order with dateline
  /// VC-class assignment on mesh/torus, destination-hashed up/down on
  /// the fat tree.  `in_class` is the class the flit arrived on.
  [[nodiscard]] RouteDecision route(NodeId current, NodeId dest,
                                    Direction in_from,
                                    std::uint32_t in_class) const;

  /// West-first turn-model candidates (Glass & Ni): if the destination
  /// lies to the west the packet must finish all west hops first (single
  /// candidate); otherwise every productive direction among {E, N, S} is
  /// legal and the router may pick adaptively.  Deadlock-free on the mesh
  /// with any VC count because the two turns into West are never taken.
  /// Mesh only (wrap links would reintroduce ring cycles); asserts on a
  /// torus.  Appends 1-3 candidates to `out` (allocation-free); kLocal
  /// alone when current == dest.
  void west_first_candidates(NodeId current, NodeId dest, Direction in_from,
                             std::uint32_t in_class,
                             RouteCandidates& out) const;

  /// Adaptive up/down candidates (fat tree only): while climbing, every
  /// uplink reaches some common ancestor, so all of them are legal and
  /// the router may pick by congestion; the descent is deterministic
  /// (single candidate).  Deadlock-free for the same reason as the
  /// deterministic variant — no down-to-up turns.
  void updown_candidates(NodeId current, NodeId dest, Direction in_from,
                         std::uint32_t in_class, RouteCandidates& out) const;

  /// Minimum hop count between two nodes under this topology's
  /// deterministic routing.
  [[nodiscard]] std::uint32_t hops(NodeId a, NodeId b) const;

 private:
  /// One (node, port) entry of the link table.
  struct Link {
    NodeId to;  // invalid when no link leaves through this port
    Direction port = Direction::kLocal;  // arrival port at `to`
  };
  [[nodiscard]] const Link& link(NodeId node, Direction d) const {
    const std::size_t i =
        node.index() * kNumDirections + static_cast<std::size_t>(d);
    WS_CHECK(i < links_.size());
    return links_[i];
  }
  [[nodiscard]] Link& link_slot(NodeId node, Direction d) {
    return links_[node.index() * kNumDirections + static_cast<std::size_t>(d)];
  }
  /// Mesh/torus neighbour by coordinate arithmetic, used only to build
  /// the link table.
  [[nodiscard]] NodeId grid_neighbor(NodeId node, Direction d) const;

  [[nodiscard]] Direction x_step(std::uint32_t from_x, std::uint32_t to_x,
                                 bool* wraps) const;
  [[nodiscard]] Direction y_step(std::uint32_t from_y, std::uint32_t to_y,
                                 bool* wraps) const;
  [[nodiscard]] RouteDecision updown_route(NodeId current, NodeId dest,
                                           std::uint32_t in_class) const;
  void build_grid();
  void build_fat_tree();
  void add_link(NodeId a, Direction pa, NodeId b, Direction pb);

  TopologySpec spec_;
  /// Per (node, port), node-major: the neighbour reached through the port
  /// and the port it arrives on there.  Built for every topology at
  /// construction, so neighbor()/peer_port() never do coordinate
  /// arithmetic on the flit path.
  std::vector<Link> links_;
};

}  // namespace wormsched::wormhole
