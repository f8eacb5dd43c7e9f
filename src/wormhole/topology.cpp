#include "wormhole/topology.hpp"

#include <charconv>
#include <sstream>

#include "common/assert.hpp"

namespace wormsched::wormhole {
namespace {

constexpr Direction kInvalidPort = Direction::kLocal;

Direction opposite_compass(Direction d) {
  switch (d) {
    case Direction::kEast: return Direction::kWest;
    case Direction::kWest: return Direction::kEast;
    case Direction::kNorth: return Direction::kSouth;
    case Direction::kSouth: return Direction::kNorth;
    case Direction::kLocal: return Direction::kLocal;
  }
  return Direction::kLocal;
}

/// Full-string strict decimal parse; rejects empty, signs, and trailing
/// garbage (the CLI exit-2 contract shared with CliParser's get_uint).
bool parse_u32_strict(std::string_view text, std::uint32_t* out) {
  if (text.empty()) return false;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc{} && ptr == last;
}

}  // namespace

const char* direction_name(Direction d) {
  switch (d) {
    case Direction::kLocal: return "local";
    case Direction::kEast: return "east";
    case Direction::kWest: return "west";
    case Direction::kNorth: return "north";
    case Direction::kSouth: return "south";
  }
  return "?";
}

std::uint32_t TopologySpec::num_nodes() const {
  if (kind == Kind::kFatTree) {
    const std::uint32_t k = width;
    return k * k + (k / 2) * (k / 2);
  }
  return width * height;
}

std::string TopologySpec::describe() const {
  std::ostringstream os;
  if (kind == Kind::kFatTree) {
    os << "fattree:" << width;
  } else {
    os << (kind == Kind::kMesh ? "mesh" : "torus") << " " << width << "x"
       << height;
  }
  return os.str();
}

std::optional<TopologySpec> parse_topology_spec(const std::string& text,
                                                std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<TopologySpec> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (text.rfind("fattree:", 0) == 0) {
    std::uint32_t k = 0;
    if (!parse_u32_strict(std::string_view(text).substr(8), &k))
      return fail("expected fattree:<K> with a decimal K, got '" + text + "'");
    if (k != 2 && k != 4)
      return fail("fat-tree K must be 2 or 4 (router radix is 4), got '" +
                  text + "'");
    return TopologySpec::fat_tree(k);
  }
  TopologySpec spec;
  std::string_view dims;
  if (text.rfind("torus", 0) == 0) {
    spec.kind = TopologySpec::Kind::kTorus;
    dims = std::string_view(text).substr(5);
  } else if (text.rfind("mesh", 0) == 0) {
    spec.kind = TopologySpec::Kind::kMesh;
    dims = std::string_view(text).substr(4);
  } else {
    return fail("expected mesh<W>x<H>, torus<W>x<H> or fattree:<K>, got '" +
                text + "'");
  }
  const std::size_t x = dims.find('x');
  if (x == std::string_view::npos)
    return fail("expected <W>x<H> dimensions, got '" + text + "'");
  if (!parse_u32_strict(dims.substr(0, x), &spec.width) ||
      !parse_u32_strict(dims.substr(x + 1), &spec.height))
    return fail("malformed <W>x<H> dimensions in '" + text + "'");
  if (spec.width == 0 || spec.height == 0)
    return fail("topology dimensions must be non-zero in '" + text + "'");
  if (spec.kind == TopologySpec::Kind::kTorus &&
      (spec.width < 2 || spec.height < 2))
    return fail("torus needs at least 2 nodes per dimension in '" + text +
                "'");
  return spec;
}

Topology::Topology(const TopologySpec& spec) : spec_(spec) {
  if (spec.kind == TopologySpec::Kind::kFatTree) {
    WS_CHECK_MSG(spec.width == 2 || spec.width == 4,
                 "fat-tree K must be 2 or 4 (router radix is 4)");
    build_fat_tree();
    return;
  }
  WS_CHECK(spec.width >= 1 && spec.height >= 1);
  if (spec.kind == TopologySpec::Kind::kTorus) {
    WS_CHECK_MSG(spec.width >= 2 && spec.height >= 2,
                 "torus needs at least 2 nodes per dimension");
  }
  build_grid();
}

void Topology::build_grid() {
  links_.resize(static_cast<std::size_t>(num_nodes()) * kNumDirections);
  for (std::uint32_t n = 0; n < num_nodes(); ++n) {
    for (std::uint32_t p = 0; p < kNumDirections; ++p) {
      const auto d = static_cast<Direction>(p);
      link_slot(NodeId(n), d) =
          Link{grid_neighbor(NodeId(n), d), opposite_compass(d)};
    }
  }
}

std::uint32_t Topology::num_endpoints() const {
  if (spec_.kind == TopologySpec::Kind::kFatTree)
    return spec_.width * spec_.width / 2;  // edge switches only
  return num_nodes();
}

NodeId Topology::endpoint(std::uint32_t i) const {
  WS_CHECK(i < num_endpoints());
  return NodeId(i);  // endpoints are the contiguous prefix of the ids
}

void Topology::add_link(NodeId a, Direction pa, NodeId b, Direction pb) {
  Link& la = link_slot(a, pa);
  Link& lb = link_slot(b, pb);
  WS_CHECK(!la.to.is_valid());
  WS_CHECK(!lb.to.is_valid());
  la = Link{b, pb};
  lb = Link{a, pa};
}

void Topology::build_fat_tree() {
  const std::uint32_t k = spec_.width;
  const std::uint32_t half = k / 2;
  const std::uint32_t num_edges = k * half;
  const std::uint32_t num_aggs = k * half;
  const std::uint32_t total = num_nodes();
  // Every port starts unwired; kLocal loops back to the node itself.
  links_.assign(static_cast<std::size_t>(total) * kNumDirections,
                Link{NodeId::invalid(), kInvalidPort});
  for (std::uint32_t n = 0; n < total; ++n)
    link_slot(NodeId(n), Direction::kLocal) = Link{NodeId(n), Direction::kLocal};
  // Edge (pod p, index i) uplink j -> agg (pod p, index j) down port 1+i.
  for (std::uint32_t p = 0; p < k; ++p) {
    for (std::uint32_t i = 0; i < half; ++i) {
      const NodeId edge(p * half + i);
      for (std::uint32_t j = 0; j < half; ++j) {
        const NodeId agg(num_edges + p * half + j);
        add_link(edge, static_cast<Direction>(1 + j), agg,
                 static_cast<Direction>(1 + i));
      }
    }
  }
  // Agg (pod p, index j) uplink m -> core (j, m) down port 1+p.
  for (std::uint32_t p = 0; p < k; ++p) {
    for (std::uint32_t j = 0; j < half; ++j) {
      const NodeId agg(num_edges + p * half + j);
      for (std::uint32_t m = 0; m < half; ++m) {
        const NodeId core(num_edges + num_aggs + j * half + m);
        add_link(agg, static_cast<Direction>(1 + half + m), core,
                 static_cast<Direction>(1 + p));
      }
    }
  }
}

Coord Topology::coord(NodeId node) const {
  WS_CHECK(spec_.kind != TopologySpec::Kind::kFatTree);
  WS_CHECK(node.value() < num_nodes());
  return Coord{node.value() % spec_.width, node.value() / spec_.width};
}

NodeId Topology::node(Coord c) const {
  WS_CHECK(c.x < spec_.width && c.y < spec_.height);
  return NodeId(c.y * spec_.width + c.x);
}

NodeId Topology::grid_neighbor(NodeId n, Direction d) const {
  const Coord c = coord(n);
  const bool torus = spec_.kind == TopologySpec::Kind::kTorus;
  Coord target = c;
  switch (d) {
    case Direction::kLocal:
      return n;
    case Direction::kEast:
      if (c.x + 1 < spec_.width) {
        target.x = c.x + 1;
      } else if (torus) {
        target.x = 0;
      } else {
        return NodeId::invalid();
      }
      break;
    case Direction::kWest:
      if (c.x > 0) {
        target.x = c.x - 1;
      } else if (torus) {
        target.x = spec_.width - 1;
      } else {
        return NodeId::invalid();
      }
      break;
    case Direction::kNorth:
      if (c.y > 0) {
        target.y = c.y - 1;
      } else if (torus) {
        target.y = spec_.height - 1;
      } else {
        return NodeId::invalid();
      }
      break;
    case Direction::kSouth:
      if (c.y + 1 < spec_.height) {
        target.y = c.y + 1;
      } else if (torus) {
        target.y = 0;
      } else {
        return NodeId::invalid();
      }
      break;
  }
  return node(target);
}

bool Topology::is_wrap_link(NodeId n, Direction d) const {
  if (spec_.kind != TopologySpec::Kind::kTorus) return false;
  const Coord c = coord(n);
  switch (d) {
    case Direction::kEast: return c.x + 1 == spec_.width;
    case Direction::kWest: return c.x == 0;
    case Direction::kNorth: return c.y == 0;
    case Direction::kSouth: return c.y + 1 == spec_.height;
    case Direction::kLocal: return false;
  }
  return false;
}

Direction Topology::x_step(std::uint32_t from_x, std::uint32_t to_x,
                           bool* wraps) const {
  WS_CHECK(from_x != to_x);
  *wraps = false;
  if (spec_.kind == TopologySpec::Kind::kMesh)
    return to_x > from_x ? Direction::kEast : Direction::kWest;
  // Torus: go the shorter way round (ties eastward).
  const std::uint32_t east_dist = (to_x + spec_.width - from_x) % spec_.width;
  const Direction dir =
      east_dist * 2 <= spec_.width ? Direction::kEast : Direction::kWest;
  *wraps = (dir == Direction::kEast && from_x + 1 == spec_.width) ||
           (dir == Direction::kWest && from_x == 0);
  return dir;
}

Direction Topology::y_step(std::uint32_t from_y, std::uint32_t to_y,
                           bool* wraps) const {
  WS_CHECK(from_y != to_y);
  *wraps = false;
  if (spec_.kind == TopologySpec::Kind::kMesh)
    return to_y > from_y ? Direction::kSouth : Direction::kNorth;
  const std::uint32_t south_dist =
      (to_y + spec_.height - from_y) % spec_.height;
  const Direction dir =
      south_dist * 2 <= spec_.height ? Direction::kSouth : Direction::kNorth;
  *wraps = (dir == Direction::kSouth && from_y + 1 == spec_.height) ||
           (dir == Direction::kNorth && from_y == 0);
  return dir;
}

RouteDecision Topology::updown_route(NodeId current, NodeId dest,
                                     std::uint32_t in_class) const {
  RouteDecision decision;
  if (current == dest) {
    decision.out = Direction::kLocal;
    decision.out_class = in_class;
    return decision;
  }
  const std::uint32_t k = spec_.width;
  const std::uint32_t half = k / 2;
  const std::uint32_t num_edges = k * half;
  const std::uint32_t cur = current.value();
  WS_CHECK_MSG(is_endpoint(dest), "fat-tree destination must be an endpoint");
  const std::uint32_t dest_pod = dest.value() / half;
  const std::uint32_t dest_idx = dest.value() % half;
  // Destination-hashed uplink choice: deterministic, and it spreads
  // distinct destinations across the uplinks like ECMP would.
  if (cur < num_edges) {
    decision.out = static_cast<Direction>(1 + dest.value() % half);
  } else if (cur < 2 * num_edges) {
    const std::uint32_t pod = (cur - num_edges) / half;
    decision.out = pod == dest_pod
                       ? static_cast<Direction>(1 + dest_idx)
                       : static_cast<Direction>(1 + half + dest.value() % half);
  } else {
    decision.out = static_cast<Direction>(1 + dest_pod);
  }
  decision.out_class = 0;
  return decision;
}

RouteDecision Topology::route(NodeId current, NodeId dest, Direction in_from,
                              std::uint32_t in_class) const {
  if (spec_.kind == TopologySpec::Kind::kFatTree)
    return updown_route(current, dest, in_class);
  RouteDecision decision;
  if (current == dest) {
    decision.out = Direction::kLocal;
    decision.out_class = in_class;
    return decision;
  }
  const Coord c = coord(current);
  const Coord d = coord(dest);
  bool wraps = false;
  if (c.x != d.x) {
    decision.out = x_step(c.x, d.x, &wraps);
  } else {
    decision.out = y_step(c.y, d.y, &wraps);
  }
  decision.wraps = wraps;
  // Dateline rule: within one dimension the class persists and jumps to 1
  // at the wrap link; turning into a new dimension (or leaving the NIC)
  // restarts at class 0.  Deadlock-free with XY order because dependency
  // cycles only exist inside a single ring.
  const auto dimension = [](Direction dir) {
    return (dir == Direction::kEast || dir == Direction::kWest) ? 0 : 1;
  };
  const bool same_dimension =
      in_from != Direction::kLocal && dimension(in_from) == dimension(decision.out);
  const std::uint32_t base = same_dimension ? in_class : 0;
  decision.out_class = wraps ? 1 : base;
  return decision;
}

void Topology::west_first_candidates(NodeId current, NodeId dest, Direction,
                                     std::uint32_t in_class,
                                     RouteCandidates& out) const {
  WS_CHECK_MSG(spec_.kind == TopologySpec::Kind::kMesh,
               "west-first routing is mesh-only");
  if (current == dest) {
    out.push_back(RouteDecision{Direction::kLocal, in_class, false});
    return;
  }
  const Coord c = coord(current);
  const Coord d = coord(dest);
  if (d.x < c.x) {
    // All west hops must come first: deterministic.
    out.push_back(RouteDecision{Direction::kWest, 0, false});
    return;
  }
  // Adaptive among the productive non-west directions.
  if (d.x > c.x) out.push_back(RouteDecision{Direction::kEast, 0, false});
  if (d.y > c.y) out.push_back(RouteDecision{Direction::kSouth, 0, false});
  if (d.y < c.y) out.push_back(RouteDecision{Direction::kNorth, 0, false});
  WS_CHECK(!out.empty());
}

void Topology::updown_candidates(NodeId current, NodeId dest, Direction,
                                 std::uint32_t in_class,
                                 RouteCandidates& out) const {
  WS_CHECK_MSG(spec_.kind == TopologySpec::Kind::kFatTree,
               "up/down routing is fat-tree-only");
  if (current == dest) {
    out.push_back(RouteDecision{Direction::kLocal, in_class, false});
    return;
  }
  const std::uint32_t k = spec_.width;
  const std::uint32_t half = k / 2;
  const std::uint32_t num_edges = k * half;
  const std::uint32_t cur = current.value();
  WS_CHECK_MSG(is_endpoint(dest), "fat-tree destination must be an endpoint");
  const std::uint32_t dest_pod = dest.value() / half;
  const bool climbing =
      cur < num_edges ||
      (cur < 2 * num_edges && (cur - num_edges) / half != dest_pod);
  if (!climbing) {
    out.push_back(updown_route(current, dest, in_class));
    return;
  }
  // Every uplink reaches a common ancestor of the destination.
  const std::uint32_t first_up = cur < num_edges ? 1 : 1 + half;
  for (std::uint32_t u = 0; u < half; ++u)
    out.push_back(
        RouteDecision{static_cast<Direction>(first_up + u), 0, false});
}

std::uint32_t Topology::hops(NodeId a, NodeId b) const {
  std::uint32_t count = 0;
  NodeId cur = a;
  Direction from = Direction::kLocal;
  std::uint32_t cls = 0;
  while (cur != b) {
    const RouteDecision d = route(cur, b, from, cls);
    WS_CHECK(d.out != Direction::kLocal);
    // The next router sees the flit arriving on the link's far-end port.
    from = peer_port(cur, d.out);
    cur = neighbor(cur, d.out);
    WS_CHECK(cur.is_valid());
    cls = d.out_class;
    ++count;
    WS_CHECK_MSG(count <= num_nodes() * 2, "routing loop");
  }
  return count;
}

}  // namespace wormsched::wormhole
