#include "wormhole/patterns.hpp"

#include <sstream>

#include "common/assert.hpp"
#include "common/snapshot.hpp"

namespace wormsched::wormhole {

std::string PatternSpec::describe() const {
  switch (kind) {
    case Kind::kUniform: return "uniform";
    case Kind::kTranspose: return "transpose";
    case Kind::kBitComplement: return "bit-complement";
    case Kind::kHotspot: {
      std::ostringstream os;
      os << "hotspot(" << hotspot_fraction << "->node" << hotspot.value()
         << ")";
      return os.str();
    }
    case Kind::kNeighbor: return "neighbor";
  }
  return "?";
}

NodeId pick_destination(const Topology& topo, const PatternSpec& pattern,
                        NodeId src, Rng& rng) {
  // Traffic flows between endpoints.  On mesh/torus every node is one,
  // so the draws below are unchanged from the all-nodes form; on a fat
  // tree only the edge switches inject/eject and n counts just those.
  const std::uint32_t n = topo.num_endpoints();
  WS_CHECK(n >= 2);
  const bool fat = topo.spec().kind == TopologySpec::Kind::kFatTree;
  const auto next_of = [n](NodeId id) {
    return NodeId((id.value() + 1) % n);
  };
  NodeId dest = src;
  switch (pattern.kind) {
    case PatternSpec::Kind::kUniform:
      dest = topo.endpoint(static_cast<std::uint32_t>(rng.uniform_u64(n)));
      break;
    case PatternSpec::Kind::kTranspose: {
      if (fat) {
        // No grid to transpose: use the analogous fixed permutation, a
        // half-rotation of the endpoint ring (maximally non-local).
        dest = topo.endpoint((src.value() + n / 2) % n);
        break;
      }
      const Coord c = topo.coord(src);
      // Requires a square fabric to be a permutation; clamp otherwise.
      const Coord t{c.y % topo.spec().width, c.x % topo.spec().height};
      dest = topo.node(t);
      break;
    }
    case PatternSpec::Kind::kBitComplement:
      dest = topo.endpoint((n - 1) - src.value());
      break;
    case PatternSpec::Kind::kHotspot:
      dest = rng.bernoulli(pattern.hotspot_fraction)
                 ? pattern.hotspot
                 : topo.endpoint(
                       static_cast<std::uint32_t>(rng.uniform_u64(n)));
      break;
    case PatternSpec::Kind::kNeighbor: {
      if (fat) {
        dest = next_of(src);
        break;
      }
      const NodeId east = topo.neighbor(src, Direction::kEast);
      dest = east.is_valid() ? east : topo.neighbor(src, Direction::kWest);
      break;
    }
  }
  if (dest == src) dest = next_of(dest);
  return dest;
}

NetworkTrafficSource::NetworkTrafficSource(Network& network,
                                           const Config& config)
    : network_(network),
      config_(config),
      rng_(config.seed),
      injection_(network.topology().num_endpoints()) {}

void NetworkTrafficSource::refresh_injection(Cycle now, std::uint64_t epoch) {
  const Topology& topo = network_.topology();
  const FaultModel* faults = config_.faults;
  for (std::uint32_t n = 0; n < injection_.size(); ++n) {
    const NodeId src = topo.endpoint(n);
    Injection& inj = injection_[n];
    inj.rate = config_.packets_per_node_per_cycle;
    inj.burst_dest = NodeId::invalid();
    if (faults == nullptr) continue;
    inj.rate *= faults->injection_multiplier(now, src);
    if (inj.rate > 1.0) inj.rate = 1.0;
    const std::optional<NodeId> burst = faults->burst_destination(now, src);
    if (burst.has_value() && *burst != src &&
        burst->value() < topo.num_endpoints())
      inj.burst_dest = *burst;
  }
  injection_epoch_ = epoch;
  injection_valid_ = true;
}

void NetworkTrafficSource::tick(Cycle now) {
  next_cycle_ = now + 1;
  if (now >= config_.inject_until) return;
  const Topology& topo = network_.topology();
  const std::uint64_t epoch =
      config_.faults != nullptr ? config_.faults->injection_epoch(now) : 0;
  if (!injection_valid_ || epoch != injection_epoch_)
    refresh_injection(now, epoch);
  for (std::uint32_t n = 0; n < injection_.size(); ++n) {
    const Injection& inj = injection_[n];
    if (!rng_.bernoulli(inj.rate)) continue;
    const NodeId src = topo.endpoint(n);
    PacketDescriptor pkt;
    pkt.id = PacketId(next_id_++);
    pkt.flow = FlowId(n);  // fairness accounted per source node
    pkt.source = src;
    pkt.dest = pick_destination(topo, config_.pattern, src, rng_);
    if (inj.burst_dest.is_valid()) pkt.dest = inj.burst_dest;
    pkt.length = sample_length(rng_, config_.lengths);
    pkt.created = now;
    network_.inject(now, pkt);
    ++generated_;
  }
}

void NetworkTrafficSource::save_state(SnapshotWriter& w) const {
  for (const std::uint64_t word : rng_.state()) w.u64(word);
  w.u64(next_id_);
  w.u64(generated_);
  w.u64(next_cycle_);
}

void NetworkTrafficSource::restore_state(SnapshotReader& r) {
  Rng::State state;
  for (std::uint64_t& word : state) word = r.u64();
  if ((state[0] | state[1] | state[2] | state[3]) == 0)
    throw SnapshotError("traffic source RNG state is all zero");
  rng_.set_state(state);
  next_id_ = r.u64();
  generated_ = r.u64();
  next_cycle_ = r.u64();
  injection_valid_ = false;
}

TraceTrafficSource::TraceTrafficSource(Network& network, const Config& config)
    : network_(network), config_(config), rng_(config.seed) {
  WS_CHECK_MSG(config_.trace != nullptr, "trace source needs a trace");
}

void TraceTrafficSource::tick(Cycle now) {
  const Topology& topo = network_.topology();
  const std::vector<traffic::TraceEntry>& entries = config_.trace->entries;
  while (cursor_ < entries.size() && entries[cursor_].cycle <= now) {
    const traffic::TraceEntry& e = entries[cursor_];
    const NodeId src = topo.endpoint(e.flow.value() % topo.num_endpoints());
    PacketDescriptor pkt;
    pkt.id = PacketId(next_id_++);
    pkt.flow = FlowId(src.value());  // fairness accounted per source node
    pkt.source = src;
    pkt.dest = pick_destination(topo, config_.pattern, src, rng_);
    pkt.length = e.length;
    pkt.created = now;
    network_.inject(now, pkt);
    ++generated_;
    ++cursor_;
  }
}

void TraceTrafficSource::save_state(SnapshotWriter& w) const {
  for (const std::uint64_t word : rng_.state()) w.u64(word);
  w.u64(cursor_);
  w.u64(next_id_);
  w.u64(generated_);
}

void TraceTrafficSource::restore_state(SnapshotReader& r) {
  Rng::State state;
  for (std::uint64_t& word : state) word = r.u64();
  if ((state[0] | state[1] | state[2] | state[3]) == 0)
    throw SnapshotError("trace source RNG state is all zero");
  rng_.set_state(state);
  cursor_ = r.u64();
  if (cursor_ > config_.trace->entries.size())
    throw SnapshotError("trace source cursor is past the end of the trace");
  next_id_ = r.u64();
  generated_ = r.u64();
}

}  // namespace wormsched::wormhole
