#include "wormhole/patterns.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

#include "common/assert.hpp"
#include "common/archive.hpp"

namespace wormsched::wormhole {

namespace {

/// A source's RNG state: four words, not all zero (an all-zero
/// xoshiro state never leaves zero).
void rng_fields(Archive& a, Rng& rng) {
  Rng::State state = rng.state();
  a.each("rng", state, [&a](std::uint64_t& word) { a.u64("", word); });
  if (!a.loading()) return;
  if ((state[0] | state[1] | state[2] | state[3]) == 0)
    a.fail("rng", "is all zero");
  rng.set_state(state);
}

}  // namespace

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

void NetworkTrafficSource::fields(Archive& a) {
  rng_fields(a, rng_);
  a.u64("next_id", next_id_);
  a.u64("generated", generated_);
  a.u64("next_cycle", next_cycle_);
  if (a.loading()) injection_valid_ = false;
}

void NetworkTrafficSource::save_state(SnapshotWriter& w) const {
  save_fields(w, *this);
}

void NetworkTrafficSource::restore_state(SnapshotReader& r) {
  restore_fields(r, *this);
}

TraceTrafficSource::TraceTrafficSource(Network& network, const Config& config)
    : network_(network), config_(config), rng_(config.seed) {
  WS_CHECK_MSG(config_.trace != nullptr, "trace source needs a trace");
  const Flits longest = config_.trace->max_observed_length();
  if (longest > kMaxPacketFlits)
    throw std::invalid_argument(
        "trace holds a packet of " + std::to_string(longest) +
        " flits; a fabric packet has at most " +
        std::to_string(kMaxPacketFlits));
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

void TraceTrafficSource::fields(Archive& a) {
  rng_fields(a, rng_);
  std::uint64_t cursor = cursor_;
  a.u64("cursor", cursor,
        at_most<std::uint64_t>(config_.trace->entries.size()));
  if (a.loading()) cursor_ = static_cast<std::size_t>(cursor);
  a.u64("next_id", next_id_);
  a.u64("generated", generated_);
}

}  // namespace wormsched::wormhole
