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
    : depth_(config.buffer_depth),
      id_(id),
      config_(config),
      num_nodes_(num_nodes),
      credit_flow_(config.flow_control == FlowControl::kCredit &&
                   config.buffer_model == BufferModel::kFinite),
      onoff_flow_(config.flow_control == FlowControl::kOnOff &&
                  config.buffer_model == BufferModel::kFinite),
      inputs_(kNumDirections * config.num_vcs),
      outputs_(kNumDirections * config.num_vcs) {
  if (const auto error = check_router_config(config))
    WS_CHECK_MSG(false, (error->option + ": " + error->message).c_str());
  WS_CHECK_MSG(id.value() < num_nodes, "router id outside the fabric");
  slab_.resize(inputs_.size() * depth_);
  for (std::uint32_t i = 0; i < inputs_.size(); ++i) {
    const std::uint32_t port = i / config.num_vcs;
    unit_port_[i] = static_cast<std::uint8_t>(port);
    unit_class_[i] = static_cast<std::uint8_t>(i % config.num_vcs);
    port_units_[port] |= bit(i);
  }
  onoff_pending_ = all_units();
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

void Router::grow_slab() {
  const std::uint32_t depth = depth_ * 2;
  std::vector<Flit> grown(inputs_.size() * depth);
  for (std::uint32_t g = 0; g < inputs_.size(); ++g) {
    InputVc& iv = inputs_[g];
    for (std::uint32_t i = 0; i < iv.size; ++i)
      grown[g * depth + i] = slab_[slab_index(g, i)];
    iv.head = 0;
  }
  slab_ = std::move(grown);
  depth_ = depth;
}

/// One input unit's ring as a sequence: what Archive::seq saves and
/// restores flit by flit.
class Router::BufferView {
 public:
  using value_type = Flit;
  BufferView(Router& r, std::uint32_t g) : r_(r), g_(g) {}
  [[nodiscard]] std::size_t size() const { return r_.inputs_[g_].size; }
  Flit& operator[](std::size_t i) {
    return r_.slab_[r_.slab_index(g_, static_cast<std::uint32_t>(i))];
  }
  void clear() {
    r_.inputs_[g_].head = 0;
    r_.inputs_[g_].size = 0;
  }
  /// Restore only: seq's count is at most the depth of a finite buffer.
  void push_back(const Flit& flit) {
    InputVc& iv = r_.inputs_[g_];
    if (iv.size == r_.depth_) r_.grow_slab();
    r_.slab_[r_.slab_index(g_, iv.size)] = flit;
    ++iv.size;
  }

 private:
  Router& r_;
  std::uint32_t g_;
};

void Router::fields(Archive& a, PacketTable& packets) {
  const auto units = static_cast<std::uint32_t>(inputs_.size());
  const std::uint32_t vcs = config_.num_vcs;
  const auto last_direction = static_cast<Direction>(kNumDirections - 1);
  const FlitContext flits{packets, below(num_nodes_), below(vcs)};
  a.fingerprint<std::uint64_t>("units", units);
  a.fingerprint("arbiter", config_.arbiter);
  const std::uint64_t depth = config_.buffer_model == BufferModel::kFinite
                                  ? config_.buffer_depth
                                  : Archive::kNoMax;
  for (std::uint32_t g = 0; g < units; ++g) {
    const Archive::Scope s = a.scope("inputs", g);
    InputVc& iv = inputs_[g];
    BufferView buffer(*this, g);
    a.seq("buffer", buffer, [&a, &flits](Flit& f) { flit_fields(a, f, flits); },
          depth);
    a.b("routed", iv.routed);
    a.enumeration<std::uint32_t>("out", iv.out, last_direction);
    a.u32("out_class", iv.out_class, below(vcs));
    a.b("off_sent", iv.off_sent);
  }
  for (std::uint32_t o = 0; o < units; ++o) {
    const Archive::Scope s = a.scope("outputs", o);
    OutputVc& ov = outputs_[o];
    a.u32("credits", ov.credits);
    a.b("bound", ov.bound);
    a.u32("owner", ov.owner, below(units));
    a.b("peer_on", ov.peer_on);
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
  // The next hysteresis pass evaluates every unit, as a fresh router's.
  onoff_pending_ = all_units();
}

Router::UnitMasks Router::implied_masks() const {
  UnitMasks masks;
  for (std::uint32_t u = 0; u < inputs_.size(); ++u) {
    if (!inputs_[u].routed && inputs_[u].size != 0) masks.routable |= bit(u);
    if (outputs_[u].arbiter->pending_total() > 0) masks.requesting |= bit(u);
    if (outputs_[u].bound) masks.bound |= bit(u);
  }
  return masks;
}

void Router::check_restored_state() const {
  std::uint64_t buffered = 0;
  for (std::uint32_t u = 0; u < inputs_.size(); ++u) {
    const OutputVc& ov = outputs_[u];
    buffered += inputs_[u].size;
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

void Router::accept_signal(Direction out, std::uint32_t cls, bool on) {
  WS_CHECK_MSG(onoff_flow_, "on/off signal outside on/off flow control");
  outputs_[unit(out, cls)].peer_on = on;
}

bool Router::can_accept_local(std::uint32_t cls) const {
  return config_.buffer_model == BufferModel::kInfinite ||
         inputs_[unit(Direction::kLocal, cls)].size < config_.buffer_depth;
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

}  // namespace wormsched::wormhole
