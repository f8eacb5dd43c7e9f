// Fundamental units and strongly-typed identifiers used across the library.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>

namespace wormsched {

/// Simulation time, measured in flit cycles.  One cycle is the time the
/// output resource needs to transfer one flit (the paper's service model:
/// "the scheduler dequeues one flit from one of the queues in each cycle").
using Cycle = std::uint64_t;

/// Packet / allowance sizes measured in flits.  Surplus-count arithmetic
/// (Sent - Allowance) can transiently go negative, so the signed width is
/// deliberate.
using Flits = std::int64_t;

/// Payload sizes in bytes (a flit carries a fixed number of bytes).
using Bytes = std::uint64_t;

inline constexpr Cycle kCycleMax = std::numeric_limits<Cycle>::max();

/// A strongly-typed integral identifier.  Prevents accidentally passing a
/// flow id where a port id is expected; compiles to a bare integer.
template <typename Tag, typename Rep = std::uint32_t>
class StrongId {
 public:
  using rep_type = Rep;

  constexpr StrongId() = default;
  constexpr explicit StrongId(Rep value) : value_(value) {}

  [[nodiscard]] constexpr Rep value() const { return value_; }

  /// Identifier usable as a dense array index.
  [[nodiscard]] constexpr std::size_t index() const {
    return static_cast<std::size_t>(value_);
  }

  [[nodiscard]] static constexpr StrongId invalid() {
    return StrongId(std::numeric_limits<Rep>::max());
  }
  [[nodiscard]] constexpr bool is_valid() const {
    return value_ != std::numeric_limits<Rep>::max();
  }

  constexpr auto operator<=>(const StrongId&) const = default;

 private:
  Rep value_ = std::numeric_limits<Rep>::max();
};

struct FlowIdTag {};
struct PacketIdTag {};
struct NodeIdTag {};

/// Identifies one traffic flow (paper Sec. 1: e.g. an input queue of a
/// wormhole switch, a virtual channel, or an Internet source-destination
/// pair).
using FlowId = StrongId<FlowIdTag>;
/// Identifies one packet, unique within a simulation run.
using PacketId = StrongId<PacketIdTag, std::uint64_t>;
/// Identifies one switch/end-node in a network topology.
using NodeId = StrongId<NodeIdTag>;

}  // namespace wormsched

template <typename Tag, typename Rep>
struct std::hash<wormsched::StrongId<Tag, Rep>> {
  std::size_t operator()(const wormsched::StrongId<Tag, Rep>& id) const {
    return std::hash<Rep>{}(id.value());
  }
};
