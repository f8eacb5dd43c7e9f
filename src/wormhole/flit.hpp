// Flit-level types for the wormhole network substrate.
//
// Wormhole switching (Sec. 1 of the paper): packets are split into flits;
// only the head flit carries routing information, and the remaining flits
// follow its path.  Once a head flit is routed to an output queue, no
// other packet's flits may enter that queue until the tail flit passes.
//
// What a flit-hop moves is therefore small: a Flit names its packet by a
// slot in the network's PacketTable, which holds the packet's id, flow,
// source, dest, length and creation cycle once, from inject() to tail
// ejection.  The flit itself is 12 bytes: the slot, its index, its type
// and the VC class it travels on.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"

namespace wormsched {
class Archive;
}  // namespace wormsched

namespace wormsched::wormhole {

enum class FlitType : std::uint8_t {
  kHead,      // carries routing info; opens the worm
  kBody,      // payload
  kTail,      // closes the worm, releases channel state
  kHeadTail,  // single-flit packet
};

[[nodiscard]] constexpr bool is_head(FlitType t) {
  return t == FlitType::kHead || t == FlitType::kHeadTail;
}
[[nodiscard]] constexpr bool is_tail(FlitType t) {
  return t == FlitType::kTail || t == FlitType::kHeadTail;
}

/// A packet's slot in its network's PacketTable.
using PacketSlot = std::uint32_t;

/// The longest packet a flit index can address.
inline constexpr Flits kMaxPacketFlits =
    std::numeric_limits<std::uint32_t>::max();

struct Flit {
  /// The packet's slot in the PacketTable of the network holding it.
  PacketSlot slot = 0;
  /// 0-based position within the packet.
  std::uint32_t index = 0;
  FlitType type = FlitType::kBody;
  /// Virtual-channel class, used for torus dateline deadlock avoidance.
  std::uint8_t vc_class = 0;
};
static_assert(sizeof(Flit) <= 16, "a flit-hop moves at most 16 bytes");

struct PacketDescriptor {
  PacketId id;
  FlowId flow;
  NodeId source;
  NodeId dest;
  Flits length = 1;
  Cycle created = 0;
};

/// The packets a network holds, each stored once from inject() to tail
/// ejection and named by the slot its flits carry.  A released slot is
/// reused by the next add(), so the table's size tracks the packets held
/// at once, and steady state allocates nothing.
class PacketTable {
 public:
  /// Files `packet` and returns its slot.
  PacketSlot add(const PacketDescriptor& packet) {
    if (free_.empty()) {
      packets_.push_back(packet);
      return static_cast<PacketSlot>(packets_.size() - 1);
    }
    const PacketSlot slot = free_.back();
    free_.pop_back();
    packets_[slot] = packet;
    return slot;
  }
  /// Frees `slot` for reuse; no flit may name it afterwards.
  void release(PacketSlot slot) { free_.push_back(slot); }

  [[nodiscard]] const PacketDescriptor& operator[](PacketSlot slot) const {
    return packets_[slot];
  }
  /// Packets held (slots taken and not released).
  [[nodiscard]] std::size_t size() const {
    return packets_.size() - free_.size();
  }
  /// Slots ever taken at once: the table's high-water mark.
  [[nodiscard]] std::size_t capacity() const { return packets_.size(); }

  /// --- Restore --------------------------------------------------------
  /// A checkpoint writes every flit with its packet's fields spelled out
  /// (flit_snapshot.hpp), so a restore files each packet again: clear(),
  /// add() per queued NIC packet and restore_sending() per NIC part-way
  /// through its front packet, restore_flit() per flit record, then
  /// finish_restore().
  ///
  /// Empties the table.
  void clear();
  /// Marks queued packet `front` as `sent` flits out of its NIC (its
  /// cursor, read last through `a`): the flit records that carry its id
  /// are those flits.  Rejects a second NIC sending the same id.
  void restore_sending(Archive& a, PacketSlot front, Flits sent);
  /// The slot of one restored flit record: the first record of a packet
  /// id files it, later ones share that slot.  Throws a SnapshotError
  /// naming the offending field of the record (through `a`) when it
  /// disagrees with the flits of its packet read before it, repeats one
  /// of their indices, lies past its packet's tail, contradicts its NIC
  /// front packet, or has an index its type rules out.
  PacketSlot restore_flit(Archive& a, const PacketDescriptor& packet,
                          FlitType type, std::uint32_t index);
  /// Drops the index of packet ids a restore keeps.
  void finish_restore();

 private:
  /// What a restore knows of one packet id in flight.
  struct Restoring {
    PacketSlot slot = 0;
    /// Flits of it its NIC has sent, or -1 when no NIC holds it.
    Flits nic_sent = -1;
    /// Its length once its NIC record or its tail fixed it, else -1.
    Flits length = -1;
    /// The highest index read so far.
    Flits max_index = -1;
  };

  std::vector<PacketDescriptor> packets_;
  std::vector<PacketSlot> free_;
  std::unordered_map<std::uint64_t, Restoring> restoring_;
  std::unordered_set<std::uint64_t> restored_flits_;  // slot << 32 | index
};

}  // namespace wormsched::wormhole
