// Structure-of-arrays per-flow scheduler state, sized for 1M+ flows.
//
// The seed implementation kept an object per flow: a RingBuffer<Packet>
// per queue and an AoS FlowState{sc, weight, intrusive list hook} per
// discipline, linked into pointer-chasing activation lists.  At paper
// cardinality (tens of flows) that is fine; at a million flows the
// per-object overhead dominates memory (an empty RingBuffer costs ~32
// bytes before a single packet arrives) and every list hop is a cold
// pointer dereference.
//
// This header replaces all of it with three flat-array primitives:
//
//   * PacketQueuePool — every flow's FIFO packet queue, stored as
//     parallel arrays of packet fields over a shared node store with an
//     intrusive freelist.  An idle flow costs exactly one {head, tail,
//     len} row (12 bytes); queued packets cost one node each regardless
//     of which flow owns them.  Growth is geometric, so the steady state
//     allocates nothing (the Theorem 1 per-packet cost stays O(1)).
//   * ActiveFifo — the disciplines' activation list as index links in a
//     contiguous u32 array plus an epoch-stamped membership bitset
//     (common/epoch_bitset.hpp).  Push/pop/membership are O(1) array
//     ops; clearing on restore is O(1) via the epoch bump.  FIFO order
//     is preserved exactly — ERR's round-robin order is activation
//     order, so a plain bitset walk would change schedules.
//   * FlowStatePool — the per-flow accounting rows (SC/deficit/credit
//     and weight/quantum) shared by the round-robin family, plus an
//     ActiveFifo, with bulk serialization helpers that emit the legacy
//     v1 snapshot byte layout so existing snapshots restore unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/epoch_bitset.hpp"
#include "common/types.hpp"
#include "core/packet.hpp"

namespace wormsched {
class SnapshotReader;
class SnapshotWriter;
}  // namespace wormsched

namespace wormsched::core {

inline constexpr std::uint32_t kPoolNil = 0xFFFFFFFFu;

/// FIFO of flow indices with O(1) push_back / pop_front / membership and
/// O(1) whole-list clear.  Links live in one contiguous u32 array; the
/// membership bit doubles as the is_linked() check the old intrusive
/// hooks provided.
class ActiveFifo {
 public:
  explicit ActiveFifo(std::size_t num_flows)
      : next_(num_flows, kPoolNil), linked_(num_flows) {}

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool contains(std::uint32_t flow) const {
    return linked_.test(flow);
  }

  void push_back(std::uint32_t flow) {
    WS_CHECK_MSG(!linked_.test(flow), "push_back of an already-linked flow");
    linked_.set(flow);
    next_[flow] = kPoolNil;
    if (tail_ == kPoolNil) {
      head_ = flow;
    } else {
      next_[tail_] = flow;
    }
    tail_ = flow;
    ++size_;
  }

  [[nodiscard]] std::uint32_t front() const {
    WS_CHECK(size_ > 0);
    return head_;
  }

  std::uint32_t pop_front() {
    WS_CHECK(size_ > 0);
    const std::uint32_t flow = head_;
    head_ = next_[flow];
    if (head_ == kPoolNil) tail_ = kPoolNil;
    linked_.clear(flow);
    --size_;
    return flow;
  }

  void clear() {
    head_ = tail_ = kPoolNil;
    size_ = 0;
    linked_.clear_all();
  }

  /// Walks the list head-to-tail (checkpointing; FIFO order is the
  /// observable round-robin order and must be serialized exactly).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t i = head_; i != kPoolNil; i = next_[i]) fn(i);
  }

  /// Legacy snapshot layout: u64 size, then the flow ids head-to-tail.
  void save(SnapshotWriter& w) const;
  /// `label` names the list in error messages, e.g. "ERR ActiveList".
  void restore(SnapshotReader& r, std::string_view label);

 private:
  std::vector<std::uint32_t> next_;
  EpochBitset linked_;
  std::uint32_t head_ = kPoolNil;
  std::uint32_t tail_ = kPoolNil;
  std::size_t size_ = 0;
};

/// All flows' FIFO packet queues over one shared structure-of-arrays
/// node store.  Nodes are recycled through an intrusive freelist and the
/// arrays grow geometrically, so sustained enqueue/dequeue traffic at
/// any flow count allocates nothing once the high-water mark is reached.
class PacketQueuePool {
 public:
  explicit PacketQueuePool(std::size_t num_flows)
      : head_(num_flows, kPoolNil), tail_(num_flows, kPoolNil), len_(num_flows, 0) {}

  [[nodiscard]] std::size_t num_flows() const { return head_.size(); }
  [[nodiscard]] bool empty(std::size_t flow) const { return len_[flow] == 0; }
  [[nodiscard]] std::size_t size(std::size_t flow) const { return len_[flow]; }

  void push_back(std::size_t flow, const Packet& p) {
    const std::uint32_t node = alloc_node();
    id_[node] = p.id.value();
    length_[node] = p.length;
    arrival_[node] = p.arrival;
    first_service_[node] = p.first_service;
    departure_[node] = p.departure;
    next_[node] = kPoolNil;
    if (tail_[flow] == kPoolNil) {
      head_[flow] = node;
    } else {
      next_[tail_[flow]] = node;
    }
    tail_[flow] = node;
    ++len_[flow];
  }

  /// Materializes the head packet (its flow field is the queue's flow).
  [[nodiscard]] Packet front(std::size_t flow) const {
    return packet_at(flow, head_node(flow));
  }

  Packet pop_front(std::size_t flow) {
    const std::uint32_t node = head_node(flow);
    const Packet p = packet_at(flow, node);
    head_[flow] = next_[node];
    if (head_[flow] == kPoolNil) tail_[flow] = kPoolNil;
    --len_[flow];
    free_node(node);
    return p;
  }

  /// --- Hot-path head-field access (no Packet materialization) ---------
  [[nodiscard]] Flits head_length(std::size_t flow) const {
    return length_[head_node(flow)];
  }
  [[nodiscard]] PacketId head_id(std::size_t flow) const {
    return PacketId(id_[head_node(flow)]);
  }
  [[nodiscard]] Cycle head_first_service(std::size_t flow) const {
    return first_service_[head_node(flow)];
  }
  void set_head_first_service(std::size_t flow, Cycle c) {
    first_service_[head_node(flow)] = c;
  }
  void set_head_departure(std::size_t flow, Cycle c) {
    departure_[head_node(flow)] = c;
  }

  /// --- Per-node stamps (timestamp disciplines tag queued packets) -----
  [[nodiscard]] double head_stamp(std::size_t flow) const {
    return stamp_[head_node(flow)];
  }
  void set_tail_stamp(std::size_t flow, double s) {
    WS_CHECK(tail_[flow] != kPoolNil);
    stamp_[tail_[flow]] = s;
  }
  template <typename Fn>
  void for_each_stamp(std::size_t flow, Fn&& fn) const {
    for (std::uint32_t n = head_[flow]; n != kPoolNil; n = next_[n])
      fn(stamp_[n]);
  }
  /// Overwrites the queue's stamps head-to-tail with `count` values from
  /// `next_value()`; `count` must equal the queue length.
  template <typename Fn>
  void assign_stamps(std::size_t flow, std::size_t count, Fn&& next_value) {
    WS_CHECK(count == len_[flow]);
    for (std::uint32_t n = head_[flow]; n != kPoolNil; n = next_[n])
      stamp_[n] = next_value();
  }

  /// --- Checkpointing ---------------------------------------------------
  /// Legacy v1 byte layout: u64 count, then each packet's fields in
  /// arrival order — indistinguishable from the seed's per-flow
  /// RingBuffer<Packet> serialization.
  void save_flow(SnapshotWriter& w, std::size_t flow) const;
  void restore_flow(SnapshotReader& r, std::size_t flow);

 private:
  [[nodiscard]] std::uint32_t head_node(std::size_t flow) const {
    WS_CHECK_MSG(len_[flow] > 0, "head of an empty flow queue");
    return head_[flow];
  }

  [[nodiscard]] Packet packet_at(std::size_t flow, std::uint32_t node) const {
    Packet p;
    p.id = PacketId(id_[node]);
    p.flow = FlowId(static_cast<FlowId::rep_type>(flow));
    p.length = length_[node];
    p.arrival = arrival_[node];
    p.first_service = first_service_[node];
    p.departure = departure_[node];
    return p;
  }

  std::uint32_t alloc_node() {
    if (free_head_ == kPoolNil) grow();
    const std::uint32_t node = free_head_;
    free_head_ = next_[node];
    return node;
  }

  void free_node(std::uint32_t node) {
    next_[node] = free_head_;
    free_head_ = node;
  }

  void grow();

  // Per-flow rows.
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> tail_;
  std::vector<std::uint32_t> len_;

  // Shared packet node store (parallel arrays; `next_` doubles as the
  // freelist link for free nodes).
  std::vector<std::uint64_t> id_;
  std::vector<Flits> length_;
  std::vector<Cycle> arrival_;
  std::vector<Cycle> first_service_;
  std::vector<Cycle> departure_;
  std::vector<double> stamp_;
  std::vector<std::uint32_t> next_;
  std::uint32_t free_head_ = kPoolNil;
};

/// The per-flow accounting rows shared by the round-robin family (ERR's
/// SC, DRR's deficit, SRR's credit — plus the weight/quantum column) and
/// the activation FIFO, in contiguous parallel arrays.
class FlowStatePool {
 public:
  FlowStatePool(std::size_t num_flows, double initial_weight)
      : sc_(num_flows, 0.0),
        weight_(num_flows, initial_weight),
        active_(num_flows) {}

  [[nodiscard]] std::size_t num_flows() const { return sc_.size(); }

  [[nodiscard]] double sc(std::size_t flow) const { return sc_[flow]; }
  void set_sc(std::size_t flow, double v) { sc_[flow] = v; }
  [[nodiscard]] double weight(std::size_t flow) const { return weight_[flow]; }
  void set_weight(std::size_t flow, double v) { weight_[flow] = v; }

  [[nodiscard]] ActiveFifo& active() { return active_; }
  [[nodiscard]] const ActiveFifo& active() const { return active_; }

  /// Bulk-serializes the accounting rows in the legacy per-flow
  /// interleaved layout: u64 flow count, then (sc, weight) per flow.
  void save_rows(SnapshotWriter& w) const;
  /// `what` names the discipline in the mismatch error, e.g. "ERR".
  void restore_rows(SnapshotReader& r, std::string_view what);

 private:
  std::vector<double> sc_;
  std::vector<double> weight_;
  ActiveFifo active_;
};

}  // namespace wormsched::core
