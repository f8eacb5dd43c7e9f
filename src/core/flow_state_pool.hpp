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
// This header replaces all of it with three flat primitives:
//
//   * PacketQueuePool — the packet node store every flow's FIFO queue
//     lives in: parallel arrays of packet fields with an intrusive
//     freelist.  A queue itself is a 12-byte QueueRow {head, tail, len}
//     that the owner keeps in its per-flow row (core/scheduler.hpp), so
//     queued packets cost one node each regardless of which flow owns
//     them.  Growth is geometric, so the steady state allocates nothing
//     (the Theorem 1 per-packet cost stays O(1)).
//   * ActiveFifo — the disciplines' activation list as index links in a
//     contiguous u32 array plus an epoch-stamped membership bitset
//     (common/epoch_bitset.hpp).  Push/pop/membership are O(1) array
//     ops; clearing on restore is O(1) via the epoch bump.  FIFO order
//     is preserved exactly — ERR's round-robin order is activation
//     order, so a plain bitset walk would change schedules.  A link is
//     written before it is read, so the link array is allocated for
//     overwrite: an idle flow's link costs address space, not RSS.
//   * FlowStatePool — the per-flow accounting rows (SC/deficit/credit
//     and weight/quantum) shared by the round-robin family, plus an
//     ActiveFifo.  Rows are built on a flow's first activation or
//     set_weight (common/flow_rows.hpp), so an idle flow costs one
//     4-byte slot.  Serialization still emits one record per configured
//     flow — the default record for a flow without a row — so snapshots
//     keep their layout byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "common/epoch_bitset.hpp"
#include "common/flow_rows.hpp"
#include "common/types.hpp"
#include "core/packet.hpp"

namespace wormsched {
class Archive;
template <typename T>
struct Range;
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
      : next_(std::make_unique_for_overwrite<std::uint32_t[]>(num_flows)),
        num_flows_(num_flows),
        linked_(num_flows) {}

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

  /// Checkpoint state: the u64 size, then the flow ids head-to-tail.  A
  /// restore rejects a flow out of range or listed twice.
  void fields(Archive& a);

 private:
  // next_[f] is written by push_back(f) before anything reads it.
  std::unique_ptr<std::uint32_t[]> next_;
  std::size_t num_flows_;
  EpochBitset linked_;
  std::uint32_t head_ = kPoolNil;
  std::uint32_t tail_ = kPoolNil;
  std::size_t size_ = 0;
};

/// One flow's FIFO packet queue: links into a PacketQueuePool's nodes.
struct QueueRow {
  std::uint32_t head = kPoolNil;
  std::uint32_t tail = kPoolNil;
  std::uint32_t len = 0;
};

/// The packet nodes of every flow's FIFO queue, in one shared
/// structure-of-arrays store.  Nodes are recycled through an intrusive
/// freelist and the arrays grow geometrically, so sustained
/// enqueue/dequeue traffic at any flow count allocates nothing once the
/// high-water mark is reached.  The queues themselves are QueueRows the
/// caller owns; a Packet materialized from a queue takes `flow` from the
/// caller, since the nodes do not store it.
class PacketQueuePool {
 public:
  void push_back(QueueRow& q, const Packet& p) {
    const std::uint32_t node = alloc_node();
    id_[node] = p.id.value();
    length_[node] = p.length;
    arrival_[node] = p.arrival;
    first_service_[node] = p.first_service;
    departure_[node] = p.departure;
    next_[node] = kPoolNil;
    if (q.tail == kPoolNil) {
      q.head = node;
    } else {
      next_[q.tail] = node;
    }
    q.tail = node;
    ++q.len;
  }

  Packet pop_front(QueueRow& q, FlowId flow) {
    const std::uint32_t node = head_node(q);
    const Packet p = packet_at(flow, node);
    q.head = next_[node];
    if (q.head == kPoolNil) q.tail = kPoolNil;
    --q.len;
    free_node(node);
    return p;
  }

  /// Returns every node of `q` to the freelist.
  void clear(QueueRow& q);

  /// --- Hot-path head-field access (no Packet materialization) ---------
  [[nodiscard]] Flits head_length(const QueueRow& q) const {
    return length_[head_node(q)];
  }
  [[nodiscard]] PacketId head_id(const QueueRow& q) const {
    return PacketId(id_[head_node(q)]);
  }
  void set_head_first_service(const QueueRow& q, Cycle c) {
    first_service_[head_node(q)] = c;
  }
  void set_head_departure(const QueueRow& q, Cycle c) {
    departure_[head_node(q)] = c;
  }

  /// --- Per-node stamps (timestamp disciplines tag queued packets) -----
  [[nodiscard]] double head_stamp(const QueueRow& q) const {
    return stamp_[head_node(q)];
  }
  void set_tail_stamp(const QueueRow& q, double s) {
    WS_CHECK(q.tail != kPoolNil);
    stamp_[q.tail] = s;
  }
  template <typename Fn>
  void for_each_stamp(const QueueRow& q, Fn&& fn) const {
    for (std::uint32_t n = q.head; n != kPoolNil; n = next_[n]) fn(stamp_[n]);
  }
  /// Overwrites the queue's stamps head-to-tail with `count` values from
  /// `next_value()`; `count` must equal the queue length.
  template <typename Fn>
  void assign_stamps(const QueueRow& q, std::size_t count, Fn&& next_value) {
    WS_CHECK(count == q.len);
    for (std::uint32_t n = q.head; n != kPoolNil; n = next_[n])
      stamp_[n] = next_value();
  }

  template <typename Fn>
  void for_each_length(const QueueRow& q, Fn&& fn) const {
    for (std::uint32_t n = q.head; n != kPoolNil; n = next_[n])
      fn(length_[n]);
  }

  /// Checkpoint state of `flow`'s queue `q` (replaced on restore): a u64
  /// count, then each packet's fields in arrival order.  A packet's
  /// length is at least one flit.
  void fields(Archive& a, QueueRow& q, FlowId flow);

 private:
  [[nodiscard]] std::uint32_t head_node(const QueueRow& q) const {
    WS_CHECK_MSG(q.len > 0, "head of an empty flow queue");
    return q.head;
  }

  [[nodiscard]] Packet packet_at(FlowId flow, std::uint32_t node) const {
    Packet p;
    p.id = PacketId(id_[node]);
    p.flow = flow;
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

  // Parallel arrays over the nodes; `next_` doubles as the freelist link
  // for free nodes.
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
/// the activation FIFO.  A flow without a row reads SC 0 and the initial
/// weight; the first row() or set_*() call builds its row.
class FlowStatePool {
 public:
  struct Row {
    double sc;
    double weight;
  };

  FlowStatePool(std::size_t num_flows, double initial_weight)
      : rows_(num_flows), initial_weight_(initial_weight), active_(num_flows) {
    rows_.reserve_all();
  }

  [[nodiscard]] std::size_t num_flows() const { return rows_.num_flows(); }

  /// `flow`'s row, built on first use.  References stay valid: rows are
  /// reserved for every configured flow and never move.
  Row& row(std::size_t flow) {
    return rows_.row(id(flow), 0.0, initial_weight_);
  }

  [[nodiscard]] double sc(std::size_t flow) const {
    const Row* r = rows_.find(id(flow));
    return r == nullptr ? 0.0 : r->sc;
  }
  void set_sc(std::size_t flow, double v) { row(flow).sc = v; }
  [[nodiscard]] double weight(std::size_t flow) const {
    const Row* r = rows_.find(id(flow));
    return r == nullptr ? initial_weight_ : r->weight;
  }
  void set_weight(std::size_t flow, double v) { row(flow).weight = v; }

  /// The built rows, in build order.
  [[nodiscard]] std::span<const Row> rows() const { return rows_.rows(); }

  [[nodiscard]] ActiveFifo& active() { return active_; }
  [[nodiscard]] const ActiveFifo& active() const { return active_; }

  /// Checkpoint state: the accounting rows as a per-flow record table of
  /// (sc, weight), each within `sc` and `weight` when given, then the
  /// activation FIFO.
  void fields(Archive& a, const Range<double>* sc = nullptr,
              const Range<double>* weight = nullptr);

 private:
  static FlowId id(std::size_t flow) {
    return FlowId(static_cast<FlowId::rep_type>(flow));
  }

  FlowRows<Row> rows_;
  double initial_weight_;
  ActiveFifo active_;
};

}  // namespace wormsched::core
