#include "core/flow_state_pool.hpp"

#include <bit>
#include <limits>

#include "common/snapshot.hpp"

namespace wormsched::core {

void ActiveFifo::save(SnapshotWriter& w) const {
  w.u64(size_);
  for_each([&](std::uint32_t flow) { w.u32(flow); });
}

void ActiveFifo::restore(SnapshotReader& r, std::string_view label) {
  clear();
  const std::uint64_t linked = r.u64();
  if (linked > num_flows_)
    throw SnapshotError(std::string(label) + " longer than the flow table");
  for (std::uint64_t i = 0; i < linked; ++i) {
    const std::uint32_t flow = r.u32();
    if (flow >= num_flows_)
      throw SnapshotError(std::string(label) +
                          " names an out-of-range flow");
    if (linked_.test(flow))
      throw SnapshotError(std::string(label) + " names a flow twice");
    push_back(flow);
  }
}

void PacketQueuePool::grow() {
  // Geometric growth; every new node goes straight onto the freelist.
  const std::size_t old_size = next_.size();
  const std::size_t new_size = old_size == 0 ? 64 : old_size * 2;
  id_.resize(new_size);
  length_.resize(new_size);
  arrival_.resize(new_size);
  first_service_.resize(new_size);
  departure_.resize(new_size);
  stamp_.resize(new_size);
  next_.resize(new_size);
  for (std::size_t n = new_size; n > old_size; --n) {
    next_[n - 1] = free_head_;
    free_head_ = static_cast<std::uint32_t>(n - 1);
  }
}

void PacketQueuePool::clear(QueueRow& q) {
  while (q.head != kPoolNil) {
    const std::uint32_t node = q.head;
    q.head = next_[node];
    free_node(node);
  }
  q = QueueRow{};
}

void PacketQueuePool::save_queue(SnapshotWriter& w, const QueueRow& q,
                                 FlowId flow) const {
  w.u64(q.len);
  for (std::uint32_t n = q.head; n != kPoolNil; n = next_[n]) {
    w.u64(id_[n]);
    w.u32(flow.value());
    w.i64(length_[n]);
    w.u64(arrival_[n]);
    w.u64(first_service_[n]);
    w.u64(departure_[n]);
  }
}

Flits PacketQueuePool::restore_queue(SnapshotReader& r, QueueRow& q,
                                     std::uint64_t count) {
  clear(q);
  Flits flits = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    Packet p;
    p.id = PacketId(r.u64());
    (void)r.u32();  // the queue's own flow
    p.length = r.i64();
    p.arrival = r.u64();
    p.first_service = r.u64();
    p.departure = r.u64();
    if (p.length <= 0 ||
        p.length > std::numeric_limits<Flits>::max() - flits)
      throw SnapshotError("snapshot queues a packet of " +
                          std::to_string(p.length) + " flits");
    flits += p.length;
    push_back(q, p);
  }
  return flits;
}

void FlowStatePool::save_rows(SnapshotWriter& w) const {
  w.u64(num_flows());
  for (std::size_t f = 0; f < num_flows(); ++f) {
    const Row* r = rows_.find(id(f));
    w.f64(r == nullptr ? 0.0 : r->sc);
    w.f64(r == nullptr ? initial_weight_ : r->weight);
  }
}

void FlowStatePool::restore_rows(SnapshotReader& r, std::string_view what) {
  const std::uint64_t n = r.u64();
  if (n != num_flows())
    throw SnapshotError(std::string(what) + " snapshot has " +
                        std::to_string(n) + " flows, this policy has " +
                        std::to_string(num_flows()));
  rows_.clear();
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t f = 0; f < num_flows(); ++f) {
    const double sc = r.f64();
    const double weight = r.f64();
    if (bits(sc) != bits(0.0) || bits(weight) != bits(initial_weight_))
      rows_.row(id(f), sc, weight);
  }
}

}  // namespace wormsched::core
