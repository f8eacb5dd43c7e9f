#include "core/flow_state_pool.hpp"

#include "common/archive.hpp"

namespace wormsched::core {

void ActiveFifo::fields(Archive& a) {
  const std::uint64_t n = a.count("active", size_, num_flows_);
  if (a.saving()) {
    for_each([&a](std::uint32_t flow) { a.u32("", flow); });
    return;
  }
  clear();
  const auto range = below(static_cast<std::uint32_t>(num_flows_));
  for (std::uint64_t i = 0; i < n; ++i) {
    const Archive::Scope s = a.scope("active", i);
    std::uint32_t flow = 0;
    a.u32("", flow, range);
    if (linked_.test(flow)) a.fail("", "names a flow twice");
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

void PacketQueuePool::fields(Archive& a, QueueRow& q, FlowId flow) {
  const std::uint64_t n = a.count("packets", q.len);
  if (a.loading()) clear(q);
  std::uint32_t node = q.head;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Archive::Scope s = a.scope("packets", i);
    Packet p = a.saving() ? packet_at(flow, node) : Packet{};
    a.id("id", p.id);
    a.id("flow", p.flow);  // the queue's own flow
    a.i64("length", p.length, at_least<Flits>(1));
    a.u64("arrival", p.arrival);
    a.u64("first_service", p.first_service);
    a.u64("departure", p.departure);
    if (a.saving())
      node = next_[node];
    else
      push_back(q, p);
  }
}

void FlowStatePool::fields(Archive& a, const Range<double>* sc,
                           const Range<double>* weight) {
  if (a.loading()) rows_.clear();
  a.flow_table(
      "rows", num_flows(), Row{0.0, initial_weight_},
      [this](std::size_t f) { return rows_.find(id(f)); },
      [this](std::size_t f, Row&& r) { rows_.row(id(f), r.sc, r.weight); },
      [sc, weight](Archive& ar, Row& r, std::size_t) {
        ar.f64("sc", r.sc, sc);
        ar.f64("weight", r.weight, weight);
      });
  active_.fields(a);
}

}  // namespace wormsched::core
