// SoA pool primitives under the million-flow scheduler core.
//
// ActiveFifo is fuzzed against a std::deque + membership-flag model (the
// seed's intrusive-list semantics), PacketQueuePool's queues against
// per-flow std::deque<Packet> queues — the pre-pool state layouts the SoA
// migration replaced.  Exact FIFO order is the observable round-robin
// order, so the differentials compare order, not just membership.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "common/archive.hpp"
#include "common/snapshot.hpp"
#include "core/flow_state_pool.hpp"

namespace wormsched::core {
namespace {

TEST(ActiveFifo, PreservesActivationOrder) {
  ActiveFifo fifo(8);
  fifo.push_back(5);
  fifo.push_back(2);
  fifo.push_back(7);
  EXPECT_EQ(fifo.size(), 3u);
  EXPECT_TRUE(fifo.contains(2));
  EXPECT_FALSE(fifo.contains(3));
  EXPECT_EQ(fifo.front(), 5u);
  EXPECT_EQ(fifo.pop_front(), 5u);
  fifo.push_back(5);  // re-activation goes to the back
  EXPECT_EQ(fifo.pop_front(), 2u);
  EXPECT_EQ(fifo.pop_front(), 7u);
  EXPECT_EQ(fifo.pop_front(), 5u);
  EXPECT_TRUE(fifo.empty());
}

TEST(ActiveFifo, DifferentialFuzzAgainstDequeModel) {
  const std::uint32_t n = 61;
  ActiveFifo fifo(n);
  std::deque<std::uint32_t> model;
  std::vector<bool> linked(n, false);
  Rng rng(77);
  for (int op = 0; op < 100'000; ++op) {
    const std::uint64_t kind = rng.uniform_u64(100);
    if (kind < 50) {
      const auto flow = static_cast<std::uint32_t>(rng.uniform_u64(n));
      if (!linked[flow]) {
        fifo.push_back(flow);
        model.push_back(flow);
        linked[flow] = true;
      }
      ASSERT_TRUE(fifo.contains(flow));
    } else if (kind < 95) {
      if (!model.empty()) {
        ASSERT_EQ(fifo.front(), model.front());
        ASSERT_EQ(fifo.pop_front(), model.front());
        linked[model.front()] = false;
        model.pop_front();
      } else {
        ASSERT_TRUE(fifo.empty());
      }
    } else if (kind < 99) {
      ASSERT_EQ(fifo.size(), model.size());
    } else {
      fifo.clear();
      model.clear();
      linked.assign(n, false);
    }
  }
  while (!model.empty()) {
    ASSERT_EQ(fifo.pop_front(), model.front());
    model.pop_front();
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(ActiveFifo, SaveRestoreRoundTripsOrder) {
  ActiveFifo fifo(16);
  for (const std::uint32_t f : {9u, 1u, 14u, 0u}) fifo.push_back(f);
  SnapshotWriter w;
  save_fields(w, fifo);

  ActiveFifo restored(16);
  restored.push_back(3);  // stale state the restore must discard
  SnapshotReader r(w.bytes().data(), w.bytes().size());
  restore_fields(r, restored);
  EXPECT_EQ(restored.size(), 4u);
  EXPECT_FALSE(restored.contains(3));
  for (const std::uint32_t f : {9u, 1u, 14u, 0u})
    EXPECT_EQ(restored.pop_front(), f);
}

TEST(ActiveFifo, RestoreRejectsOutOfRangeFlow) {
  ActiveFifo fifo(32);
  fifo.push_back(31);
  SnapshotWriter w;
  save_fields(w, fifo);
  ActiveFifo small(8);
  SnapshotReader r(w.bytes().data(), w.bytes().size());
  EXPECT_THROW(restore_fields(r, small), SnapshotError);
}

Packet make_packet(std::uint64_t id, std::uint32_t flow, Flits length,
                   Cycle arrival) {
  Packet p;
  p.id = PacketId(id);
  p.flow = FlowId(flow);
  p.length = length;
  p.arrival = arrival;
  return p;
}

TEST(PacketQueuePool, DifferentialFuzzAgainstPerFlowDeques) {
  const std::size_t flows = 23;
  PacketQueuePool pool;
  std::vector<QueueRow> queues(flows);
  std::vector<std::deque<Packet>> model(flows);
  Rng rng(12345);
  std::uint64_t next_id = 0;
  for (int op = 0; op < 100'000; ++op) {
    const std::size_t flow = rng.uniform_u64(flows);
    if (rng.uniform_u64(100) < 55) {
      const Packet p =
          make_packet(next_id++, static_cast<std::uint32_t>(flow),
                      static_cast<Flits>(1 + rng.uniform_u64(64)),
                      static_cast<Cycle>(op));
      pool.push_back(queues[flow], p);
      model[flow].push_back(p);
    } else if (!model[flow].empty()) {
      const Packet& expect = model[flow].front();
      ASSERT_EQ(pool.head_length(queues[flow]), expect.length);
      ASSERT_EQ(pool.head_id(queues[flow]), expect.id);
      const Packet got = pool.pop_front(
          queues[flow], FlowId(static_cast<std::uint32_t>(flow)));
      ASSERT_EQ(got.id, expect.id);
      ASSERT_EQ(got.flow.index(), flow);
      ASSERT_EQ(got.length, expect.length);
      ASSERT_EQ(got.arrival, expect.arrival);
      model[flow].pop_front();
    } else {
      ASSERT_EQ(queues[flow].len, 0u);
    }
    ASSERT_EQ(queues[flow].len, model[flow].size());
  }
}

TEST(PacketQueuePool, NodesAreRecycledAcrossFlows) {
  // Freelist check: churning one flow then another reuses the same
  // nodes — the steady-state footprint is the high-water mark, not the
  // total packet count (the zero-allocation claim's mechanism).
  PacketQueuePool pool;
  QueueRow queues[2];
  for (int round = 0; round < 1'000; ++round) {
    const auto flow = static_cast<std::uint32_t>(round & 1);
    for (std::uint64_t i = 0; i < 8; ++i)
      pool.push_back(queues[flow], make_packet(i, flow, 4, 0));
    for (std::uint64_t i = 0; i < 8; ++i)
      EXPECT_EQ(pool.pop_front(queues[flow], FlowId(flow)).id, PacketId(i));
    EXPECT_EQ(queues[flow].len, 0u);
  }
}

TEST(PacketQueuePool, StampsFollowTheirPackets) {
  PacketQueuePool pool;
  QueueRow q;
  for (std::uint64_t i = 0; i < 5; ++i) {
    pool.push_back(q, make_packet(i, 0, 1, 0));
    pool.set_tail_stamp(q, static_cast<double>(10 * i));
  }
  EXPECT_EQ(pool.head_stamp(q), 0.0);
  (void)pool.pop_front(q, FlowId(0));
  EXPECT_EQ(pool.head_stamp(q), 10.0);
  std::vector<double> stamps;
  pool.for_each_stamp(q, [&](double s) { stamps.push_back(s); });
  EXPECT_EQ(stamps, (std::vector<double>{10.0, 20.0, 30.0, 40.0}));
  int next = 0;
  pool.assign_stamps(q, 4, [&] { return static_cast<double>(next++); });
  EXPECT_EQ(pool.head_stamp(q), 0.0);
}

TEST(PacketQueuePool, SaveRestoreRoundTripsQueues) {
  PacketQueuePool pool;
  QueueRow queues[3];
  pool.push_back(queues[0], make_packet(1, 0, 7, 10));
  pool.push_back(queues[0], make_packet(2, 0, 3, 11));
  pool.push_back(queues[2], make_packet(3, 2, 9, 12));
  SnapshotWriter w;
  Archive saving(w);
  for (std::uint32_t f = 0; f < 3; ++f)
    pool.fields(saving, queues[f], FlowId(f));

  PacketQueuePool restored;
  QueueRow restored_queues[3];
  // Stale contents the restore must replace.
  restored.push_back(restored_queues[1], make_packet(99, 1, 1, 0));
  SnapshotReader r(w.bytes().data(), w.bytes().size());
  Archive a(r);
  std::vector<Flits> flits;
  for (std::uint32_t f = 0; f < 3; ++f) {
    restored.fields(a, restored_queues[f], FlowId(f));
    Flits sum = 0;
    restored.for_each_length(restored_queues[f],
                             [&sum](Flits length) { sum += length; });
    flits.push_back(sum);
  }
  EXPECT_EQ(flits, (std::vector<Flits>{10, 0, 9}));
  EXPECT_EQ(restored_queues[0].len, 2u);
  EXPECT_EQ(restored_queues[1].len, 0u);
  EXPECT_EQ(restored_queues[2].len, 1u);
  EXPECT_EQ(restored.pop_front(restored_queues[0], FlowId(0)).id,
            PacketId(1));
  EXPECT_EQ(restored.pop_front(restored_queues[0], FlowId(0)).length, 3);
  EXPECT_EQ(restored.pop_front(restored_queues[2], FlowId(2)).arrival, 12u);
}

TEST(FlowStatePool, RowsRoundTripThroughLegacyLayout) {
  FlowStatePool pool(4, 1.0);
  pool.set_sc(1, 2.5);
  pool.set_weight(3, 4.0);
  pool.active().push_back(3);
  pool.active().push_back(1);
  SnapshotWriter w;
  save_fields(w, pool);

  FlowStatePool restored(4, 1.0);
  restored.set_sc(0, 9.0);  // stale state the restore must overwrite
  SnapshotReader r(w.bytes().data(), w.bytes().size());
  restore_fields(r, restored);
  EXPECT_EQ(restored.sc(0), 0.0);
  EXPECT_EQ(restored.sc(1), 2.5);
  EXPECT_EQ(restored.weight(3), 4.0);
  EXPECT_EQ(restored.active().pop_front(), 3u);
  EXPECT_EQ(restored.active().pop_front(), 1u);
}

TEST(FlowStatePool, RestoreRejectsFlowCountMismatch) {
  FlowStatePool pool(8, 1.0);
  SnapshotWriter w;
  save_fields(w, pool);
  FlowStatePool other(4, 1.0);
  SnapshotReader r(w.bytes().data(), w.bytes().size());
  EXPECT_THROW(restore_fields(r, other), SnapshotError);
}

}  // namespace
}  // namespace wormsched::core
