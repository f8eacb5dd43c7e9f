// Allocation audit for ScenarioResult's per-flow metrics tables.
//
// ServiceLog, ActivityTracker and DelayStats build a flow's row on its
// first event (common/flow_rows.hpp), so constructing the tables for a
// configured flow costs a 4-byte slot per table and a bit of activity
// state: about 12.1 bytes per flow.  The dense layout they replaced
// allocated about 160 bytes per flow (an empty vector or RunningStat plus
// an empty optional reservoir per flow and table) before the first cycle.
//
// The hook is a byte-counting override of the global allocation functions
// (same four shapes as metrics/delay_alloc_test.cpp).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness/scenario.hpp"

namespace {
std::atomic<std::uint64_t> g_allocated_bytes{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

std::uint64_t allocated_bytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace wormsched::harness {
namespace {

constexpr std::size_t kMillionFlows = 1'000'000;

TEST(ScenarioResultAlloc, ConstructionCostsAtMost16BytesPerFlow) {
  const std::uint64_t before = allocated_bytes();
  const ScenarioResult result(kMillionFlows, 8);
  const std::uint64_t bytes = allocated_bytes() - before;
  const double per_flow =
      static_cast<double>(bytes) / static_cast<double>(kMillionFlows);
  RecordProperty("bytes_per_flow", std::to_string(per_flow));
  EXPECT_LE(per_flow, 16.0) << bytes << " bytes";
  EXPECT_EQ(result.num_flows(), kMillionFlows);
}

TEST(ScenarioResultAlloc, TrafficPaysOnlyForTheFlowsThatCarryIt) {
  // Ten of a million flows carry traffic: their rows, cycle lists and
  // reservoirs (512 samples each at this flow count) stay far below what
  // a per-flow allocation would cost.
  ScenarioResult result(kMillionFlows, 8);
  const std::uint64_t before = allocated_bytes();
  for (Cycle t = 0; t < 1'000; ++t) {
    const FlowId flow(static_cast<FlowId::rep_type>((t % 10) * 99'991));
    core::FlitEvent flit;
    flit.flow = flow;
    result.service_log.on_flit(t, flit);
    result.activity.record(t, flow, t % 20 < 10);
    core::Packet p;
    p.flow = flow;
    p.length = 1;
    p.arrival = t;
    result.delays.on_packet_departure(t + 3, p);
  }
  result.activity.finish(1'000);
  const std::uint64_t bytes = allocated_bytes() - before;
  EXPECT_LT(bytes, std::uint64_t{1} << 18) << bytes << " bytes";
  EXPECT_EQ(result.service_log.grand_total(), 1'000);
  EXPECT_EQ(result.delays.packets(), 1'000u);
}

TEST(ScenarioResultAlloc, CounterObservesHeapTraffic) {
  const std::uint64_t before = allocated_bytes();
  auto* p = new double[32];
  delete[] p;
  EXPECT_GE(allocated_bytes() - before, 32 * sizeof(double));
}

}  // namespace
}  // namespace wormsched::harness
