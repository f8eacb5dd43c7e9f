// Allocation audit for the incremental network auditor: once the ledgers
// are seeded and every ring buffer has hit its high-water mark, an
// audited steady-state cycle — CycleDelta collection in the network,
// ledger ingest + verification in the auditor, and the periodic
// full-rescan cross-check — must execute without touching the heap.
//
// Same counting override of the global allocation functions as
// tests/wormhole/router_alloc_test.cpp.  The workload is one enormous
// packet: its worm streams through the fabric for the whole measured
// window, so there is per-cycle movement to audit but no packet delivery
// (the delivered log growing would be the network's cost, not the
// auditor's, and would drown the signal this test is after).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "validate/network_auditor.hpp"
#include "validate/violation.hpp"
#include "wormhole/network.hpp"
#include "../common/tick_loop.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
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

namespace wormsched::validate {
namespace {

TEST(NetworkAuditorAlloc, IncrementalSteadyStateIsAllocationFree) {
  wormhole::Network net(wormhole::NetworkConfig{});  // 4x4 mesh
  AuditLog log(AuditLog::Mode::kCount);
  NetworkAuditor auditor(NetworkAuditorConfig{}, log);  // incremental
  net.attach_observer(&auditor);
  ASSERT_TRUE(net.collecting_delta());

  // One 50k-flit worm corner to corner: movement every cycle for far
  // longer than the test runs, no delivery inside the window.
  net.inject(0, wormhole::PacketDescriptor{.id = PacketId(0),
                                           .flow = FlowId(0),
                                           .source = NodeId(0),
                                           .dest = NodeId(15),
                                           .length = 50'000});
  test::TickLoop loop(net);

  // Warm-up: buffers, wires, and the delta vectors reach their
  // high-water marks, the ledgers are seeded, and (at 256 checks) the
  // first periodic full-rescan cross-check exercises the scratch arrays.
  loop.run_until(512);
  ASSERT_GT(net.injected_flits(), 0);

  // Measured window: 1024 audited cycles including four full rescans.
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  loop.run_until(512 + 1024);
  const std::uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(auditor.checks_run(), 1024u);
  EXPECT_GE(auditor.full_rescans(), 4u);
  EXPECT_TRUE(log.clean());
}

TEST(NetworkAuditorAlloc, CounterObservesHeapTraffic) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  auto* p = new int(5);
  delete p;
  EXPECT_GT(g_allocations.load(std::memory_order_relaxed), before);
}

}  // namespace
}  // namespace wormsched::validate
