// Construction cost of the scheduler core per configured flow.
//
// The Scheduler frame and FlowStatePool build a flow's row on its first
// enqueue or set_weight (common/flow_rows.hpp); until then the flow costs
// one 4-byte slot in each.  Row capacity is reserved for every configured
// flow so that rows never move, but the kernel backs that capacity only
// where a row is written — so these tests read RSS growth, not counted
// bytes.  The dense layout the rows replaced grew RSS by about 48 bytes
// per flow for ERR, and about 113 for PERR with four classes, before the
// first cycle.
//
// Own binary, run in its own process per test: RSS growth only measures
// the scheduler when nothing else in the process is allocating.  It also
// overrides the global allocation functions to count the heap that live
// blocks hold, glibc chunk headers included.
#include <gtest/gtest.h>

#include <malloc.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/err.hpp"
#include "core/perr.hpp"

namespace {
// Heap bytes held by live operator-new blocks: a glibc chunk is its
// usable size plus one size_t header.
std::size_t g_heap_bytes = 0;

std::size_t chunk_bytes(void* p) {
  return malloc_usable_size(p) + sizeof(std::size_t);
}

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_heap_bytes += chunk_bytes(p);
  return p;
}

void counted_free(void* p) {
  if (p == nullptr) return;
  g_heap_bytes -= chunk_bytes(p);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace wormsched::core {
namespace {

constexpr std::size_t kFlows = 1'000'000;
constexpr std::size_t kBusyFlows = 10;

std::uint64_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t total_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// Five packets on each of kBusyFlows flows spread over the id space,
/// served to the end.
void serve_ten_flows(Scheduler& s) {
  PacketId::rep_type id = 0;
  for (std::size_t k = 0; k < kBusyFlows; ++k) {
    const FlowId flow(
        static_cast<FlowId::rep_type>(k * (kFlows / kBusyFlows)));
    for (Flits length = 1; length <= 5; ++length)
      s.enqueue(0,
                Packet{.id = PacketId(id++), .flow = flow, .length = length});
  }
  Cycle t = 0;
  while (!s.idle()) ASSERT_TRUE(s.pull_flit(t++).has_value());
  EXPECT_EQ(t, static_cast<Cycle>(kBusyFlows * 15));
}

/// RSS growth per configured flow across `build_and_serve`.
template <typename Fn>
double rss_per_flow(Fn&& build_and_serve) {
  const std::uint64_t before = rss_bytes();
  build_and_serve();
  const std::uint64_t after = rss_bytes();
  const std::uint64_t growth = after > before ? after - before : 0;
  return static_cast<double>(growth) / static_cast<double>(kFlows);
}

TEST(FlowRowsRss, ErrCostsAtMost12BytesPerFlow) {
  std::unique_ptr<ErrScheduler> s;
  const double per_flow = rss_per_flow([&] {
    s = std::make_unique<ErrScheduler>(ErrConfig{kFlows});
    serve_ten_flows(*s);
  });
  RecordProperty("rss_bytes_per_flow", std::to_string(per_flow));
  std::printf("ERR: %.2f RSS bytes per configured flow\n", per_flow);
  EXPECT_LE(per_flow, 12.0);
}

TEST(FlowRowsRss, PerrWithFourClassesCostsAtMost24BytesPerFlow) {
  // The priority map is the caller's configuration, built before the
  // baseline; the scheduler adopts it without a copy.
  PerrConfig config;
  config.num_flows = kFlows;
  config.priority_of.resize(kFlows);
  for (std::size_t f = 0; f < kFlows; ++f)
    config.priority_of[f] = static_cast<std::uint32_t>(f % 4);
  std::unique_ptr<PerrScheduler> s;
  const double per_flow = rss_per_flow([&] {
    s = std::make_unique<PerrScheduler>(std::move(config));
    serve_ten_flows(*s);
  });
  ASSERT_EQ(s->num_classes(), 4u);
  RecordProperty("rss_bytes_per_flow", std::to_string(per_flow));
  std::printf("PERR (4 classes): %.2f RSS bytes per configured flow\n",
              per_flow);
  EXPECT_LE(per_flow, 24.0);
}

TEST(FlowRowsRss, SmallErrPolicyHeapNoLargerThanTheDenseLayout) {
  // A fabric ERR arbiter's policy over 10 requesters, every one active.
  // The dense layout held five vectors (SC and weight doubles, links,
  // membership words and their stamps): 96 + 96 + 48 + 32 + 32 = 304
  // bytes of glibc chunks.
  const std::size_t before = g_heap_bytes;
  ErrPolicy policy(ErrConfig{10});
  for (std::uint32_t f = 0; f < 10; ++f) policy.flow_activated(FlowId(f));
  const std::size_t heap = g_heap_bytes - before;
  RecordProperty("heap_bytes", std::to_string(heap));
  std::printf("10-requester ErrPolicy: %zu heap bytes\n", heap);
  EXPECT_LE(heap, 304u);
}

}  // namespace
}  // namespace wormsched::core
