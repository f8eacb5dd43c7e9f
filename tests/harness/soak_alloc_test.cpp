// Soak-mode memory-flatness audit: a windowed-stats soak must reach a
// steady state with ZERO heap allocations per cycle, so memory stays
// flat over unbounded horizons (docs/TESTING.md).
//
// The hook is a counting override of the global allocation functions
// (same four shapes as wormhole/router_alloc_test.cpp), plus RSS
// sampling from /proc/self/statm.  The run warms up until every lazy
// structure has reached its high-water mark — ring buffers at depth, the
// latency quantile reservoir at capacity (the last allocator in the
// delivery path) — then the second half of the run must allocate
// nothing and hold RSS flat.
//
// The default horizon keeps the sanitizer CI legs tolerable; the
// release CI job reruns this binary with WS_SOAK_CYCLES=5000000 for the
// full five-million-cycle claim.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>

#include "harness/checkpoint.hpp"
#include "harness/network_sweep.hpp"
#include "metrics/windowed.hpp"
#include "wormhole/network.hpp"

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

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
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

/// Resident set size in bytes, from /proc/self/statm.
std::uint64_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t total_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

Cycle soak_cycles() {
  if (const char* env = std::getenv("WS_SOAK_CYCLES")) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<Cycle>(v);
  }
  return 2'000'000;
}

TEST(SoakAlloc, SteadyStateAllocatesNothingAndHoldsRssFlat) {
  const Cycle cycles = soak_cycles();
  const Cycle window = 10'000;

  NetworkScenarioConfig config;
  config.network.topo = wormhole::TopologySpec::mesh(8, 8);
  config.network.record_delivered = false;  // the soak contract
  config.traffic.packets_per_node_per_cycle = 0.02;
  config.traffic.lengths = traffic::LengthSpec::uniform(1, 16);
  config.traffic.inject_until = cycles;  // inject for the whole horizon

  metrics::WindowedConfig wconfig;
  wconfig.window = window;
  metrics::SteadyStateTracker tracker(wconfig);

  NetworkRun run(config, 7);

  // Warm-up phase: first half of the horizon.  Everything that grows
  // lazily must top out here; the quantile reservoir (capacity 2^20
  // samples) is the slowest filler, so assert it really is full before
  // the measured phase starts — otherwise the zero-alloc assertion
  // below would be vacuous about the delivery path.
  const Cycle measured_from = cycles / 2;
  while (!run.done() && run.now() < measured_from) {
    run.advance_to(std::min<Cycle>(run.now() + window, measured_from));
    tracker.observe(run.now(), run.network().latency_overall(),
                    run.network().delivered_flits());
  }
  ASSERT_FALSE(run.done());
  ASSERT_GE(run.network().latency_quantiles().sample_count(),
            std::uint64_t{1} << 20)
      << "warm-up too short to fill the latency reservoir; raise "
         "WS_SOAK_CYCLES";
  ASSERT_TRUE(tracker.warmed_up());

  // Measured phase: second half of the horizon.  The alloc counter is
  // read LAST: rss_bytes() itself opens an ifstream, whose filebuf is a
  // heap allocation that must not be charged to the simulator.
  const std::uint64_t rss_before = rss_bytes();
  const std::uint64_t delivered_before = run.network().delivered_packets();
  const std::uint64_t allocs_before = allocations();
  while (!run.done() && run.now() < cycles) {
    run.advance_to(std::min<Cycle>(run.now() + window, cycles));
    tracker.observe(run.now(), run.network().latency_overall(),
                    run.network().delivered_flits());
  }
  const std::uint64_t allocs_after = allocations();
  const std::uint64_t rss_after = rss_bytes();

  EXPECT_EQ(run.now(), cycles);
  // The steady-state phase delivered a lot of traffic...
  EXPECT_GT(run.network().delivered_packets(), delivered_before);
  // ...with zero heap allocations anywhere in the stack: fabric, NIC
  // queues, traffic source, accumulators, tracker.
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state cycles allocated memory";
  // RSS flat: allow slack for lazily-touched pages of already-allocated
  // arenas (and sanitizer bookkeeping), but nothing resembling growth
  // proportional to the horizon.
  const std::uint64_t rss_growth =
      rss_after > rss_before ? rss_after - rss_before : 0;
  EXPECT_LT(rss_growth, std::uint64_t{8} * 1024 * 1024)
      << "RSS grew " << rss_growth << " bytes during steady state";

  const NetworkScenarioResult result = run.finish();
  EXPECT_GT(result.delivered_packets, 0u);
  EXPECT_GT(tracker.windows_closed(), 0u);
}

}  // namespace
}  // namespace wormsched::harness
