#include "common/tick_team.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace wormsched {
namespace {

TEST(SpinBarrier, SinglePartyNeverBlocks) {
  SpinBarrier barrier(1);
  for (int i = 0; i < 1000; ++i) barrier.arrive_and_wait();
}

TEST(TickTeam, SingleLaneRunsInline) {
  TickTeam team(1);
  EXPECT_EQ(team.lanes(), 1u);
  std::uint32_t seen = 99;
  team.run([&](std::uint32_t lane) { seen = lane; });
  EXPECT_EQ(seen, 0u);
}

TEST(TickTeam, EveryLaneRunsExactlyOncePerCall) {
  TickTeam team(4);
  ASSERT_EQ(team.lanes(), 4u);
  std::vector<std::atomic<int>> hits(4);
  for (int round = 0; round < 100; ++round)
    team.run([&](std::uint32_t lane) { ++hits[lane]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 100);
}

TEST(TickTeam, LanesSeeWritesFromBeforeRun) {
  // The start barrier must publish caller writes to every lane, and the
  // done barrier must publish lane writes back — the exact pattern the
  // sharded tick's wire pop, per-shard step and commit rely on.
  TickTeam team(3);
  std::vector<std::uint64_t> input(3, 0);
  std::vector<std::uint64_t> output(3, 0);
  std::uint64_t total = 0;
  for (std::uint64_t round = 1; round <= 500; ++round) {
    for (std::uint64_t l = 0; l < 3; ++l) input[l] = round * 10 + l;
    team.run([&](std::uint32_t lane) { output[lane] = input[lane] * 2; });
    for (std::uint64_t l = 0; l < 3; ++l) total += output[l];
  }
  std::uint64_t expect = 0;
  for (std::uint64_t round = 1; round <= 500; ++round)
    for (std::uint64_t l = 0; l < 3; ++l) expect += (round * 10 + l) * 2;
  EXPECT_EQ(total, expect);
}

TEST(TickTeam, WorkerExceptionReachesTheCaller) {
  TickTeam team(4);
  EXPECT_THROW(team.run([](std::uint32_t lane) {
    if (lane == 2) throw std::runtime_error("lane 2 failed");
  }),
               std::runtime_error);
  // The team stays usable after the error is consumed.
  std::atomic<int> ran{0};
  team.run([&](std::uint32_t) { ++ran; });
  EXPECT_EQ(ran.load(), 4);
}

TEST(TickTeam, CallerLaneExceptionAlsoPropagates) {
  TickTeam team(2);
  EXPECT_THROW(team.run([](std::uint32_t lane) {
    if (lane == 0) throw std::runtime_error("lane 0 failed");
  }),
               std::runtime_error);
}

TEST(TickTeam, ManyRapidRoundsStayConsistent) {
  // Task-storm stress: thousands of tiny fork/joins back to back, the
  // cadence of a per-cycle tick.  Any lost wakeup or generation mixup
  // deadlocks or drops a round.
  TickTeam team(4);
  std::vector<std::uint64_t> sums(4, 0);
  for (std::uint64_t round = 0; round < 5000; ++round)
    team.run([&](std::uint32_t lane) { sums[lane] += round; });
  const std::uint64_t per_lane = 5000ull * 4999ull / 2ull;
  for (const std::uint64_t s : sums) EXPECT_EQ(s, per_lane);
}

TEST(TickTeam, DestructionWithNoRunsIsClean) {
  TickTeam team(8);
  EXPECT_EQ(team.lanes(), 8u);
}

}  // namespace
}  // namespace wormsched
