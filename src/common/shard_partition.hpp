// Balanced contiguous partitioning for the sharded network tick.
//
// The sharded tick assigns each router to exactly one shard domain and
// commits cross-shard traffic in shard-ascending order.  Determinism
// rests on the ranges being CONTIGUOUS and ASCENDING: a single-threaded
// tick pushes wire entries in router-ascending order (routers tick
// ascending, each port walk is ascending), so concatenating per-shard
// send queues shard by shard reproduces its FIFO contents byte for byte.
// Any other assignment (round-robin, hash) would break that equivalence.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace wormsched {

/// One shard's half-open item range [begin, end).
struct ShardRange {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;

  [[nodiscard]] std::uint32_t size() const { return end - begin; }
  bool operator==(const ShardRange&) const = default;
};

/// Splits [0, count) into at most `shards` contiguous, ascending,
/// non-empty ranges whose sizes differ by at most one.  Requesting more
/// shards than items clamps to one item per shard (a 1x1 mesh with
/// --shards 8 yields a single serial shard); `count == 0` yields no
/// shards.  `shards == 0` is treated as 1.
[[nodiscard]] inline std::vector<ShardRange> make_shard_partition(
    std::uint32_t count, std::uint32_t shards) {
  std::vector<ShardRange> ranges;
  if (count == 0) return ranges;
  shards = std::clamp<std::uint32_t>(shards, 1, count);
  ranges.reserve(shards);
  const std::uint32_t base = count / shards;
  const std::uint32_t extra = count % shards;
  std::uint32_t at = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::uint32_t size = base + (s < extra ? 1 : 0);
    ranges.push_back(ShardRange{at, at + size});
    at += size;
  }
  return ranges;
}

}  // namespace wormsched
