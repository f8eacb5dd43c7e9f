// Field offsets of a saved scheduler, for tests that craft CRC-valid
// checkpoints a run cannot produce.
//
// Scheduler::save_state writes two sections.  SABS holds, per configured
// flow, the packet queue (u64 count, then per packet: u64 id, u32 flow,
// i64 length, u64 arrival, first service and departure), then u64 n and
// one f64 weight per flow, u64 n and one i64 head progress per flow, the
// latch (bool, u32 flow) and the i64 backlog.  SIDS holds the
// discipline's state; ErrPolicy::save writes u64 n and (f64 SC, f64
// weight) per flow, the ActiveList (u64 count, u32 flows), the u64
// active count and visit count, f64 MaxSC and previous MaxSC, u64 round,
// the reset-on-idle and in-opportunity bools, the u32 flow in service and
// f64 allowance, sent and largest charge.  Every patch below overwrites a
// fixed-width field in place, so section lengths stay valid.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wormsched::test {

inline std::uint64_t get_le(const std::vector<std::uint8_t>& p,
                            std::size_t at, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i)
    v |= static_cast<std::uint64_t>(p[at + i]) << (8 * i);
  return v;
}

inline void put_le(std::vector<std::uint8_t>& p, std::size_t at,
                   std::size_t bytes, std::uint64_t v) {
  for (std::size_t i = 0; i < bytes; ++i)
    p[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void put_f64(std::vector<std::uint8_t>& p, std::size_t at, double v) {
  put_le(p, at, 8, std::bit_cast<std::uint64_t>(v));
}

/// One ErrPolicy::save image starting at `at`.
struct ErrImage {
  ErrImage(const std::vector<std::uint8_t>& p, std::size_t at) {
    flows = get_le(p, at, 8);
    rows_at = at + 8;
    list_at = rows_at + 16 * flows;
    for (std::uint64_t i = 0; i < get_le(p, list_at, 8); ++i)
      list.push_back(
          static_cast<std::uint32_t>(get_le(p, list_at + 8 + 4 * i, 4)));
    active_count_at = list_at + 8 + 4 * list.size();
    visits_at = active_count_at + 8;
    in_opportunity_at = visits_at + 8 + 8 + 8 + 8 + 1;
    current_at = in_opportunity_at + 1;
    end = current_at + 4 + 8 + 8 + 8;
  }

  [[nodiscard]] std::size_t weight_at(std::size_t flow) const {
    return rows_at + 16 * flow + 8;
  }

  std::uint64_t flows = 0;
  std::size_t rows_at = 0;
  std::size_t list_at = 0;
  std::vector<std::uint32_t> list;  // the ActiveList, head first
  std::size_t active_count_at = 0;
  std::size_t visits_at = 0;
  std::size_t in_opportunity_at = 0;
  std::size_t current_at = 0;
  std::size_t end = 0;
};

/// One Scheduler::save_state image starting at `at` (the SABS tag).
struct SchedulerImage {
  static constexpr std::size_t kSectionHeader = 4 + 8;  // tag, length
  static constexpr std::size_t kPacketBytes = 8 + 4 + 8 + 8 + 8 + 8;

  SchedulerImage(const std::vector<std::uint8_t>& p, std::size_t at) {
    const std::size_t body = at + kSectionHeader;
    flows = get_le(p, body, 8);
    std::size_t q = body + 8;
    for (std::uint64_t f = 0; f < flows; ++f) {
      queue_at.push_back(q);
      q += 8 + kPacketBytes * get_le(p, q, 8);
    }
    weights_at = q + 8;
    progress_at = weights_at + 8 * flows + 8;
    latched_at = progress_at + 8 * flows;
    backlog_at = latched_at + 1 + 4;
    discipline_at = backlog_at + 8 + kSectionHeader;
  }

  [[nodiscard]] std::uint64_t queue_length(const std::vector<std::uint8_t>& p,
                                           std::size_t flow) const {
    return get_le(p, queue_at[flow], 8);
  }
  /// The length field of packet `k` in `flow`'s queue.
  [[nodiscard]] std::size_t packet_length_at(std::size_t flow,
                                             std::size_t k) const {
    return queue_at[flow] + 8 + kPacketBytes * k + 8 + 4;
  }

  std::uint64_t flows = 0;
  std::vector<std::size_t> queue_at;  // per flow: its u64 packet count
  std::size_t weights_at = 0;
  std::size_t progress_at = 0;
  std::size_t latched_at = 0;  // bool, then the u32 flow
  std::size_t backlog_at = 0;
  std::size_t discipline_at = 0;  // first byte of the SIDS body
};

}  // namespace wormsched::test
