// Epoch-stamped bitset over a dense index space.
//
// The million-flow scheduler pools need a membership structure that
// (a) tests and flips single bits in O(1) with no branches on the hot
// path, (b) clears the WHOLE set in O(1) — a 1M-bit memset per restore
// or reset would dominate checkpoint replay — and (c) iterates set bits
// in index order at one `countr_zero` per bit, the same trick the PR-3
// router pipeline uses for its pending masks.
//
// The O(1) clear comes from stamping every 64-bit word with the epoch in
// which it was last written: a word whose stamp is stale reads as zero.
// clear_all() just bumps the epoch, which is 64 bits wide and so never
// wraps.  Each word sits next to its stamp in one array: a test reads
// one cache line, and a small set is a single heap block.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace wormsched {

class EpochBitset {
 public:
  EpochBitset() = default;
  explicit EpochBitset(std::size_t size) { resize(size); }

  void resize(std::size_t size) {
    size_ = size;
    count_ = 0;
    words_.assign((size + 63) / 64, Word{0, epoch_});
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool any() const { return count_ > 0; }

  [[nodiscard]] bool test(std::size_t i) const {
    WS_CHECK(i < size_);
    return (bits(i >> 6) >> (i & 63)) & 1u;
  }

  void set(std::size_t i) {
    WS_CHECK(i < size_);
    const std::size_t w = i >> 6;
    const std::uint64_t word = bits(w);
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    count_ += (word & bit) == 0;
    words_[w] = Word{word | bit, epoch_};
  }

  void clear(std::size_t i) {
    WS_CHECK(i < size_);
    const std::size_t w = i >> 6;
    if (words_[w].stamp != epoch_) return;
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    count_ -= (words_[w].bits & bit) != 0;
    words_[w].bits &= ~bit;
  }

  /// O(1): stale-stamps every word by bumping the epoch.
  void clear_all() {
    count_ = 0;
    ++epoch_;
  }

  /// First set index >= `from`, or npos.  One countr_zero per probe.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t next_set(std::size_t from) const {
    if (from >= size_) return npos;
    std::size_t w = from >> 6;
    std::uint64_t word = bits(w) & (~std::uint64_t{0} << (from & 63));
    for (;;) {
      if (word != 0) {
        const std::size_t i =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        return i < size_ ? i : npos;
      }
      if (++w >= words_.size()) return npos;
      word = bits(w);
    }
  }

  /// Calls `fn(index)` for every set bit in increasing index order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = bits(w);
      while (word != 0) {
        const std::size_t i =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        fn(i);
      }
    }
  }

 private:
  struct Word {
    std::uint64_t bits;
    std::uint64_t stamp;  // epoch of the last write; stale reads as 0
  };

  [[nodiscard]] std::uint64_t bits(std::size_t w) const {
    return words_[w].stamp == epoch_ ? words_[w].bits : 0;
  }

  std::vector<Word> words_;
  std::uint64_t epoch_ = 1;
  std::size_t size_ = 0;
  std::size_t count_ = 0;
};

}  // namespace wormsched
