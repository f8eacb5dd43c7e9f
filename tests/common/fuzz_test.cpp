// Randomized differential test: RingBuffer against std::deque, driven by
// the same operation streams.
#include <gtest/gtest.h>

#include <deque>

#include "common/ring_buffer.hpp"
#include "common/rng.hpp"

namespace wormsched {
namespace {

class ContainerFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ContainerFuzzTest, RingBufferMatchesDeque) {
  Rng rng(GetParam() * 31 + 7);
  RingBuffer<int> ring;
  std::deque<int> reference;
  int next_value = 0;
  for (int op = 0; op < 20000; ++op) {
    const auto choice = rng.uniform_u64(100);
    if (choice < 55) {  // push
      ring.push_back(next_value);
      reference.push_back(next_value);
      ++next_value;
    } else if (choice < 90) {  // pop
      if (!reference.empty()) {
        ASSERT_EQ(ring.pop_front(), reference.front());
        reference.pop_front();
      }
    } else if (choice < 95) {  // indexed peek
      if (!reference.empty()) {
        const auto idx = rng.uniform_u64(reference.size());
        ASSERT_EQ(ring[static_cast<std::size_t>(idx)],
                  reference[static_cast<std::size_t>(idx)]);
      }
    } else if (choice < 97) {  // clear
      ring.clear();
      reference.clear();
    } else {  // bulk state check
      ASSERT_EQ(ring.size(), reference.size());
      ASSERT_EQ(ring.empty(), reference.empty());
      if (!reference.empty()) {
        ASSERT_EQ(ring.front(), reference.front());
        ASSERT_EQ(ring.back(), reference.back());
      }
    }
  }
  ASSERT_EQ(ring.size(), reference.size());
  while (!reference.empty()) {
    ASSERT_EQ(ring.pop_front(), reference.front());
    reference.pop_front();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainerFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace wormsched
