#include "common/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace wormsched {
namespace {

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> rb;
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.size(), 0u);
}

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> rb;
  for (int i = 0; i < 100; ++i) rb.push_back(i);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rb.pop_front(), i);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WrapsAroundWithoutReallocation) {
  RingBuffer<int> rb(8);
  const std::size_t cap = rb.capacity();
  // Interleave pushes and pops so head walks the whole ring repeatedly.
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 3; ++k) rb.push_back(next_in++);
    for (int k = 0; k < 3; ++k) EXPECT_EQ(rb.pop_front(), next_out++);
  }
  EXPECT_EQ(rb.capacity(), cap);
}

TEST(RingBuffer, IndexedPeek) {
  RingBuffer<int> rb;
  for (int i = 0; i < 10; ++i) rb.push_back(i * 10);
  (void)rb.pop_front();
  EXPECT_EQ(rb[0], 10);
  EXPECT_EQ(rb[3], 40);
  EXPECT_EQ(rb.front(), 10);
  EXPECT_EQ(rb.back(), 90);
}

TEST(RingBuffer, GrowsPreservingOrderAcrossWrap) {
  RingBuffer<int> rb(4);
  for (int i = 0; i < 3; ++i) rb.push_back(i);
  (void)rb.pop_front();
  (void)rb.pop_front();
  // head is now mid-storage; grow across the wrap point
  for (int i = 3; i < 40; ++i) rb.push_back(i);
  for (int i = 2; i < 40; ++i) EXPECT_EQ(rb.pop_front(), i);
}

TEST(RingBuffer, MoveOnlyElements) {
  RingBuffer<std::unique_ptr<int>> rb;
  for (int i = 0; i < 20; ++i) rb.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 20; ++i) {
    auto p = rb.pop_front();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, i);
  }
}

TEST(RingBuffer, CopyMakesIndependentBuffer) {
  RingBuffer<std::string> rb;
  rb.push_back("a");
  rb.push_back("b");
  RingBuffer<std::string> copy(rb);
  (void)rb.pop_front();
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.front(), "a");
}

TEST(RingBuffer, MoveStealsStorage) {
  RingBuffer<int> rb;
  rb.push_back(42);
  RingBuffer<int> moved(std::move(rb));
  EXPECT_EQ(moved.pop_front(), 42);
}

TEST(RingBuffer, ClearDestroysElements) {
  auto counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> c;
    ~Probe() {
      if (c) ++*c;
    }
  };
  {
    RingBuffer<Probe> rb;
    rb.push_back(Probe{counter});
    rb.push_back(Probe{counter});
    const int before = *counter;  // temporaries already destroyed
    rb.clear();
    EXPECT_EQ(*counter, before + 2);
  }
}

TEST(RingBuffer, EmplaceBack) {
  RingBuffer<std::pair<int, std::string>> rb;
  rb.emplace_back(1, "one");
  EXPECT_EQ(rb.front().second, "one");
}

TEST(RingBuffer, PushBackOfOwnElementSurvivesGrowth) {
  // The appended value aliases the buffer, and the append has to grow:
  // the copy must be taken before the old storage is released.  Strings
  // long enough to live on the heap make a dangling read show.
  const std::string first(64, 'a');
  const std::string other(64, 'b');
  RingBuffer<std::string> rb;
  rb.push_back(first);
  while (rb.size() < rb.capacity()) rb.push_back(other);
  const std::size_t full = rb.capacity();
  rb.push_back(rb.front());
  EXPECT_GT(rb.capacity(), full);
  EXPECT_EQ(rb.back(), first);
  EXPECT_EQ(rb.front(), first);
  // The same for a move out of the buffer's own element.
  while (rb.size() < rb.capacity()) rb.push_back(other);
  rb.push_back(std::move(rb[0]));
  EXPECT_EQ(rb.back(), first);
}

TEST(RingBuffer, DropFrontConsumesInPlace) {
  RingBuffer<std::string> rb;
  for (int i = 0; i < 20; ++i) rb.push_back(std::to_string(i));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(rb.front(), std::to_string(i));
    rb.drop_front();
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBufferDeath, PopEmptyAborts) {
  RingBuffer<int> rb;
  EXPECT_DEATH((void)rb.pop_front(), "empty");
}

TEST(RingBufferDeath, DropEmptyAborts) {
  RingBuffer<int> rb;
  EXPECT_DEATH(rb.drop_front(), "empty");
}

TEST(RingBufferDeath, OutOfRangeIndexAborts) {
  RingBuffer<int> rb;
  rb.push_back(1);
  EXPECT_DEATH((void)rb[1], "size");
}

}  // namespace
}  // namespace wormsched
