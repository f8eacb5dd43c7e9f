// Growable ring buffer: the FIFO used for per-flow packet queues and
// router VC buffers.
//
// std::deque allocates in small blocks and fragments badly at the scale of
// a 4M-cycle simulation; this buffer keeps elements contiguous (modulo one
// wrap point), doubles geometrically, and supports indexed peeking, which
// the wormhole router needs to inspect buffered flits beyond the head.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "common/assert.hpp"

namespace wormsched {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;
  explicit RingBuffer(std::size_t initial_capacity) {
    reserve(initial_capacity);
  }

  RingBuffer(const RingBuffer& other) { *this = other; }
  RingBuffer& operator=(const RingBuffer& other) {
    if (this == &other) return *this;
    clear();
    reserve(other.size_);
    for (std::size_t i = 0; i < other.size_; ++i) push_back(other[i]);
    return *this;
  }
  RingBuffer(RingBuffer&& other) noexcept { swap(other); }
  RingBuffer& operator=(RingBuffer&& other) noexcept {
    swap(other);
    return *this;
  }
  ~RingBuffer() {
    clear();
    operator delete[](storage_, std::align_val_t(alignof(T)));
  }

  void swap(RingBuffer& other) noexcept {
    std::swap(storage_, other.storage_);
    std::swap(capacity_, other.capacity_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  /// Constructs the new back element from `args` in place.  The arguments
  /// may alias an element of this buffer: when the append has to grow,
  /// the element is built before the old storage is released.
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      T value(std::forward<Args>(args)...);
      grow();
      T* p = ::new (slot(size_)) T(std::move(value));
      ++size_;
      return *p;
    }
    T* p = ::new (slot(size_)) T(std::forward<Args>(args)...);
    ++size_;
    return *p;
  }

  [[nodiscard]] T& front() {
    WS_CHECK(!empty());
    return *slot(0);
  }
  [[nodiscard]] const T& front() const {
    WS_CHECK(!empty());
    return *slot(0);
  }
  [[nodiscard]] T& back() {
    WS_CHECK(!empty());
    return *slot(size_ - 1);
  }

  /// Element `i` positions behind the head (0 == front).
  [[nodiscard]] T& operator[](std::size_t i) {
    WS_CHECK(i < size_);
    return *slot(i);
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    WS_CHECK(i < size_);
    return *slot(i);
  }

  T pop_front() {
    WS_CHECK(!empty());
    T* p = slot(0);
    T value = std::move(*p);
    p->~T();
    head_ = next(head_);
    --size_;
    return value;
  }

  /// Destroys the front element without moving it out; pairs with
  /// front() to consume an element where it sits.
  void drop_front() {
    WS_CHECK(!empty());
    slot(0)->~T();
    head_ = next(head_);
    --size_;
  }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) slot(i)->~T();
    head_ = 0;
    size_ = 0;
  }

  void reserve(std::size_t wanted) {
    if (wanted <= capacity_) return;
    std::size_t new_cap = capacity_ == 0 ? 8 : capacity_;
    while (new_cap < wanted) new_cap *= 2;
    relocate(new_cap);
  }

 private:
  [[nodiscard]] std::size_t next(std::size_t pos) const {
    return pos + 1 == capacity_ ? 0 : pos + 1;
  }
  [[nodiscard]] T* slot(std::size_t logical) const {
    std::size_t pos = head_ + logical;
    if (pos >= capacity_) pos -= capacity_;
    return std::launder(reinterpret_cast<T*>(storage_) + pos);
  }

  void grow() { relocate(capacity_ == 0 ? 8 : capacity_ * 2); }

  void relocate(std::size_t new_cap) {
    auto* new_storage = static_cast<std::byte*>(operator new[](
        new_cap * sizeof(T), std::align_val_t(alignof(T))));
    for (std::size_t i = 0; i < size_; ++i) {
      T* src = slot(i);
      ::new (reinterpret_cast<T*>(new_storage) + i) T(std::move(*src));
      src->~T();
    }
    operator delete[](storage_, std::align_val_t(alignof(T)));
    storage_ = new_storage;
    capacity_ = new_cap;
    head_ = 0;
  }

  std::byte* storage_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace wormsched
