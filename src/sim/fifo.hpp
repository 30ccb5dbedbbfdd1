// Fifo<T>: a ring-buffer queue that costs nothing until it is used.
//
// A default-constructed std::deque allocates its map and one block
// (576 bytes in libstdc++) before holding anything, and a 1024-node machine
// builds about 89 000 queues (router input buffers, NIU receive queues,
// semaphore and channel waiter lists) that mostly stay empty. A Fifo's
// capacity is zero until the first push; it then grows by powers of two
// and keeps its capacity across pops, so a queue's steady push/pop cycle
// allocates nothing either.
//
// Elements must be nothrow-move-constructible: growth moves them into the
// new ring, and a throw halfway would lose some. A Fifo is movable (a
// moved-from Fifo is empty and owns no storage) but not copyable.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace sv::sim {

template <typename T>
class Fifo {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "Fifo<T> moves elements when it grows");

 public:
  Fifo() noexcept = default;
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  Fifo(Fifo&& o) noexcept
      : buf_(std::exchange(o.buf_, nullptr)),
        cap_(std::exchange(o.cap_, 0)),
        head_(std::exchange(o.head_, 0)),
        size_(std::exchange(o.size_, 0)) {}

  Fifo& operator=(Fifo&& o) noexcept {
    if (this != &o) {
      release();
      buf_ = std::exchange(o.buf_, nullptr);
      cap_ = std::exchange(o.cap_, 0);
      head_ = std::exchange(o.head_, 0);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }

  ~Fifo() { release(); }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots allocated: 0 until the first push, then a power of two.
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  [[nodiscard]] T& front() {
    assert(size_ > 0);
    return buf_[head_];
  }
  [[nodiscard]] const T& front() const {
    assert(size_ > 0);
    return buf_[head_];
  }

  void push_back(T v) {
    if (size_ == cap_) {
      grow();
    }
    ::new (static_cast<void*>(buf_ + ((head_ + size_) & (cap_ - 1))))
        T(std::move(v));
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    buf_[head_].~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

 private:
  static constexpr std::uint32_t kFirstCapacity = 4;

  /// Double the ring (or create it), moving the elements to its start in
  /// FIFO order.
  void grow() {
    const std::uint32_t cap = cap_ == 0 ? kFirstCapacity : cap_ * 2;
    T* buf = std::allocator<T>().allocate(cap);
    for (std::uint32_t i = 0; i < size_; ++i) {
      T& old = buf_[(head_ + i) & (cap_ - 1)];
      ::new (static_cast<void*>(buf + i)) T(std::move(old));
      old.~T();
    }
    if (buf_ != nullptr) {
      std::allocator<T>().deallocate(buf_, cap_);
    }
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }

  /// Destroy every element and free the ring.
  void release() noexcept {
    while (size_ > 0) {
      pop_front();
    }
    if (buf_ != nullptr) {
      std::allocator<T>().deallocate(buf_, cap_);
    }
    buf_ = nullptr;
    cap_ = 0;
    head_ = 0;
  }

  T* buf_ = nullptr;
  std::uint32_t cap_ = 0;   // 0 or a power of two
  std::uint32_t head_ = 0;  // slot of the front element
  std::uint32_t size_ = 0;
};

}  // namespace sv::sim
