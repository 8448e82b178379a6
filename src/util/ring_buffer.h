// Reusable ring buffer for single-queue storage: the DropTailFifo packet
// queue, sample windows (windowed filters, Nimbus history, the
// measurement engine's epoch window and boundary records), and the sharded
// runner's per-channel arrival FIFOs.
// std::deque allocates and frees chunk blocks as a queue breathes, which
// shows up as residual allocs/event in the end-to-end datapath benchmark; a
// ring reuses its slots forever and only reallocates on growth (doubling, so
// growth cost amortizes to zero for steady-state queues). A ring never
// shrinks, so its memory is its own high-water mark: right for one queue,
// wrong for a scheduler's thousand buckets, which share a PacketPool
// (src/qdisc/packet_pool.h) instead. Supports push_back/emplace_back,
// pop_front, pop_back, an order-keeping erase, front/back peeks, and
// iteration-free size accounting. T must be nothrow-move-constructible
// (Packet is), which also makes RingBuffer itself nothrow-movable — so
// structs holding one can live in std::vector.
#ifndef SRC_UTIL_RING_BUFFER_H_
#define SRC_UTIL_RING_BUFFER_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "src/util/check.h"

namespace bundler {

template <typename T>
class RingBuffer {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "RingBuffer requires nothrow-movable elements");

 public:
  RingBuffer() = default;
  RingBuffer(RingBuffer&& other) noexcept
      : slots_(other.slots_), cap_(other.cap_), head_(other.head_), size_(other.size_) {
    other.slots_ = nullptr;
    other.cap_ = other.head_ = other.size_ = 0;
  }
  RingBuffer& operator=(RingBuffer&& other) noexcept {
    if (this != &other) {
      Destroy();
      slots_ = other.slots_;
      cap_ = other.cap_;
      head_ = other.head_;
      size_ = other.size_;
      other.slots_ = nullptr;
      other.cap_ = other.head_ = other.size_ = 0;
    }
    return *this;
  }
  // Copies are only instantiated for copyable T (Packet rings stay move-only,
  // so the datapath cannot copy a queue by accident).
  RingBuffer(const RingBuffer& other) { CopyFrom(other); }
  RingBuffer& operator=(const RingBuffer& other) {
    if (this != &other) {
      Destroy();
      CopyFrom(other);
    }
    return *this;
  }
  ~RingBuffer() { Destroy(); }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  void push_back(T value) { emplace_back(std::move(value)); }

  // Constructs the new back element in place from `args`, which must not
  // refer into this ring (growth would move them first).
  template <typename... Args>
  void emplace_back(Args&&... args) {
    if (size_ == cap_) {
      Grow();
    }
    ::new (static_cast<void*>(slots_ + Index(size_))) T(std::forward<Args>(args)...);
    ++size_;
  }

  T pop_front() {
    BUNDLER_CHECK(size_ > 0);
    T* slot = slots_ + head_;
    T out = std::move(*slot);
    slot->~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
    return out;
  }

  T pop_back() {
    BUNDLER_CHECK(size_ > 0);
    T* slot = slots_ + Index(size_ - 1);
    T out = std::move(*slot);
    slot->~T();
    --size_;
    return out;
  }

  T& front() {
    BUNDLER_CHECK(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    BUNDLER_CHECK(size_ > 0);
    return slots_[head_];
  }
  T& back() {
    BUNDLER_CHECK(size_ > 0);
    return slots_[Index(size_ - 1)];
  }
  const T& back() const {
    BUNDLER_CHECK(size_ > 0);
    return slots_[Index(size_ - 1)];
  }

  // Indexed access from the front: [0] == front(), [size()-1] == back().
  T& operator[](size_t i) {
    BUNDLER_CHECK(i < size_);
    return slots_[Index(i)];
  }
  const T& operator[](size_t i) const {
    BUNDLER_CHECK(i < size_);
    return slots_[Index(i)];
  }

  // Removes element i and keeps the others in order, moving whichever side of
  // it is shorter up by one slot.
  void erase(size_t i) {
    BUNDLER_CHECK(i < size_);
    if (i < size_ / 2) {
      for (; i > 0; --i) {
        slots_[Index(i)] = std::move(slots_[Index(i - 1)]);
      }
      pop_front();
    } else {
      for (; i + 1 < size_; ++i) {
        slots_[Index(i)] = std::move(slots_[Index(i + 1)]);
      }
      pop_back();
    }
  }

  void clear() {
    while (size_ > 0) {
      slots_[head_].~T();
      head_ = (head_ + 1) & (cap_ - 1);
      --size_;
    }
    head_ = 0;
  }

  size_t capacity() const { return cap_; }

 private:
  size_t Index(size_t offset) const { return (head_ + offset) & (cap_ - 1); }

  void Grow() {
    size_t new_cap = cap_ == 0 ? kInitialCapacity : cap_ * 2;
    T* fresh = static_cast<T*>(::operator new(new_cap * sizeof(T), std::align_val_t(alignof(T))));
    for (size_t i = 0; i < size_; ++i) {
      T* old_slot = slots_ + Index(i);
      ::new (static_cast<void*>(fresh + i)) T(std::move(*old_slot));
      old_slot->~T();
    }
    Release();
    slots_ = fresh;
    cap_ = new_cap;
    head_ = 0;
  }

  void Destroy() {
    clear();
    Release();
    slots_ = nullptr;
    cap_ = 0;
  }

  void CopyFrom(const RingBuffer& other) {
    if (other.cap_ > 0) {
      slots_ = static_cast<T*>(
          ::operator new(other.cap_ * sizeof(T), std::align_val_t(alignof(T))));
    }
    cap_ = other.cap_;
    head_ = 0;
    for (size_t i = 0; i < other.size_; ++i) {
      ::new (static_cast<void*>(slots_ + i)) T(other.slots_[other.Index(i)]);
      ++size_;
    }
  }

  void Release() {
    if (slots_ != nullptr) {
      ::operator delete(static_cast<void*>(slots_), std::align_val_t(alignof(T)));
    }
  }

  static constexpr size_t kInitialCapacity = 16;  // power of two (mask indexing)

  T* slots_ = nullptr;
  size_t cap_ = 0;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace bundler

#endif  // SRC_UTIL_RING_BUFFER_H_
