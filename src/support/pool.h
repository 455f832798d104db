// Fixed-capacity object pool.
//
// Paper §4.4.1: "we preallocate a fixed-size memory block per thread, giving
// a deterministic memory footprint, and report overflows so that we can
// adjust preallocation size on the next run." FixedPool implements the
// allocation half of that contract: allocation never touches the heap after
// construction, and exhaustion is a null return rather than fatal — the
// caller counts it (the runtime in RuntimeStats::overflows).
#ifndef TESLA_SUPPORT_POOL_H_
#define TESLA_SUPPORT_POOL_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace tesla {

template <typename T>
class FixedPool {
 public:
  explicit FixedPool(size_t capacity)
      : capacity_(capacity),
        storage_(static_cast<Slot*>(::operator new[](capacity * sizeof(Slot)))) {
    free_list_.reserve(capacity);
    for (size_t i = 0; i < capacity_; i++) {
      free_list_.push_back(&storage_[capacity_ - 1 - i]);
    }
  }

  ~FixedPool() {
    assert(live_ == 0 && "pool destroyed with live objects");
    ::operator delete[](storage_);
  }

  FixedPool(const FixedPool&) = delete;
  FixedPool& operator=(const FixedPool&) = delete;

  // Returns nullptr when the pool is full.
  template <typename... Args>
  T* Allocate(Args&&... args) {
    if (free_list_.empty()) {
      return nullptr;
    }
    Slot* slot = free_list_.back();
    free_list_.pop_back();
    live_++;
    high_water_ = live_ > high_water_ ? live_ : high_water_;
    return new (slot->bytes) T(std::forward<Args>(args)...);
  }

  void Free(T* object) {
    assert(object != nullptr);
    object->~T();
    live_--;
    free_list_.push_back(reinterpret_cast<Slot*>(object));
  }

  size_t capacity() const { return capacity_; }
  size_t live() const { return live_; }
  size_t high_water() const { return high_water_; }
  // Rewinds the mark to the current live population so a measurement window
  // opened now isn't polluted by earlier peaks.
  void ResetHighWater() { high_water_ = live_; }

 private:
  union Slot {
    alignas(T) char bytes[sizeof(T)];
  };

  const size_t capacity_;
  Slot* storage_;
  std::vector<Slot*> free_list_;
  size_t live_ = 0;
  size_t high_water_ = 0;
};

// Fixed-capacity *slot* allocator: the index-based sibling of FixedPool.
//
// SlotPool hands out dense uint32 slot ids instead of pointers, which lets a
// client keep the per-object fields in structure-of-arrays form (parallel
// vectors indexed by slot) so that hot loops touch only the arrays they need.
// Same contract as FixedPool: no heap traffic after construction, exhaustion
// is a kNoSlot return rather than fatal.
class SlotPool {
 public:
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  explicit SlotPool(size_t capacity) : capacity_(capacity) {
    free_list_.reserve(capacity);
    for (size_t i = 0; i < capacity; i++) {
      free_list_.push_back(static_cast<uint32_t>(capacity - 1 - i));
    }
  }

  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  // Returns kNoSlot when the pool is full.
  uint32_t Allocate() {
    if (free_list_.empty()) {
      return kNoSlot;
    }
    uint32_t slot = free_list_.back();
    free_list_.pop_back();
    live_++;
    high_water_ = live_ > high_water_ ? live_ : high_water_;
    return slot;
  }

  void Free(uint32_t slot) {
    assert(slot < capacity_);
    live_--;
    free_list_.push_back(slot);
  }

  size_t capacity() const { return capacity_; }
  size_t live() const { return live_; }
  size_t high_water() const { return high_water_; }
  // Rewinds the mark to the current live population so a measurement window
  // opened now isn't polluted by earlier peaks.
  void ResetHighWater() { high_water_ = live_; }

 private:
  const size_t capacity_;
  std::vector<uint32_t> free_list_;
  size_t live_ = 0;
  size_t high_water_ = 0;
};

}  // namespace tesla

#endif  // TESLA_SUPPORT_POOL_H_
