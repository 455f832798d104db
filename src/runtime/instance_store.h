// Structure-of-arrays instance storage and the binding-keyed instance index.
//
// The seed kept automaton instances as pool-allocated AoS records behind
// `std::vector<Instance*>`, so every event routed to a class walked all live
// instances twice (exact-match pass, then clone pass) touching one ~90-byte
// record per step — per-event cost grew linearly with live instances
// (thousands of sockets/vnodes in the kernelsim workloads).
//
// InstanceStore splits the record: the fields the stepping hot path reads
// (NFA state set, DFA state, bound-variable mask) live in one dense 16-byte
// `InstanceHot` entry per slot (the layout is defined in runtime/step.h so
// the batch step kernels can walk the array directly), while the bound
// *values* live out-of-line — the exact-match pass touches one cache line per
// instance, four instances per line. Slots come from a SlotPool (fixed
// capacity, exhaustion reported to the caller, §4.4.1's deterministic-footprint
// contract).
//
// KeyIndex is a compact open-addressing hash map from an instance's *key
// tuple* — the values of the class's index variables (computed per class at
// plan-compile time: the variables clone events bind, or the one a profile
// hint names) — to a chain of slots threaded through InstanceStore::next().
// An event whose bindings cover the index variables walks one bucket instead
// of scanning all instances; instances missing an index variable (the (∗)
// wildcard and partial bindings) stay in a short unkeyed tail. Buckets are
// cleared wholesale on bound cleanup, never element-by-element, which keeps
// coherence trivial.
#ifndef TESLA_RUNTIME_INSTANCE_STORE_H_
#define TESLA_RUNTIME_INSTANCE_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/instance.h"
#include "runtime/step.h"
#include "support/hash.h"
#include "support/pool.h"

namespace tesla::runtime {

inline constexpr uint32_t kNoSlot = SlotPool::kNoSlot;

// The live population at which a class's instance index is built and
// probed. Below it, hashing the key tuple costs more than walking the
// handful of live instances (BENCH_instances.json puts the crossover
// between 1 and 10), so every dispatch scans and nothing is filed.
inline constexpr size_t kIndexMinPopulation = 8;

class InstanceStore {
 public:
  explicit InstanceStore(size_t capacity)
      : pool_(capacity),
        hot_(capacity),
        values_(capacity),
        next_(capacity, kNoSlot) {}

  InstanceStore(const InstanceStore&) = delete;
  InstanceStore& operator=(const InstanceStore&) = delete;

  // Returns kNoSlot (counted) when full; otherwise a slot reset to the
  // wildcard state (nothing bound, all values zero).
  uint32_t Allocate() {
    uint32_t slot = pool_.Allocate();
    if (slot == kNoSlot) {
      return kNoSlot;
    }
    hot_[slot] = InstanceHot{};
    values_[slot] = {};
    next_[slot] = kNoSlot;
    return slot;
  }

  void Free(uint32_t slot) { pool_.Free(slot); }

  automata::StateSet& states(uint32_t slot) { return hot_[slot].states; }
  uint32_t& dfa_state(uint32_t slot) { return hot_[slot].dfa_state; }
  // Raw hot array, for StepProgram::RunBatch's slot loop.
  InstanceHot* hot_data() { return hot_.data(); }
  uint32_t bound_mask(uint32_t slot) const { return hot_[slot].bound_mask; }
  const std::array<int64_t, kMaxVariables>& values(uint32_t slot) const {
    return values_[slot];
  }
  // Bucket-chain link (owned by the class's KeyIndex).
  uint32_t& next(uint32_t slot) { return next_[slot]; }
  uint32_t next(uint32_t slot) const { return next_[slot]; }

  void Bind(uint32_t slot, uint16_t var, int64_t value) {
    hot_[slot].bound_mask |= 1u << var;
    values_[slot][var] = value;
  }

  // Writes a stack-built candidate (see the clone pass) into `slot`.
  void Assign(uint32_t slot, const Instance& instance) {
    hot_[slot].states = instance.states;
    hot_[slot].dfa_state = instance.dfa_state;
    hot_[slot].bound_mask = instance.bound_mask;
    values_[slot] = instance.values;
    next_[slot] = kNoSlot;
  }

  // AoS view of a slot, for handler callbacks and violation reports.
  Instance Materialize(uint32_t slot) const {
    Instance instance;
    instance.bound_mask = hot_[slot].bound_mask;
    instance.values = values_[slot];
    instance.states = hot_[slot].states;
    instance.dfa_state = hot_[slot].dfa_state;
    return instance;
  }

  bool IsBound(uint32_t slot, uint16_t var) const {
    return (hot_[slot].bound_mask & (1u << var)) != 0;
  }

  // Slot-wise twins of Instance::ExactMatch / ConsistentWith.
  bool ExactMatch(uint32_t slot, const Binding* bindings, size_t count) const {
    for (size_t i = 0; i < count; i++) {
      if (!IsBound(slot, bindings[i].var) ||
          values_[slot][bindings[i].var] != bindings[i].value) {
        return false;
      }
    }
    return true;
  }

  bool ConsistentWith(uint32_t slot, const Binding* bindings, size_t count) const {
    for (size_t i = 0; i < count; i++) {
      if (IsBound(slot, bindings[i].var) &&
          values_[slot][bindings[i].var] != bindings[i].value) {
        return false;
      }
    }
    return true;
  }

  size_t capacity() const { return pool_.capacity(); }
  size_t live() const { return pool_.live(); }
  size_t high_water() const { return pool_.high_water(); }
  void ResetHighWater() { pool_.ResetHighWater(); }

 private:
  SlotPool pool_;
  std::vector<InstanceHot> hot_;
  std::vector<std::array<int64_t, kMaxVariables>> values_;  // out-of-line
  std::vector<uint32_t> next_;  // bucket chains, threaded per slot
};

// Hashes a key tuple (the values of a class's key variables, in ascending
// variable order).
inline uint64_t HashKeyTuple(const int64_t* key, size_t count) {
  uint64_t hash = kFnvOffsetBasis;
  for (size_t i = 0; i < count; i++) {
    hash = HashCombine(hash, HashU64(static_cast<uint64_t>(key[i])));
  }
  // Finalise so that low bits (the table index) see every input.
  return HashU64(hash);
}

// Open-addressing map: key-tuple hash → head slot of a chain of instances
// sharing that key tuple. Cell identity is the *tuple*, not the hash — the
// caller confirms equality against the chain head via `eq(slot)` (all chain
// members share one tuple by construction). Supports insert-at-head and
// wholesale Clear() only; instances are never expunged one at a time
// (activation and cleanup replace a class's whole population).
class KeyIndex {
 public:
  KeyIndex() = default;

  // Returns the chain head for the probed tuple, or kNoSlot.
  template <typename KeyEq>
  uint32_t Find(uint64_t hash, KeyEq&& eq) const {
    if (cells_.empty()) {
      return kNoSlot;
    }
    const size_t mask = cells_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Cell& cell = cells_[i];
      if (cell.head == kNoSlot) {
        return kNoSlot;
      }
      if (cell.hash == hash && eq(cell.head)) {
        return cell.head;
      }
    }
  }

  // Makes `slot` the head of its tuple's chain; returns the previous head
  // (kNoSlot for a fresh tuple) so the caller can link slot → previous.
  template <typename KeyEq>
  uint32_t InsertHead(uint64_t hash, KeyEq&& eq, uint32_t slot) {
    if (cells_.size() < 2 * (used_ + 1)) {
      Grow();
    }
    const size_t mask = cells_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Cell& cell = cells_[i];
      if (cell.head == kNoSlot) {
        cell = Cell{hash, slot};
        used_++;
        return kNoSlot;
      }
      if (cell.hash == hash && eq(cell.head)) {
        uint32_t previous = cell.head;
        cell.head = slot;
        return previous;
      }
    }
  }

  void Clear() {
    std::fill(cells_.begin(), cells_.end(), Cell{});
    used_ = 0;
  }

  size_t tuple_count() const { return used_; }

 private:
  struct Cell {
    uint64_t hash = 0;
    uint32_t head = kNoSlot;  // kNoSlot marks an empty cell
  };

  void Grow() {
    size_t capacity = cells_.empty() ? 16 : cells_.size() * 2;
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(capacity, Cell{});
    const size_t mask = capacity - 1;
    for (const Cell& cell : old) {
      if (cell.head == kNoSlot) {
        continue;
      }
      size_t i = cell.hash & mask;
      while (cells_[i].head != kNoSlot) {
        i = (i + 1) & mask;
      }
      cells_[i] = cell;
    }
  }

  std::vector<Cell> cells_;
  size_t used_ = 0;
};

}  // namespace tesla::runtime

#endif  // TESLA_RUNTIME_INSTANCE_STORE_H_
