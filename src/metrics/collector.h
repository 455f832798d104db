// The observability collector: sharded hot-path recording, merge-on-snapshot.
//
// One Collector per Runtime, present when RuntimeOptions::metrics_mode is
// not off or RuntimeOptions::profile is on. Every event-serialisation
// context registers one Shard: a block of words per class under the one
// cell schema (metrics/metrics.h), and the dispatch-latency histograms in
// kFull mode. With profiling on a class's block is kClassStride words: all
// cells, the partial-binding tallies and the sketch words. Otherwise it is
// kCountersStride words: the runtime cells and the index route, the only
// cells a counters-only run writes (see Slot). Runtime::CollectMetrics() and
// Runtime::CollectProfile() are two views of the merged block. Shards
// outlive their contexts (the Collector owns them), so short-lived simulated
// threads still contribute to the merged totals. A shard has exactly one
// writer at a time — per-thread contexts are single-threaded by contract,
// and the runtime's global shard contexts are serialised by their shard lock
// — so the write path is a relaxed atomic load + store pair (no RMW, no
// fence, no lock), and the merger's concurrent relaxed loads see
// word-consistent monotone values.
//
// What is recorded follows the options: the runtime cells and the coverage
// bitmap only under a metrics mode, histograms only under kFull, the
// profile cells only with profiling on. The index-route cells feed both
// views and are recorded whenever a shard exists.
//
// The transition-coverage bitmap is collector-global rather than sharded:
// bits are idempotent, and the stamp checks before setting, so after warmup
// the hot path pays one load per transition. The layout (one dense bit per
// statically-valid DFA transition, per class) is installed at plan-compile
// time; see Runtime::CompilePlan().
//
// Late registration: a shard sizes its block for the classes known when it
// was created. If automata are registered afterwards, the runtime's
// Register() re-registers every live context's shard before any event can
// dispatch (the stale block stays behind and is still merged), so every
// dispatch-side record lands in a shard. Only violations, reported outside
// any context, go to the central, lock-guarded spill block.
#ifndef TESLA_METRICS_COLLECTOR_H_
#define TESLA_METRICS_COLLECTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "metrics/metrics.h"
#include "support/spinlock.h"

namespace tesla::metrics {

// A cell's word in a shard's class block: the schema's order rotated so the
// runtime cells come first, then the profile cells. The words a
// counters-only dispatch writes — runtime cells and index route — are then
// the block's first kCountersStride words: one or two cache lines per
// dispatch, which matters on global contexts, whose shard lines move
// between the producers taking the shard lock. Merge() restores the
// schema's order.
constexpr size_t Slot(Cell cell) {
  const size_t index = static_cast<size_t>(cell);
  return index < kProfileCellCount ? index + kRuntimeCellCount : index - kProfileCellCount;
}
inline constexpr size_t kCountersStride = Slot(Cell::scan_fallbacks) + 1;
static_assert(Slot(Cell::index_probes) < kCountersStride &&
                  Slot(Cell::violations) < kCountersStride,
              "a counters-only block holds the route and runtime cells");

// Merged view of one dispatch-latency histogram (also the exposition form).
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum_ns = 0;
  uint64_t buckets[kHistogramBuckets] = {};

  // Bucket-resolution quantile: the upper bound of the bucket holding the
  // q-th sample (0 when empty). Power-of-2 buckets give ≤2x relative error.
  uint64_t QuantileNs(double q) const;
  // Upper bound of the highest occupied bucket (0 when empty).
  uint64_t MaxNs() const;
};

// One context's recording block. Created by Collector::RegisterShard and
// owned by the Collector for its whole lifetime. Cache-line aligned: the
// latency tick is written on every profiled dispatch, and the header must
// not share a line with another context's shard.
class alignas(64) Shard {
 public:
  Shard(size_t class_capacity, bool counting, bool profiling, bool histograms);

  size_t class_capacity() const { return class_capacity_; }
  // Words per class: kClassStride with profiling on, kCountersStride
  // otherwise (only the profile writes the other cells).
  static constexpr size_t StrideFor(bool profiling) {
    return profiling ? kClassStride : kCountersStride;
  }
  // Whether the runtime cells (metrics_mode != kOff) and the profile cells
  // (profiling on) are recorded through this shard.
  bool counting() const { return counting_; }
  bool profiling() const { return profiling_; }

  // The class's word block. The caller must ensure class_id <
  // class_capacity() (the runtime's Register() swaps in a larger shard for
  // any context whose shard predates a class) and writes base-relative, so
  // the compiler is not forced to reload `cells_` after every store.
  std::atomic<uint64_t>* ClassCells(uint32_t class_id) {
    return cells_.get() + class_id * stride_;
  }

  // Single-writer add: relaxed load + relaxed store.
  static void AddAt(std::atomic<uint64_t>* base, Cell cell, uint64_t amount = 1) {
    AddWord(base[Slot(cell)], amount);
  }
  void Add(uint32_t class_id, Cell cell, uint64_t amount = 1) {
    AddAt(ClassCells(class_id), cell, amount);
  }
  // Single-writer max (kMax cells).
  static void PeakAt(std::atomic<uint64_t>* base, Cell cell, uint64_t value) {
    std::atomic<uint64_t>& word = base[Slot(cell)];
    if (value > word.load(std::memory_order_relaxed)) {
      word.store(value, std::memory_order_relaxed);
    }
  }
  // Partial-binding attribution for tracked key variable `key_pos` (its
  // position in the class's ascending-variable key order).
  static void VarPartialAt(std::atomic<uint64_t>* base, size_t key_pos) {
    AddWord(base[kVarPartialOffset + key_pos]);
  }
  // Sets one linear-counting bit for `hash` in key variable `key_pos`'s
  // sketch. Single-writer, so load + or + store needs no RMW.
  static void SketchAt(std::atomic<uint64_t>* base, size_t key_pos, uint64_t hash) {
    const size_t bit = hash & (kSketchBits - 1);
    std::atomic<uint64_t>& word = base[kSketchOffset + key_pos * kSketchWords + (bit >> 6)];
    const uint64_t mask = uint64_t{1} << (bit & 63);
    const uint64_t old = word.load(std::memory_order_relaxed);
    if ((old & mask) == 0) {
      word.store(old | mask, std::memory_order_relaxed);
    }
  }

  // Per-shard latency-sampling tick (single writer; plain field).
  uint32_t NextTick() { return tick_++; }

  // kFull only: the shard has no histograms otherwise.
  void RecordLatency(size_t event_kind, uint64_t ns) {
    Histogram& hist = histograms_[event_kind];
    AddWord(hist.count);
    AddWord(hist.sum_ns, ns);
    AddWord(hist.buckets[BucketFor(ns)]);
  }

 private:
  friend class Collector;

  struct Histogram {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_ns{0};
    std::atomic<uint64_t> buckets[kHistogramBuckets]{};
  };

  static void AddWord(std::atomic<uint64_t>& cell, uint64_t amount = 1) {
    cell.store(cell.load(std::memory_order_relaxed) + amount, std::memory_order_relaxed);
  }

  size_t class_capacity_;
  size_t stride_;
  bool counting_;
  bool profiling_;
  uint32_t tick_ = 0;
  // class_capacity_ * stride_ words, class-major.
  std::unique_ptr<std::atomic<uint64_t>[]> cells_;
  // Allocated only in kFull mode (4 * 66 words otherwise wasted per context).
  std::unique_ptr<Histogram[]> histograms_;
};

class Collector {
 public:
  Collector(MetricsMode mode, bool profiling) : mode_(mode), profiling_(profiling) {}

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  MetricsMode mode() const { return mode_; }
  bool counting() const { return mode_ != MetricsMode::kOff; }
  bool profiling() const { return profiling_; }
  bool histograms_enabled() const { return mode_ == MetricsMode::kFull; }

  // Thread-safe; the returned shard stays valid for the Collector's lifetime
  // and is sized for the classes known now (EnsureClassCapacity).
  Shard* RegisterShard();

  // Grows the spill block (and the capacity granted to future shards) to
  // `count` classes. Called at Register() time, before contexts re-register.
  void EnsureClassCapacity(size_t count);

  // (Re)installs the coverage bitmap: `bits` statically-valid-transition
  // slots, all cleared. Called from plan compilation; any previously stamped
  // coverage is reset (the plan's bit layout changed).
  void InstallCoverage(size_t bits);

  // Hot path: idempotent bit set. Check-before-set keeps the warm cost to
  // one relaxed load; the fetch_or only runs the first time a bit fires.
  void StampCoverage(uint32_t bit) {
    std::atomic<uint64_t>& word = coverage_[bit >> 6];
    const uint64_t mask = uint64_t{1} << (bit & 63);
    if ((word.load(std::memory_order_relaxed) & mask) == 0) {
      word.fetch_or(mask, std::memory_order_relaxed);
    }
  }

  bool CoverageBit(uint32_t bit) const {
    return bit < coverage_bits_ &&
           (coverage_[bit >> 6].load(std::memory_order_relaxed) &
            (uint64_t{1} << (bit & 63))) != 0;
  }
  size_t coverage_bits() const { return coverage_bits_; }

  // Cold-path record for writers without a shard: violations, reported
  // outside any context. Combines per the cell's merge rule.
  void Spill(uint32_t class_id, Cell cell, uint64_t amount = 1);

  // Combines every shard's and the spill block's words for classes
  // [0, class_count) into `out` (class-major, kClassStride words per class):
  // schema cells per kCellMerge, partial-binding tallies summed, sketch
  // words OR-ed.
  void Merge(size_t class_count, uint64_t* out) const;

  // Sums every shard's histograms into `out[kEventKinds]`.
  void MergeHistograms(HistogramData* out) const;

  // Zeroes all cells, histograms and the coverage bitmap (snapshot-delta
  // support; see Runtime::ResetStats()). Concurrent writers keep writing —
  // like stats resets anywhere, call this at a quiescent point for exact
  // deltas.
  void Reset();

 private:
  MetricsMode mode_;
  bool profiling_;
  mutable Spinlock lock_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t class_capacity_ = 0;
  std::vector<uint64_t> spill_;  // class-major, guarded by lock_

  std::unique_ptr<std::atomic<uint64_t>[]> coverage_;
  size_t coverage_bits_ = 0;
};

}  // namespace tesla::metrics

#endif  // TESLA_METRICS_COLLECTOR_H_
