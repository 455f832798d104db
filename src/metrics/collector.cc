#include "metrics/collector.h"

#include <algorithm>

namespace tesla::metrics {

const char* MetricsModeName(MetricsMode mode) {
  switch (mode) {
    case MetricsMode::kOff:
      return "off";
    case MetricsMode::kCounters:
      return "counters";
    case MetricsMode::kFull:
      return "counters+histograms";
  }
  return "?";
}

uint64_t HistogramData::QuantileNs(double q) const {
  if (count == 0) {
    return 0;
  }
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count - 1));
  uint64_t seen = 0;
  for (size_t bucket = 0; bucket < kHistogramBuckets; bucket++) {
    seen += buckets[bucket];
    if (seen > rank) {
      return BucketUpperNs(bucket);
    }
  }
  return BucketUpperNs(kHistogramBuckets - 1);
}

uint64_t HistogramData::MaxNs() const {
  for (size_t bucket = kHistogramBuckets; bucket-- > 0;) {
    if (buckets[bucket] != 0) {
      return BucketUpperNs(bucket);
    }
  }
  return 0;
}

namespace {

uint64_t Load(const std::atomic<uint64_t>& word) {
  return word.load(std::memory_order_relaxed);
}
uint64_t Load(uint64_t word) { return word; }

// Combines one class-major word block of `stride` words per class (a
// shard's atomics or the spill block, cells at their Slot) into `out`
// (kClassStride words per class, schema order) per the schema: cells by
// kCellMerge, partial-binding tallies summed, sketch words OR-ed. A
// kCountersStride block has only the route and runtime cells.
template <typename Word>
void MergeWords(uint64_t* out, size_t classes, const Word* in, size_t stride) {
  for (size_t c = 0; c < classes; c++) {
    uint64_t* dst = out + c * kClassStride;
    const Word* src = in + c * stride;
    for (size_t i = 0; i < kCellCount; i++) {
      const size_t slot = Slot(static_cast<Cell>(i));
      if (slot >= stride) {
        continue;
      }
      const uint64_t value = Load(src[slot]);
      if (kCellMerge[i] == MergeRule::kMax) {
        dst[i] = value > dst[i] ? value : dst[i];
      } else {
        dst[i] += value;
      }
    }
    if (stride < kClassStride) {
      continue;
    }
    for (size_t i = kVarPartialOffset; i < kSketchOffset; i++) {
      dst[i] += Load(src[i]);
    }
    for (size_t i = kSketchOffset; i < kClassStride; i++) {
      dst[i] |= Load(src[i]);
    }
  }
}

}  // namespace

Shard::Shard(size_t class_capacity, bool counting, bool profiling, bool histograms)
    : class_capacity_(class_capacity),
      stride_(StrideFor(profiling)),
      counting_(counting),
      profiling_(profiling) {
  if (class_capacity_ > 0) {
    cells_ = std::make_unique<std::atomic<uint64_t>[]>(class_capacity_ * stride_);
  }
  if (histograms) {
    histograms_ = std::make_unique<Histogram[]>(kEventKinds);
  }
}

Shard* Collector::RegisterShard() {
  LockGuard<Spinlock> guard(lock_);
  shards_.push_back(std::make_unique<Shard>(class_capacity_, counting(), profiling_,
                                            histograms_enabled()));
  return shards_.back().get();
}

void Collector::EnsureClassCapacity(size_t count) {
  LockGuard<Spinlock> guard(lock_);
  if (count > class_capacity_) {
    class_capacity_ = count;
    spill_.resize(count * kClassStride, 0);
  }
}

void Collector::InstallCoverage(size_t bits) {
  const size_t words = (bits + 63) / 64;
  auto fresh = words > 0 ? std::make_unique<std::atomic<uint64_t>[]>(words) : nullptr;
  LockGuard<Spinlock> guard(lock_);
  coverage_ = std::move(fresh);
  coverage_bits_ = bits;
}

void Collector::Spill(uint32_t class_id, Cell cell, uint64_t amount) {
  LockGuard<Spinlock> guard(lock_);
  const size_t word = class_id * kClassStride + Slot(cell);
  if (word >= spill_.size()) {
    return;
  }
  if (kCellMerge[static_cast<size_t>(cell)] == MergeRule::kMax) {
    spill_[word] = amount > spill_[word] ? amount : spill_[word];
  } else {
    spill_[word] += amount;
  }
}

void Collector::Merge(size_t class_count, uint64_t* out) const {
  const size_t words = class_count * kClassStride;
  for (size_t i = 0; i < words; i++) {
    out[i] = 0;
  }
  LockGuard<Spinlock> guard(lock_);
  for (const auto& shard : shards_) {
    MergeWords(out, std::min(shard->class_capacity_, class_count), shard->cells_.get(),
               shard->stride_);
  }
  MergeWords(out, std::min(spill_.size() / kClassStride, class_count), spill_.data(),
             kClassStride);
}

void Collector::MergeHistograms(HistogramData* out) const {
  for (size_t kind = 0; kind < kEventKinds; kind++) {
    out[kind] = HistogramData{};
  }
  LockGuard<Spinlock> guard(lock_);
  for (const auto& shard : shards_) {
    if (shard->histograms_ == nullptr) {
      continue;
    }
    for (size_t kind = 0; kind < kEventKinds; kind++) {
      const Shard::Histogram& hist = shard->histograms_[kind];
      out[kind].count += hist.count.load(std::memory_order_relaxed);
      out[kind].sum_ns += hist.sum_ns.load(std::memory_order_relaxed);
      for (size_t bucket = 0; bucket < kHistogramBuckets; bucket++) {
        out[kind].buckets[bucket] += hist.buckets[bucket].load(std::memory_order_relaxed);
      }
    }
  }
}

void Collector::Reset() {
  LockGuard<Spinlock> guard(lock_);
  for (const auto& shard : shards_) {
    for (size_t i = 0; i < shard->class_capacity_ * shard->stride_; i++) {
      shard->cells_[i].store(0, std::memory_order_relaxed);
    }
    if (shard->histograms_ != nullptr) {
      for (size_t kind = 0; kind < kEventKinds; kind++) {
        Shard::Histogram& hist = shard->histograms_[kind];
        hist.count.store(0, std::memory_order_relaxed);
        hist.sum_ns.store(0, std::memory_order_relaxed);
        for (size_t bucket = 0; bucket < kHistogramBuckets; bucket++) {
          hist.buckets[bucket].store(0, std::memory_order_relaxed);
        }
      }
    }
  }
  for (uint64_t& cell : spill_) {
    cell = 0;
  }
  for (size_t word = 0; word < (coverage_bits_ + 63) / 64; word++) {
    coverage_[word].store(0, std::memory_order_relaxed);
  }
}

}  // namespace tesla::metrics
