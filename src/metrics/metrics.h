// tesla::metrics — always-on observability for the assertion runtime.
//
// The paper's evaluation (§5, figs. 11–14) is built on numbers the runtime
// should be able to report about itself continuously: how often each
// automaton class fires, what each event costs, and which temporal clauses
// are ever exercised. This module supplies the vocabulary shared by the
// collector (hot-path recording), the snapshots (merge + exposition) and the
// runtime options: the recording mode, the per-class cell schema that both
// the metrics counters and the workload profile (tesla::profile) are views
// of, and the log-bucketed latency histogram layout.
//
// Design lineage: Fay's low-overhead aggregated probes (counters merged at
// read time, never a lock on the write path) and Dapper's always-on
// production tracing. Everything here is written by exactly one thread per
// shard with relaxed atomics and merged only when a snapshot is taken.
#ifndef TESLA_METRICS_METRICS_H_
#define TESLA_METRICS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace tesla::metrics {

// How much the runtime records on the OnEvent hot path (mirrors
// trace::TraceMode's off/flight-recorder/full-capture ladder).
enum class MetricsMode : uint8_t {
  kOff = 0,       // no counters, coverage or histograms
  kCounters = 1,  // per-class counters + transition-coverage bitmap (~ns/event)
  kFull = 2,      // counters + per-event-kind dispatch-latency histograms
};

const char* MetricsModeName(MetricsMode mode);

// The per-automaton-class cell schema: X(name, help, deterministic, merge).
// One X-macro is the single source of truth for the shard layout, the merge
// loops, both views (metrics counters and the workload profile) and every
// exposition format — a cell added here appears everywhere or nowhere.
//
//   deterministic — 1 when a faithful re-run of the same per-class event
//     order must reproduce the cell exactly (the differential tests compare
//     these across sync / async-queue / multi-consumer dispatch); 0 for
//     wall-clock cells that legitimately vary run to run.
//   merge — how shards and fleet captures combine: kSum for ordinary
//     tallies, kMax for peaks. Both rules are commutative and associative,
//     so fleet merges are order-independent byte for byte.
//
// The first kProfileCellCount cells are the profile view, in its wire
// order. The index route is stored once, as probe (index_probes) or scan
// fallback; the metrics view reads it as its index_probes/index_scans
// counters (see ClassCounter below). Scans below the index population gate
// are scan_fallbacks − partial_bound.
#define TESLA_CLASS_CELLS(X)                                                   \
  X(dispatches, "events dispatched to the class's instances", 1, kSum)         \
  X(index_probes, "dispatches served by one index-bucket probe", 1, kSum)     \
  X(scan_fallbacks, "dispatches that fell back to a full instance scan", 1, kSum) \
  X(partial_bound, "scan fallbacks whose bindings covered only part of the key set", 1, kSum) \
  X(fanout_sum, "sum of live-instance populations sampled at dispatch", 1, kSum) \
  X(fanout_peak, "largest live-instance population observed at dispatch", 1, kMax) \
  X(latency_ns, "sampled dispatch latency total, nanoseconds (wall clock)", 0, kSum) \
  X(latency_samples, "dispatch latency samples taken (1-in-64 sampling)", 0, kSum) \
  X(deadline_arms, "within_ms() deadlines armed for the class", 1, kSum)       \
  X(deadline_expiries, "within_ms() deadlines that expired for the class", 1, kSum) \
  X(instances_created, "automaton instances created ((*) activations)", 1, kSum) \
  X(instances_cloned, "instances cloned by binding events", 1, kSum)           \
  X(transitions, "automaton transitions taken", 1, kSum)                       \
  X(accepts, "instances accepted at bound cleanup", 1, kSum)                   \
  X(violations, "violations reported against this class", 1, kSum)

enum class MergeRule : uint8_t { kSum, kMax };

enum class Cell : uint8_t {
#define TESLA_CELL_ENUM(name, help, det, merge) name,
  TESLA_CLASS_CELLS(TESLA_CELL_ENUM)
#undef TESLA_CELL_ENUM
};

inline constexpr size_t kCellCount = 0
#define TESLA_CELL_COUNT(name, help, det, merge) +1
    TESLA_CLASS_CELLS(TESLA_CELL_COUNT)
#undef TESLA_CELL_COUNT
    ;

inline constexpr const char* kCellNames[kCellCount] = {
#define TESLA_CELL_NAME(name, help, det, merge) #name,
    TESLA_CLASS_CELLS(TESLA_CELL_NAME)
#undef TESLA_CELL_NAME
};

inline constexpr const char* kCellHelp[kCellCount] = {
#define TESLA_CELL_HELP(name, help, det, merge) help,
    TESLA_CLASS_CELLS(TESLA_CELL_HELP)
#undef TESLA_CELL_HELP
};

inline constexpr bool kCellDeterministic[kCellCount] = {
#define TESLA_CELL_DET(name, help, det, merge) det != 0,
    TESLA_CLASS_CELLS(TESLA_CELL_DET)
#undef TESLA_CELL_DET
};

inline constexpr MergeRule kCellMerge[kCellCount] = {
#define TESLA_CELL_MERGE(name, help, det, merge) MergeRule::merge,
    TESLA_CLASS_CELLS(TESLA_CELL_MERGE)
#undef TESLA_CELL_MERGE
};

// The profile view: the leading cells, up to the first runtime cell.
inline constexpr size_t kProfileCellCount = static_cast<size_t>(Cell::instances_created);

// Distinct-key sketches: per tracked key variable, a 256-bit linear-counting
// bitmap (profile/profile.h describes the estimator).
inline constexpr size_t kSketchBits = 256;
inline constexpr size_t kSketchWords = kSketchBits / 64;

// Key variables tracked per class (sketch + partial-binding attribution).
// Classes with more key variables profile only the first four in ascending
// variable order; kMaxVariables is 16 but real assertions key on 1–3.
inline constexpr size_t kMaxKeyVars = 4;

// Per-class stride in a shard's word block: the schema cells, one
// partial-binding tally per tracked key variable (summed), then the sketch
// words (OR-merged).
inline constexpr size_t kVarPartialOffset = kCellCount;
inline constexpr size_t kSketchOffset = kCellCount + kMaxKeyVars;
inline constexpr size_t kClassStride = kCellCount + kMaxKeyVars + kMaxKeyVars * kSketchWords;

// The metrics view (ClassSnapshot::counters, tesla_class_*_total and the
// capture metrics section): the runtime cells as stored, then the index route
// as two counters.
enum class ClassCounter : uint8_t {
  instances_created,
  instances_cloned,
  transitions,
  accepts,
  violations,
  index_probes,  // cell index_probes
  index_scans,   // cell scan_fallbacks
};

inline constexpr size_t kRuntimeCellCount = kCellCount - kProfileCellCount;
inline constexpr size_t kClassCounterCount = kRuntimeCellCount + 2;
static_assert(static_cast<size_t>(ClassCounter::index_probes) == kRuntimeCellCount,
              "the metrics view reads the runtime cells in schema order");

inline constexpr const char* kClassCounterNames[kClassCounterCount] = {
    kCellNames[kProfileCellCount],     kCellNames[kProfileCellCount + 1],
    kCellNames[kProfileCellCount + 2], kCellNames[kProfileCellCount + 3],
    kCellNames[kProfileCellCount + 4], "index_probes",
    "index_scans"};

inline constexpr const char* kClassCounterHelp[kClassCounterCount] = {
    kCellHelp[kProfileCellCount],     kCellHelp[kProfileCellCount + 1],
    kCellHelp[kProfileCellCount + 2], kCellHelp[kProfileCellCount + 3],
    kCellHelp[kProfileCellCount + 4], "dispatches answered by one index-bucket probe",
    "indexed dispatches falling back to a full scan"};

// Fills one class's metrics view from its merged word block (kClassStride
// words).
inline void CountersFromCells(const uint64_t* cells, uint64_t* counters) {
  for (size_t k = 0; k < kRuntimeCellCount; k++) {
    counters[k] = cells[kProfileCellCount + k];
  }
  counters[static_cast<size_t>(ClassCounter::index_probes)] =
      cells[static_cast<size_t>(Cell::index_probes)];
  counters[static_cast<size_t>(ClassCounter::index_scans)] =
      cells[static_cast<size_t>(Cell::scan_fallbacks)];
}

// Dispatch-latency histograms: HDR-style power-of-2 buckets. A sample of `ns`
// nanoseconds lands in bucket floor(log2(ns)) (bucket 0 holds 0–1 ns), so 64
// buckets cover every uint64 duration with ≤2x relative error — enough for
// p50/p99/max summaries without per-sample storage.
inline constexpr size_t kHistogramBuckets = 64;

inline constexpr size_t BucketFor(uint64_t ns) {
  return ns == 0 ? 0 : 64 - static_cast<size_t>(__builtin_clzll(ns)) - 1;
}

// Upper bound (inclusive) of a bucket, for exposition ("le" labels).
inline constexpr uint64_t BucketUpperNs(size_t bucket) {
  return bucket >= 63 ? UINT64_MAX : (uint64_t{2} << bucket) - 1;
}

// Histograms are kept per event kind so a slow class of event (assertion
// sites stepping many instances) cannot hide behind cheap ones.
inline constexpr size_t kEventKinds = 4;  // runtime::EventKind values
inline constexpr const char* kEventKindNames[kEventKinds] = {
    "call", "return", "field_store", "assertion_site"};

}  // namespace tesla::metrics

#endif  // TESLA_METRICS_METRICS_H_
