// tesla::profile — the workload profiler's vocabulary.
//
// Where the metrics counters answer "what did the runtime do" (numbers the
// operator watches), the profile answers "what shape is the workload"
// (numbers the *plan compiler* consumes): per-class instance fan-out,
// binding-key cardinality, and how often dispatch fell off the indexed fast
// path onto a full scan. Both are views of one per-class cell block,
// recorded by metrics::Collector's single-writer per-context shards
// (~ns/event) when RuntimeOptions::profile is on. A profile rides the
// TSLATRC capture (its profile section), merges deterministically across fleet
// shards, and feeds back into Register() as PlanHints — per-class capacity
// and index-key decisions derived from data instead of global knobs.
//
// This header names the profile view of the cell schema
// (metrics/metrics.h): its leading kCellCount cells, in wire order, plus the
// per-class partial-binding tallies and distinct-key sketches.
#ifndef TESLA_PROFILE_PROFILE_H_
#define TESLA_PROFILE_PROFILE_H_

#include <cstddef>
#include <cstdint>

#include "metrics/metrics.h"

namespace tesla::profile {

using metrics::Cell;
using metrics::kCellDeterministic;
using metrics::kCellHelp;
using metrics::kCellMerge;
using metrics::kCellNames;
using metrics::MergeRule;

// The profile view's width: cells [0, kCellCount) of the schema.
inline constexpr size_t kCellCount = metrics::kProfileCellCount;

// Distinct-key sketches: per tracked key variable, a 256-bit linear-counting
// bitmap. A binding value hashes to one of m = 256 bits; the distinct-value
// estimate is -m·ln(V) where V is the fraction of zero bits. Standard error
// is ≈ √m·(e^{n/m} − n/m − 1)/n — under 10% up to n ≈ m and the estimate
// saturates (reported as ≥ the countable range) once the bitmap fills. The
// plan compiler only needs "a handful vs hundreds", so a fixed 32-byte sketch
// per variable beats per-value storage; merging two sketches is bitwise OR
// (commutative, associative, idempotent — fleet-merge safe).
using metrics::kSketchBits;
using metrics::kSketchWords;

// Key variables tracked per class (sketch + partial-binding attribution).
using metrics::kMaxKeyVars;

}  // namespace tesla::profile

#endif  // TESLA_PROFILE_PROFILE_H_
