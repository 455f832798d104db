// Merged workload-profile view: per-class cells, sketches and pool marks,
// plus every rendering the fleet already expects — JSON, Prometheus
// (tesla_profile_* families), and the operator report (hot-class ranking,
// scan-fallback offenders, capacity headroom).
#ifndef TESLA_PROFILE_SNAPSHOT_H_
#define TESLA_PROFILE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "profile/profile.h"

namespace tesla::profile {

struct ClassProfile {
  std::string name;
  // Key variables the class clones on (ascending variable order), as
  // compiled into the plan; at most kMaxKeyVars are profiled.
  std::vector<uint16_t> key_vars;
  uint64_t cells[kCellCount] = {};
  // Partial-binding attribution: var_partial[p] counts scan fallbacks where
  // key variable p *was* bound (so an index keyed on it would have served).
  uint64_t var_partial[kMaxKeyVars] = {};
  // Linear-counting distinct-value sketches, one per tracked key variable.
  uint64_t sketch[kMaxKeyVars][kSketchWords] = {};

  uint64_t cell(Cell c) const { return cells[static_cast<size_t>(c)]; }
  // Linear-counting estimate of distinct values seen for key variable `p`
  // (-m·ln(V)); kSketchBits when the bitmap saturated.
  double EstimatedDistinct(size_t p) const;
  // Mean live-instance population over the class's dispatches.
  double MeanFanout() const;
};

struct Snapshot {
  // Largest SlotPool high-water mark across the runtime's contexts, and the
  // capacity those pools were built with — the capacity-headroom signal.
  uint64_t pool_high_water = 0;
  uint64_t pool_capacity = 0;
  std::vector<ClassProfile> classes;  // plan order (class id), deterministic
};

// Merges `in` into `inout`: classes are matched by name (union), cells
// combine per the schema's merge rule (sum / max / OR), pool marks combine
// by max. Commutative and associative, so fleet merges are order-independent.
void MergeInto(Snapshot* inout, const Snapshot& in);

std::string ToJson(const Snapshot& snapshot);
// tesla_profile_* Prometheus families (text exposition format 0.0.4).
std::string ToPrometheus(const Snapshot& snapshot);
// The operator report: classes ranked by dispatch volume, scan-fallback
// offenders with the variable a prefix-keyed index would serve, capacity headroom.
std::string RenderReport(const Snapshot& snapshot);

}  // namespace tesla::profile

#endif  // TESLA_PROFILE_SNAPSHOT_H_
