// PlanHints: the feedback half of tesla::profile.
//
// A profile snapshot distils into per-class plan hints that Register()
// consumes at plan-compile time:
//
//   * capacity — expected per-class instance fan-out. The runtime sizes each
//     context's SlotPool from the sum of capacity hints (replacing the
//     single instances_per_context knob with data): any context can host any
//     class's instances, so the sum is the safe per-pool bound.
//   * prefix_key_pos — position (in the class's ascending-variable key
//     order) of the one key variable to key the class's instance index on,
//     or -1 for all of them. Chosen for classes whose scans are dominated by
//     partially-bound dispatches that do bind this variable.
//
// Hints travel as a line-oriented text file (one class per line) emitted by
// `tesla-trace profile --hints-out` / `mac_audit --profile-out` and read
// back via `--plan-hints`; unknown classes and malformed lines are reported,
// never silently applied.
#ifndef TESLA_PROFILE_HINTS_H_
#define TESLA_PROFILE_HINTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "profile/snapshot.h"
#include "support/result.h"

namespace tesla::profile {

struct ClassHint {
  std::string name;
  // Expected live-instance fan-out (0 = no hint; plan falls back to the
  // instances_per_context share).
  uint32_t capacity = 0;
  // Position of the key variable the instance index is keyed on, or -1
  // for the full key.
  int32_t prefix_key_pos = -1;
};

struct PlanHints {
  std::vector<ClassHint> classes;

  bool empty() const { return classes.empty(); }
  const ClassHint* Find(const std::string& name) const {
    for (const ClassHint& hint : classes) {
      if (hint.name == name) {
        return &hint;
      }
    }
    return nullptr;
  }
};

// Distils a merged profile into hints (deterministic: depends only on the
// snapshot's contents). Classes that never dispatched get no hint line.
PlanHints HintsFromSnapshot(const Snapshot& snapshot);

// Text round-trip. Format v2, one class per line (# comments, blank lines
// ok):
//   class <name-length>:<name> capacity=<n> prefix_key_pos=<n>
// The length prefix keeps names with spaces unambiguous. Parsing is strict:
// decimal digits only (a '-' only before prefix_key_pos's 1), values in
// range, nothing after the last field; anything else — a v1 line with its
// min_population field included — is an Error carrying the line and
// column.
std::string HintsToText(const PlanHints& hints);
Result<PlanHints> ParseHints(const std::string& text);

// File convenience wrappers (used by the CLI tools and examples).
Status WriteHintsFile(const std::string& path, const PlanHints& hints);
Result<PlanHints> ReadHintsFile(const std::string& path);

}  // namespace tesla::profile

#endif  // TESLA_PROFILE_HINTS_H_
