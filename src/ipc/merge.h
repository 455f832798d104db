// Fleet-level capture aggregation: `tesla-trace merge`.
//
// Each shard of a fleet — one instrumented process, container or machine —
// writes its own TSLATRC capture. MergeCaptureFiles() unions them into one
// deterministic report:
//
//   * RuntimeStats counters are summed field-by-field (via the
//     TESLA_RUNTIME_STATS schema, so a new counter merges automatically);
//   * violations become a multiset: (kind, automaton) with an occurrence
//     count, sorted — the fleet's failure census, independent of which shard
//     saw what;
//   * metrics snapshots merge per class, keyed by automaton name: counters
//     sum, transition-coverage bits OR — a clause is *dead fleet-wide* only
//     if no shard ever fired it, which is the question a fleet coverage
//     report answers — and dispatch-latency histograms sum bucket-wise;
//   * shards recorded against different assertion sets are rejected: two
//     same-named classes whose transition grids disagree (different states,
//     symbols or descriptions) make coverage bits incomparable.
//
// Determinism: every combine step is commutative and associative and classes
// are sorted by name, so any input order yields byte-identical ToJson() /
// ToPrometheus() output — merge outputs can themselves be diffed, cached or
// re-merged.
//
// The merged snapshot feeds the existing exposition formats
// (metrics::ToJson / ToPrometheus / RenderText), so one Prometheus scrape
// target can serve a whole fleet's assertion coverage.
#ifndef TESLA_IPC_MERGE_H_
#define TESLA_IPC_MERGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/snapshot.h"
#include "profile/snapshot.h"
#include "support/result.h"
#include "trace/format.h"

namespace tesla::ipc {

// One (kind, automaton) violation class with its fleet-wide occurrence count.
struct ViolationCount {
  runtime::ViolationKind kind = runtime::ViolationKind::kBadSite;
  std::string automaton;
  uint64_t count = 0;
};

struct FleetReport {
  uint64_t shards = 0;          // captures merged
  uint64_t dropped = 0;         // summed capture-side drops
  uint64_t events = 0;          // summed record counts
  runtime::RuntimeStats stats;  // summed across shards
  std::vector<ViolationCount> violations;  // sorted by (kind, automaton)
  // Merged metrics (has_metrics: at least one shard carried a snapshot;
  // shards without one contribute stats and violations only, so dead-clause
  // verdicts cover exactly the shards that recorded coverage).
  bool has_metrics = false;
  uint64_t metric_shards = 0;  // captures that carried a metrics snapshot
  metrics::Snapshot metrics;
  // Merged workload profile (profiled captures): cells combine per the profile
  // schema's merge rule (sum / max), sketches OR, pool marks max — so the
  // fleet profile answers the same plan-compilation questions a single
  // shard's does, and `tesla-trace profile` can compile hints from it.
  bool has_profile = false;
  uint64_t profile_shards = 0;  // captures that carried a profile section
  profile::Snapshot profile;
};

// Merges already-parsed captures. `labels[i]` names capture i in error
// messages (the CLI passes file paths).
Result<FleetReport> MergeCaptures(const std::vector<trace::TraceFile>& captures,
                                  const std::vector<std::string>& labels);

// Reads and merges capture files. Read errors keep their ErrorCode tags
// (kErrUnreadable/kErrCorrupt/kErrVersionMismatch) so the CLI maps them to
// exit codes; a transition-grid mismatch is tagged kErrVersionMismatch.
Result<FleetReport> MergeCaptureFiles(const std::vector<std::string>& paths);

// The fleet report as JSON: a "fleet" object (shards, drops, events), the
// summed stats, the violation census, and — when any shard carried metrics —
// the merged snapshot under "metrics" (metrics::ToJson form). Deterministic
// for any input order.
std::string FleetToJson(const FleetReport& report);

// The merged snapshot in Prometheus text exposition format, preceded by
// fleet-level gauges (shards merged, capture drops). Valid scrape output
// whether or not any shard carried metrics (stats counters are always
// present in the snapshot).
std::string FleetToPrometheus(const FleetReport& report);

}  // namespace tesla::ipc

#endif  // TESLA_IPC_MERGE_H_
