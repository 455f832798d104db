// Capture writing and deterministic event replay.
//
// A full-capture run's event history, semantic stats and violation sequence
// go into a trace file (WriteCapture); Replay() drives the same events —
// grouped into per-context batches, in global sequence order — through a
// fresh Runtime and checks that the semantics agree event for event.
//
// Determinism caveat: for single-threaded captures the reproduction is
// exact. A multi-threaded capture orders events by their OnEvent entry
// (the global sequence), which can differ from the order in which the
// original threads acquired the shard locks — replays of racy histories can
// legitimately diverge, and `SemanticSummary::dropped` > 0 (flight-recorder
// overwrites or capture-cap drops) makes divergence expected.
#ifndef TESLA_TRACE_REPLAY_H_
#define TESLA_TRACE_REPLAY_H_

#include <string>
#include <utility>
#include <vector>

#include "runtime/runtime.h"
#include "support/result.h"
#include "trace/format.h"

namespace tesla::trace {

// Serialises `rt`'s full-capture history plus its semantic summary to
// `path`. `origin` names the manifest (see trace/origins.h) a replayer must
// register. Fails unless rt was built with trace_mode = kFullCapture.
Status WriteCapture(const std::string& path, const std::string& origin,
                    const runtime::Runtime& rt);

struct ReplayResult {
  uint64_t events_replayed = 0;
  runtime::RuntimeStats stats;
  std::vector<std::pair<runtime::ViolationKind, std::string>> violations;
  bool matched = false;    // stats and violation sequence agree with the capture
  std::string divergence;  // per-field mismatch report ("" when matched)
  // When the capture embeds a metrics section, the replay runs with counters
  // on and its snapshot lands here; per-class counters and transition
  // coverage are folded into the matched/divergence verdict (histograms are
  // wall-clock and never compared).
  metrics::Snapshot metrics;
  // When the capture embeds a profile section, the replay runs with
  // profiling on and its snapshot lands here; deterministic cells, partial
  // attribution and sketches are folded into the verdict (latency cells are
  // wall-clock and never compared).
  profile::Snapshot profile;
};

// RuntimeOptions reproducing the capture's semantics: the recorded
// semantics-bearing options and plan inputs, tracing off, and fail_stop off
// (a capture that was written never aborted, so continuing past violations is
// equivalent — and required to compare complete runs).
runtime::RuntimeOptions ReplayOptions(const TraceFile& file);

// Replays `file` through `rt` — whose manifest must already be registered
// against a remapped file (TraceFile::InternAndRemap() before
// Runtime::Register()) — and compares stats and violations with the summary.
// Installs a temporary violation-collecting handler: `rt` must not process
// further events after this returns.
Result<ReplayResult> Replay(const TraceFile& file, runtime::Runtime& rt);

// Convenience: read `path`, obtain its manifest (the embedded manifest
// when present, else the resolved origin — see trace/origins.h), build a
// matching Runtime and replay.
Result<ReplayResult> ReplayFile(const std::string& path);

}  // namespace tesla::trace

#endif  // TESLA_TRACE_REPLAY_H_
