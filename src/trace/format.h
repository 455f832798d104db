// The binary trace-capture format: one compact, self-describing layout.
//
// A capture file turns a recorded run into a deterministic repro and a bench
// input: it carries everything a fresh process needs to replay the event
// stream through a fresh Runtime and check that the semantics agree — the
// assertion set, the plan inputs that move verdict counters, the events and
// the verdicts themselves.
//
// Layout (all integers varint/LEB128, signed values zigzag-encoded, strings
// varint length + bytes):
//
//   magic "TSLATRC8" (8 bytes)   any other digit is kErrVersionMismatch
//   sections, to EOF             each: tag byte, varint payload length,
//                                payload
//
// The reader decodes each known section through a cursor bounded to its
// payload. A section that overruns EOF, leaves payload bytes unread or
// repeats a known tag is corrupt, as is a file missing a required section;
// an unknown tag is skipped. Within a section the schema is fixed: a changed
// schema takes a new tag or a new magic digit.
//
//   plan (required)      origin string (names the manifest a replayer
//     registers when none is embedded, e.g. "kernelsim:all"); the
//     CaptureOptions codec (flags byte, instances_per_context,
//     global_shards); the registered manifest in the
//     .tesla text format (automata/manifest.h), in registration order so
//     assertion-site targets (automaton ids) resolve by position — empty
//     when the writer had none, and replay then resolves the origin; the
//     plan hints as profile::HintsToText text
//   symbols (required)   count, then count strings: the capture process's
//     interner table; record targets index into it
//   records (required)   to the end of the payload, per record: kind byte,
//     flags byte, ctx, seq delta, zigzag ts delta (both against the
//     previous record; ts is signed because contexts interleave), target,
//     count, count zigzag values, count vars (sites only), zigzag
//     return_value (returns only)
//   metrics (optional, metrics_mode != off)   mode byte, class count, then
//     per class: name string, the counters in metrics::ClassCounter order,
//     transition count, then per statically-valid transition: state,
//     symbol, fired byte, description string. In kFull mode, per event
//     kind: sample count, ns sum, occupied-bucket count, then (bucket index,
//     count) pairs. Descriptions are embedded so a coverage report needs no
//     manifest, and replays diff coverage bit for bit.
//   profile (optional, profiling on)   pool capacity, pool high-water, class
//     count, then per class: name string, key-var count and the variable
//     ids, the kCellCount cells of the profile view, kMaxKeyVars
//     partial-binding counters, then kMaxKeyVars x kSketchWords sketch
//     words — what `tesla-trace profile` renders and `--hints-out` compiles
//     into PlanHints
//   summary (required)   dropped, the kRuntimeStatsFieldCount RuntimeStats
//     fields in X-macro order, violation count, then (kind byte,
//     automaton-name string) each. Written last, so a capture cut at any
//     section boundary lacks it.
//
// Seq deltas are non-negative because records are sequence-sorted.
#ifndef TESLA_TRACE_FORMAT_H_
#define TESLA_TRACE_FORMAT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "metrics/snapshot.h"
#include "profile/hints.h"
#include "profile/snapshot.h"
#include "runtime/options.h"
#include "support/result.h"
#include "trace/record.h"

namespace tesla::trace {

inline constexpr char kTraceMagic[8] = {'T', 'S', 'L', 'A', 'T', 'R', 'C', '8'};

// Machine-readable Error::code values (support/result.h) attached by the
// trace readers and origin resolver, so callers — the tesla-trace CLI in
// particular — can map failure *classes* to distinct exit codes without
// parsing message strings.
enum ErrorCode : int {
  kErrNone = 0,
  kErrUnreadable = 1,       // the file cannot be opened or read at the OS level
  kErrCorrupt = 2,          // bad magic, truncated section, invalid enum value
  kErrVersionMismatch = 3,  // a capture or shm segment of another format version
  kErrUnknownOrigin = 4,    // ManifestForOrigin() has no resolution
};

// The summary section's RuntimeStats fields, in declaration order —
// generated from the TESLA_RUNTIME_STATS X-macro in runtime/options.h, so a
// RuntimeStats counter cannot be added (or dropped) without the capture, the
// replay comparator, the CLI's stats dump and the metrics exposition all
// moving with it. `replay_compared` mirrors the X-macro's third column:
// ingestion-side and wall-clock counters are carried in the capture but a
// replay is not expected to reproduce them.
struct StatsField {
  const char* name;
  uint64_t runtime::RuntimeStats::* field;
  bool replay_compared;
};

inline constexpr StatsField kStatsFields[] = {
#define TESLA_STATS_FIELD(name, desc, replay) \
  {#name, &runtime::RuntimeStats::name, replay != 0},
    TESLA_RUNTIME_STATS(TESLA_STATS_FIELD)
#undef TESLA_STATS_FIELD
};

static_assert(sizeof(kStatsFields) / sizeof(kStatsFields[0]) ==
                  runtime::kRuntimeStatsFieldCount,
              "summary schema out of sync with RuntimeStats");

// The subset of RuntimeOptions that changes replay semantics, and its one
// codec: a flags byte plus two integers inside the plan encoding.
struct CaptureOptions {
  bool lazy_init = true;
  bool use_dfa = false;
  bool instance_index = true;
  uint64_t instances_per_context = 256;
  uint64_t global_shards = 8;

  static CaptureOptions Of(const runtime::RuntimeOptions& options);

  // lazy_init | use_dfa << 1 | instance_index << 2.
  uint8_t flags() const;
  // Rebuilds options read from an untrusted file or segment: kErrCorrupt
  // for an unknown flag bit or a pool past runtime::kMaxInstancesPerContext
  // (the runtime clamps to the same ceiling, so whatever it writes decodes).
  static Result<CaptureOptions> Decode(uint8_t flags, uint64_t instances_per_context,
                                       uint64_t global_shards);
};

// What the original run observed; replay must reproduce it event for event.
struct SemanticSummary {
  uint64_t dropped = 0;  // capture-side drops (nonzero ⇒ replay may diverge)
  runtime::RuntimeStats stats;
  std::vector<std::pair<runtime::ViolationKind, std::string>> violations;
  // The capture run's metrics snapshot (metrics_mode != off only).
  // Per-class counters and the transition-coverage table are deterministic
  // and replay-comparable; histograms are wall-clock and informational.
  bool has_metrics = false;
  metrics::Snapshot metrics;
  // The capture run's workload profile (Runtime profiling on only).
  // Deterministic cells are replay-comparable; latency cells are wall-clock.
  bool has_profile = false;
  profile::Snapshot profile;
};

// The plan inputs: what a fresh process needs, besides the writer's symbol
// table, to register the writer's assertion set and run it under the same
// dispatch plan. A capture's plan section and an shm segment's plan region
// are both this struct in one encoding (Encode/Decode).
struct Plan {
  std::string origin;
  CaptureOptions options;
  // The plan input beyond CaptureOptions that moves verdict counters
  // (index_probes vs index_scans, pool sizing).
  profile::PlanHints plan_hints;
  // The embedded manifest (empty for writers with nothing to embed). When
  // present, readers prefer it over resolving `origin` — the plan carries
  // its own assertion set.
  std::string manifest_text;

  // The plan a runtime with `options` and registered `manifest_text` runs.
  static Plan Of(std::string origin, const runtime::RuntimeOptions& options,
                 std::string manifest_text);
  // Default RuntimeOptions with every plan input applied: a reader's
  // runtime routes each dispatch as the writer's did.
  runtime::RuntimeOptions ToRuntimeOptions() const;

  std::vector<uint8_t> Encode() const;
  // Decodes bytes from an untrusted file or segment through a bounded
  // cursor: kErrCorrupt for a truncated or over-long encoding, bad options
  // (CaptureOptions::Decode) or hints that do not parse.
  static Result<Plan> Decode(const uint8_t* data, size_t size);
};

// A capture, in memory: Write() and Read() are exact inverses.
struct TraceFile : Plan {
  std::vector<std::string> symbols;  // index = symbol id in the capture process
  std::vector<TraceRecord> records;  // sequence-sorted
  SemanticSummary summary;

  // Fails with an ErrorCode-tagged Error: kErrUnreadable (OS-level open or
  // read failure), kErrVersionMismatch (a TSLATRC file of another format
  // version), or kErrCorrupt (bad magic, a malformed, repeated or missing
  // section — every length and enum field is validated before use).
  static Result<TraceFile> Read(const std::string& path);

  // Encodes the whole capture and writes it in one go (kErrUnreadable when
  // the file cannot be opened or written).
  Status Write(const std::string& path) const;

  // Interns every embedded symbol into this process's interner and rewrites
  // record targets accordingly. Must run before Runtime::Register() so the
  // replaying dispatch plan covers every recorded symbol.
  void InternAndRemap();
};

}  // namespace tesla::trace

#endif  // TESLA_TRACE_FORMAT_H_
