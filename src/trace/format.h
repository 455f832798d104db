// The binary trace-capture format (versioned, self-describing, compact).
//
// A capture file turns a recorded run into a deterministic repro and a bench
// input: it carries everything a fresh process needs to replay the event
// stream through a fresh Runtime and check that the semantics agree.
//
// Layout (all integers varint/LEB128, signed values zigzag-encoded):
//
//   magic "TSLATRC6" (8 bytes)        version gate: the trailing digit is
//                                     the version (v1–v5 files are still
//                                     read; v1 carries no metrics section,
//                                     v1/v2 carry the legacy 14-field
//                                     stats footer, v1–v3 have no embedded
//                                     manifest, v1–v4 have no profile
//                                     section, and v1–v5 carry no record
//                                     timestamps or timestamp footer)
//   origin   string                   e.g. "kernelsim:all" — names the
//                                     manifest a replayer must register
//   options                           the semantics-bearing RuntimeOptions
//     (CaptureOptions): flags byte, instances_per_context, global_shards
//   manifest string (v4)              the registered manifest, serialised in
//     the .tesla text format (automata/manifest.h), in registration order —
//     so assertion-site targets (automaton ids) resolve by position. Makes
//     the capture *self-describing*: a replayer prefers this over resolving
//     the origin, so user assertion sets replay on machines with no
//     built-in manifest. Empty when the writer had none to embed.
//   symbols  count, then count strings   the capture process's interner
//                                     table; record targets index into it
//   records  per record: kind byte (0xFF terminates the stream),
//     flags byte, ctx, seq delta (vs previous record), zigzag ts delta
//     (v6; vs previous record — signed because contexts interleave),
//     target, count, count zigzag values, count vars (sites only),
//     zigzag return_value (returns only)
//   footer   dropped, the RuntimeStats field count (v3+; v1/v2 have no
//     count and carry exactly kLegacyFooterStatsFields fields), the
//     RuntimeStats fields in declaration order, violation count, then
//     (kind byte, automaton-name string) each
//   metrics  (v2) presence byte; when 1: mode byte, class count, then per
//     class: name string, the per-class counters in metrics::ClassCounter
//     order, transition count, then per statically-valid transition:
//     state, symbol, fired byte, description string. In kFull mode, per
//     event kind: sample count, ns sum, occupied-bucket count, then
//     (bucket index, count) pairs. Descriptions are embedded so a coverage
//     report needs no origin-manifest resolution, and replays can diff
//     coverage bit for bit.
//   profile  (v5) presence byte; when 1: pool capacity, pool high-water,
//     class count, then per class: name string, tracked-key-var count and
//     the variable ids, a self-describing cell count followed by the cells
//     of the profile view (the leading TESLA_CLASS_CELLS cells, in order; a
//     reader discards cells a newer writer appended; cells the capture
//     predates stay zero), kMaxKeyVars
//     partial-binding counters, then kMaxKeyVars × kSketchWords sketch
//     words. The section is the workload profile `tesla-trace profile`
//     renders and `--hints-out` compiles into PlanHints.
//   timestamps (v6) presence byte; when 1 (some record carried a nonzero
//     timestamp): a self-describing field count, then the fields — base
//     (first nonzero) timestamp, last timestamp. Same append policy as the
//     stats footer: a reader discards fields a newer writer appended. The
//     section lets `tesla-trace` report the capture's clock domain span
//     without scanning records, and anchors replayed deadline arithmetic.
//
// Strings are varint length + bytes. Seq deltas are non-negative because the
// writer is handed a sequence-sorted snapshot.
#ifndef TESLA_TRACE_FORMAT_H_
#define TESLA_TRACE_FORMAT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "metrics/snapshot.h"
#include "profile/snapshot.h"
#include "runtime/options.h"
#include "support/intern.h"
#include "support/result.h"
#include "trace/record.h"

namespace tesla::trace {

inline constexpr char kTraceMagic[8] = {'T', 'S', 'L', 'A', 'T', 'R', 'C', '6'};
inline constexpr uint32_t kTraceVersion = 6;

// Machine-readable Error::code values (support/result.h) attached by the
// trace readers and origin resolver, so callers — the tesla-trace CLI in
// particular — can map failure *classes* to distinct exit codes without
// parsing message strings.
enum ErrorCode : int {
  kErrNone = 0,
  kErrUnreadable = 1,       // the file cannot be opened or read at the OS level
  kErrCorrupt = 2,          // bad magic, truncated section, invalid enum value
  kErrVersionMismatch = 3,  // a TSLATRC capture newer than this reader
  kErrUnknownOrigin = 4,    // ManifestForOrigin() has no resolution
};

// The footer's RuntimeStats fields, in declaration order — generated from
// the TESLA_RUNTIME_STATS X-macro in runtime/options.h, so a RuntimeStats
// counter cannot be added (or dropped) without the capture footer, the
// replay comparator, the CLI's stats dump and the metrics exposition all
// moving with it. `replay_compared` mirrors the X-macro's third column:
// ingestion-side and wall-clock counters are carried in the footer but a
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
              "footer schema out of sync with RuntimeStats");

// v1/v2 captures carry exactly the first 14 RuntimeStats fields (the schema
// at the time those formats were current); v3 footers are self-describing —
// they lead with a field count, so future appends stay readable. The
// RuntimeStats X-macro may therefore only ever append.
inline constexpr size_t kLegacyFooterStatsFields = 14;
static_assert(runtime::kRuntimeStatsFieldCount >= kLegacyFooterStatsFields,
              "RuntimeStats fields may be appended, never removed");

// The subset of RuntimeOptions that changes replay semantics, and its one
// codec. Captures (the options section) and shm segments (ShmHeader) carry
// it as a flags byte plus two integers.
struct CaptureOptions {
  bool lazy_init = true;
  bool use_dfa = false;
  bool instance_index = true;
  uint64_t instances_per_context = 256;
  uint64_t global_shards = 8;

  static CaptureOptions Of(const runtime::RuntimeOptions& options);
  // Default RuntimeOptions with these fields applied.
  runtime::RuntimeOptions ToRuntimeOptions() const;

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
  // The capture run's metrics snapshot (v2, metrics_mode != off only).
  // Per-class counters and the transition-coverage table are deterministic
  // and replay-comparable; histograms are wall-clock and informational.
  bool has_metrics = false;
  metrics::Snapshot metrics;
  // The capture run's workload profile (v5, Runtime profiling on only).
  // Deterministic cells are replay-comparable; latency cells are wall-clock.
  bool has_profile = false;
  profile::Snapshot profile;
  // The capture's timestamp span (v6; present only when some record carried
  // a nonzero timestamp, i.e. a timed clause was registered or the producer
  // pre-stamped events). Replays inherit timestamps from the records
  // themselves; the span is a summary for tooling.
  bool has_timestamps = false;
  uint64_t ts_base_ns = 0;  // first nonzero record timestamp
  uint64_t ts_last_ns = 0;  // last nonzero record timestamp
};

class TraceWriter {
 public:
  TraceWriter() = default;
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  // Writes the header, including the interner's current table.
  // `manifest_text` is the registered manifest serialised in the .tesla text
  // format (empty: the capture is not self-describing and replays only
  // against a resolvable origin).
  Status Open(const std::string& path, const std::string& origin,
              const CaptureOptions& options, const StringInterner& interner,
              const std::string& manifest_text = std::string());

  void Append(const TraceRecord& record);

  // Writes the end marker and footer, and closes the file.
  Status Finish(const SemanticSummary& summary);

 private:
  std::FILE* out_ = nullptr;
  uint64_t prev_seq_ = 0;
  uint64_t prev_ts_ = 0;   // ts delta base (record stream is seq-sorted)
  uint64_t base_ts_ = 0;   // first nonzero record timestamp seen
  uint64_t last_ts_ = 0;   // most recent nonzero record timestamp
  bool any_ts_ = false;
  std::vector<uint8_t> buffer_;
};

// A fully parsed capture.
struct TraceFile {
  uint32_t version = 0;
  std::string origin;
  CaptureOptions options;
  // The embedded manifest (v4; empty for older captures or writers with
  // nothing to embed). When present, replay prefers it over resolving
  // `origin` — the capture carries its own assertion set.
  std::string manifest_text;
  std::vector<std::string> symbols;  // index = symbol id in the capture process
  std::vector<TraceRecord> records;
  SemanticSummary summary;

  // Fails with an ErrorCode-tagged Error: kErrUnreadable (OS-level open or
  // read failure), kErrVersionMismatch (a TSLATRC file newer than this
  // reader), or kErrCorrupt (bad magic, truncated or invalid sections —
  // every length and enum field is validated before use).
  static Result<TraceFile> Read(const std::string& path);

  // Interns every embedded symbol into this process's interner and rewrites
  // record targets accordingly. Must run before Runtime::Register() so the
  // replaying dispatch plan covers every recorded symbol.
  void InternAndRemap();
};

}  // namespace tesla::trace

#endif  // TESLA_TRACE_FORMAT_H_
