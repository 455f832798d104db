// libtesla configuration, violation reports and statistics.
//
// RuntimeOptions holds only what the runtime itself reads. The ingestion
// front-ends layered above it carry their own knobs: queue::QueueOptions
// (async drain threads, src/queue) and ipc::PublisherOptions (shm sidecar
// publication, src/ipc).
#ifndef TESLA_RUNTIME_OPTIONS_H_
#define TESLA_RUNTIME_OPTIONS_H_

#include <cstdint>
#include <functional>
#include <string>

#include "metrics/metrics.h"
#include "profile/hints.h"
#include "trace/record.h"

namespace tesla::runtime {

// Reads one 64-bit value through a pointer-valued event argument; used by
// ArgMatchKind::kIndirect patterns (paper §3.4.1: arguments specified
// "indirectly using the C address-of operator"). Returns false if the address
// cannot be read. The IR interpreter supplies heap access; native simulators
// supply process-memory access.
using MemoryReader = std::function<bool(int64_t address, int64_t* value)>;

// How a registered class's step function executes (see runtime/step.h and
// DESIGN.md "Stepping tiers"). Both tiers are semantically identical —
// verdicts, RuntimeStats and coverage bitmaps are bit-for-bit equal; the
// differential tests enforce it — so the knob is purely a speed/ablation
// choice.
enum class StepTier : uint8_t {
  // The reference walk: per-state edge vectors for NFA simulation,
  // Dfa::Step for the use_dfa ablation. The seed's algorithm, kept as the
  // differential oracle and as the step-kernel ablation.
  kInterpreted = 0,
  // Per-shape specialised kernels picked at Register() time: branchless
  // table lookups for DFA-trackable classes (table-in-registers for small
  // automata), mask-and-union tables for incallstack() classes.
  kSpecialised = 1,
};

// Ceiling on a context's instance pool, whether set by
// RuntimeOptions::instances_per_context or by plan hints. Captures and shm
// segments carrying a larger pool are rejected as corrupt.
inline constexpr size_t kMaxInstancesPerContext = size_t{1} << 20;

struct RuntimeOptions {
  // Lazy automaton-instance initialisation (paper §5.2.2, fig. 13): bound
  // entry/exit only touch automata that received a non-initialisation event
  // within the bound, instead of every automaton sharing the bound.
  bool lazy_init = true;

  // Fail-stop on violation (paper §4.4.2: "cause the program to fail-stop by
  // default, but this is configurable at run-time").
  bool fail_stop = true;

  // Ablation: step the determinised DFA instead of simulating NFA state sets.
  bool use_dfa = false;

  // Binding-keyed instance index: once a class's live population reaches
  // kIndexMinPopulation (runtime/instance_store.h), events whose bindings
  // cover its index key probe a per-class hash index (one bucket visit,
  // O(matching)) instead of scanning every live instance twice (O(live)).
  // Off reproduces the naive scan; the differential tests drive both modes
  // through identical schedules and require event-for-event agreement.
  bool instance_index = true;

  // Step-function execution tier (see StepTier). The default is the fast
  // one: per-class specialised kernels, compiled at Register() time.
  StepTier step_tier = StepTier::kSpecialised;

  // Instances preallocated per event-serialisation context (§4.4.1:
  // "we preallocate a fixed-size memory block per thread, giving a
  // deterministic memory footprint, and report overflows"). Clamped to
  // kMaxInstancesPerContext.
  size_t instances_per_context = 256;

  // Global-automaton storage shards. Each global automaton class is assigned
  // to one of `global_shards` contexts (class id modulo shard count), each
  // behind its own spinlock, so independent global automata no longer
  // serialise against each other (fig. 12's cost is per-shard, not
  // process-wide). Clamped to [1, 64]; 1 reproduces the paper's single
  // explicitly-synchronised store.
  size_t global_shards = 8;

  // Flight recorder / trace capture (src/trace). kFlightRecorder keeps the
  // last `trace_ring_capacity` events per context in wait-free SPSC rings so
  // violations carry a temporal backtrace; kFullCapture additionally retains
  // the complete event history (up to `trace_capture_limit` records per
  // context) for writing a replayable capture file.
  trace::TraceMode trace_mode = trace::TraceMode::kOff;
  size_t trace_ring_capacity = 4096;
  size_t trace_capture_limit = 1 << 20;
  // Events shown in a violation's temporal backtrace.
  size_t trace_backtrace_events = 16;

  // Continuous observability (src/metrics). kCounters keeps per-class
  // counters and the transition-coverage bitmap (a few ns/event, sharded
  // single-writer cells merged only at snapshot time); kFull additionally
  // times every dispatch into log-bucketed per-event-kind histograms (two
  // clock reads per event). Snapshots: Runtime::CollectMetrics().
  metrics::MetricsMode metrics_mode = metrics::MetricsMode::kOff;

  // Workload profiling (src/profile). When on, every dispatch also records
  // instance fan-out, index-probe/scan attribution, binding-key
  // distinct-value sketches and sampled dispatch latency (≤5 ns/event in
  // the committed BENCH_profile.json, which CI gates against; the cost is
  // host-dependent). metrics_mode and profile share
  // one collector and one shard per context (metrics/collector.h), each
  // recording only its own cells. Snapshots: Runtime::CollectProfile();
  // captures embed them in a profile section and `tesla-trace profile`
  // renders the report.
  bool profile = false;

  // Profile-guided plan hints (see profile/hints.h), typically loaded from a
  // prior run's `--profile-out` file. Consumed at Register() time: per-class
  // SlotPool capacity hints size each context's pool (replacing the single
  // instances_per_context knob with data), and prefix_key_pos keys the
  // class's instance index on one variable for classes whose profile shows
  // partially-bound scan fallbacks. Unknown class names are ignored (the
  // profile may cover more automata than this manifest registers).
  profile::PlanHints plan_hints;

  MemoryReader memory_reader;

  // Monotonic clock override, nanoseconds. Used by every runtime clock read:
  // timed-clause event stamping, dispatch-latency histograms and the profile
  // latency sampler. Null uses std::chrono::steady_clock. Tests inject
  // stepped or backwards clocks through this; production leaves it null.
  std::function<uint64_t()> now_ns;
};

enum class ViolationKind {
  kBadSite,          // assertion site reached but no instance could accept it
  kBadCleanup,       // bound closed with an automaton mid-way (e.g. unmet eventually)
  kStrictEvent,      // strict() automaton observed an unconsumable event
  kOverflow,         // instance pool exhausted; event dropped
  // Appended for timed assertions (TSLATRC v6); the capture reader's
  // kind-validity check tracks the last enumerator here.
  kDeadlineExpired,  // within_ms() region still live past its deadline
  kRateExceeded,     // rate() region saw more than its limit in one window
};

struct Violation {
  ViolationKind kind = ViolationKind::kBadSite;
  std::string automaton;
  std::string detail;
  // Violation forensics (trace_mode != off): the temporal backtrace of the
  // last recorded events relevant to the violating automaton, followed by
  // the automaton's DOT graph with the states live at the violation
  // highlighted. Empty when the flight recorder is off.
  std::string backtrace;
};

const char* ViolationKindName(ViolationKind kind);

// The global RuntimeStats schema. This X-macro is the single source of truth
// for the struct itself, the trace-capture summary table
// (trace::kStatsFields) and the metrics exposition — a counter added or
// removed here moves every consumer at once, so a field can never be
// silently dropped from the wire. Order is the capture's field order.
//
// The third column is replay comparability: 1 when a faithful replay of the
// captured event stream must reproduce the counter exactly, 0 for counters
// fed by ingestion-side or wall-clock machinery (the async queue front-end,
// dispatch timing) that a replay legitimately does not reproduce. Replay
// still records and displays the 0-column fields; it just never calls a
// mismatch a divergence.
//
// Notes on individual fields:
//   * accepts — automaton acceptance (§4.4.2 finalisation).
//   * ignored_events — events with no consumable transition (non-strict).
//   * arg_truncations — argument lists exceeding kMaxEventArgs.
//   * unmatched_returns — kFunctionReturn with no tracked call to match
//     (stream starts mid-call, e.g. a wrapped flight-recorder capture);
//     the per-context stack depth is clamped at zero instead of going
//     negative and poisoning incallstack() for the rest of the run.
//   * negative_latencies — dispatch timings whose clock delta came back
//     negative; the sample is clamped into bucket 0, and counted here so a
//     stepped clock cannot quietly drag the histogram p50 down.
//   * queue_* — the tesla::queue async ingestion front-end: events
//     delivered through consumer batches, events dropped at enqueue under
//     the drop policy, and OnEvents batches dispatched. With multiple drain
//     threads (QueueOptions::consumers > 1) these are sums over every
//     consumer — queue_batches in particular counts each consumer's OnEvents
//     calls, so it is a per-consumer sum, not a single thread's cadence.
//   * queue_forwards / queue_steals — multi-consumer routing: records
//     forwarded to the consumer owning a touched shard, and whole batches
//     stolen from a skewed producer's ring by an idle consumer.
//   * shard_handoffs — inline (non-queue) dispatches that landed on a shard
//     currently owned by a consumer and had to run the locked handoff
//     protocol to intrude on it.
#define TESLA_RUNTIME_STATS(X)                                                \
  X(events, "program events examined", 1)                                     \
  X(bound_entries, "temporal-bound entries (init transitions or lazy epoch bumps)", 1) \
  X(bound_exits, "temporal-bound exits (cleanup sweeps)", 1)                  \
  X(instances_created, "automaton instances created", 1)                      \
  X(instances_cloned, "automaton instances cloned", 1)                        \
  X(transitions, "automaton transitions taken", 1)                            \
  X(accepts, "automaton acceptances", 1)                                      \
  X(violations, "assertion violations reported", 1)                           \
  X(overflows, "instance-pool overflows (events dropped)", 1)                 \
  X(ignored_events, "events consumable by no instance (non-strict)", 1)       \
  X(arg_truncations, "events with truncated argument lists", 1)               \
  X(index_probes, "dispatches answered by one index-bucket probe", 1)         \
  X(index_scans, "indexed dispatches falling back to a full scan", 1)         \
  X(unmatched_returns, "function returns with no matching tracked call", 1)   \
  X(negative_latencies, "dispatch timings with a negative clock delta (clamped)", 0) \
  X(queue_events, "events delivered through the async ingestion queue", 0)    \
  X(queue_drops, "events dropped at enqueue (async queue, drop policy)", 0)   \
  X(queue_batches, "OnEvents batches dispatched by the async queue (summed over consumers)", 0) \
  X(queue_forwards, "records forwarded between queue consumers for shard-stage dispatch", 0) \
  X(queue_steals, "producer batches stolen by an idle queue consumer", 0)     \
  X(shard_handoffs, "inline dispatches that intruded on a consumer-owned shard", 0) \
  X(deadline_arms, "within_ms() deadlines armed", 1)                          \
  X(deadline_expiries, "within_ms() deadlines that expired (kDeadlineExpired)", 1) \
  X(rate_violations, "rate() windows that exceeded their limit (kRateExceeded)", 1) \
  X(clock_regressions, "event timestamps that stepped backwards mid-window (clamped)", 1)

struct RuntimeStats {
#define TESLA_STATS_MEMBER(name, desc, replay) uint64_t name = 0;
  TESLA_RUNTIME_STATS(TESLA_STATS_MEMBER)
#undef TESLA_STATS_MEMBER
};

inline constexpr size_t kRuntimeStatsFieldCount = 0
#define TESLA_STATS_COUNT(name, desc, replay) +1
    TESLA_RUNTIME_STATS(TESLA_STATS_COUNT)
#undef TESLA_STATS_COUNT
    ;

// Every field is one uint64_t: anything else would desynchronise the
// generated field tables from the struct layout.
static_assert(sizeof(RuntimeStats) == kRuntimeStatsFieldCount * sizeof(uint64_t),
              "RuntimeStats must contain exactly the TESLA_RUNTIME_STATS fields");

}  // namespace tesla::runtime

#endif  // TESLA_RUNTIME_OPTIONS_H_
