// libtesla: the TESLA run-time support library (paper §4.4).
//
// A Runtime holds compiled automaton classes registered from a Manifest and
// manages their instances. Events arrive as unified Event records (see
// runtime/event.h) through OnEvent() — built either by generated event
// translators (the IR instrumentation path) or by native instrumentation
// scope guards (see runtime/scope.h). The legacy On*() entry points are thin
// wrappers that marshal into an Event.
//
// Dispatch plan: Register() compiles all per-symbol routing into flat
// vectors indexed by (Symbol, call/return) keys — candidate lists, bound
// start/end handling, tracked-call-stack slots. Symbols are dense interner
// indices (the interner is frozen at Register() time), so the hot path
// performs zero hash lookups: every event costs one or two vector indexings
// plus the per-candidate pattern matches.
//
// Event serialisation contexts (§3.2):
//   * per-thread automata store instances in a ThreadContext, one per
//     (simulated or real) thread — serialisation is implicit;
//   * global automata store instances in runtime-owned shard contexts, each
//     behind its own spinlock — the explicit synchronisation whose cost
//     fig. 12 measures. Automaton classes map to shards by id, so
//     independent global automata no longer contend on one lock.
//
// Shard ownership (async multi-consumer dispatch, src/queue): a shard is
// either *locked* — the legacy state; every toucher takes its spinlock — or
// *owned* by one queue consumer. The owner claims its shards per batch with
// two fetch-free atomics (owner_active + an intruder count) and, when no
// inline caller is intruding, skips the spinlock entirely: the owner is the
// shard's single writer. Inline callers that land on an owned shard run the
// handoff protocol — announce themselves as intruders, take the lock, and
// wait for the owner to retreat (RuntimeStats::shard_handoffs counts these).
// Consumers restrict a dispatch pass to the shards they own via a
// DispatchScope; see OnEventsScoped(). Classes whose site dispatch must read
// the *producer's* call stack (incallstack() variants) are pinned to
// dedicated always-locked shards handled in the context stage.
//
// Instance lifecycle (§4.4.1): «init» on the bound's start event creates the
// wildcard (∗) instance; events binding new variable values clone it; the
// assertion-site event must be consumable by some matching instance or a
// violation is reported; «cleanup» on the bound's end event checks automata
// that passed their site, reports acceptance, and expunges all instances.
#ifndef TESLA_RUNTIME_RUNTIME_H_
#define TESLA_RUNTIME_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "automata/determinize.h"
#include "automata/manifest.h"
#include "metrics/collector.h"
#include "metrics/snapshot.h"
#include "profile/snapshot.h"
#include "runtime/deadline.h"
#include "runtime/event.h"
#include "runtime/handler.h"
#include "runtime/instance.h"
#include "runtime/instance_store.h"
#include "runtime/options.h"
#include "runtime/step.h"
#include "support/pool.h"
#include "support/result.h"
#include "support/spinlock.h"
#include "trace/recorder.h"

namespace tesla::runtime {

class Runtime;

// Restricts one dispatch pass to a slice of the runtime's state. The async
// queue splits each record into two stages that may run on different
// consumer threads:
//   * the *context* stage (context = true) — everything anchored to the
//     producer's ThreadContext: per-thread classes, pinned global classes
//     (incallstack() site variants need the producer's stack), event-level
//     stats/trace/timing, and the per-event bookkeeping that must happen
//     exactly once;
//   * the *shard* stage (context = false) — unpinned global classes living
//     on the shards in shard_mask, run by the consumer owning them.
// Inline dispatch uses no scope (both stages at once, all shards).
struct DispatchScope {
  bool context = true;
  uint64_t shard_mask = ~uint64_t{0};
};

// Timed-clause bookkeeping for one TimedSpec of one class in one storage
// context. within_ms: `armed` + `deadline_ns` track the live deadline (the
// first arm wins until the region fully empties); `serial` lazily cancels
// wheel entries — a popped entry whose serial mismatches is stale. rate:
// `window_start`/`window_count` implement the tumbling window, and
// `window_tripped` dedups the per-window violation report.
struct TimedCell {
  uint64_t deadline_ns = 0;
  uint64_t serial = 0;
  uint64_t window_start = 0;
  uint64_t window_count = 0;
  bool armed = false;
  bool window_tripped = false;
};

// Per-serialisation-context storage for one automaton class. Instances are
// slots into the owning context's InstanceStore; `instances` is the full
// population in creation order (the cleanup sweep and the naive scan walk
// it), while the binding-keyed index partitions the same population into
// keyed buckets (every index variable bound — CompiledClass::index_mask;
// chained through the store's next() links) and the short unkeyed tail (the
// (∗) wildcard and partial bindings — with the bucket, the only possible
// clone parents of a probe).
//
// The index is built lazily (IndexInstance): nothing is filed until the
// population reaches kIndexMinPopulation, which is exactly when the route
// decision starts probing. `indexed` says the index structures below are
// built and coherent; while it is false they are empty. The population only
// grows within one activation, so once built the index stays built until
// ActivateClass/CleanupClass replace the population wholesale.
struct ClassState {
  bool active = false;
  bool indexed = false;
  uint64_t epoch = 0;  // bound epoch at activation (lazy-init bookkeeping)
  std::vector<uint32_t> instances;
  KeyIndex index;
  std::vector<uint32_t> unkeyed;
  // Timed-clause cells, one per entry of the class automaton's `timed` list
  // (lazily sized on first observation; empty for untimed classes).
  std::vector<TimedCell> timed;
};

// Lazy-init bookkeeping for one temporal bound (paper §5.2.2's optimisation:
// "keeping a per-context record of common initialisation and cleanup events
// and doing lazy initialisation of automaton instances after they received
// their first non-initialisation event").
struct BoundEpoch {
  uint64_t epoch = 0;
  bool open = false;
};

// One event-serialisation context: all per-thread automata instances for one
// thread of execution, plus its instance pool and call-stack view. Simulated
// kernels may host many ThreadContexts on one host thread. The runtime's
// global shards are ThreadContexts too, owned by the Runtime and guarded by
// their shard's lock.
class ThreadContext {
 public:
  explicit ThreadContext(Runtime& runtime);
  ~ThreadContext();

  ThreadContext(const ThreadContext&) = delete;
  ThreadContext& operator=(const ThreadContext&) = delete;

  // incallstack() support: whether `function` is on this context's stack.
  bool InCallStack(Symbol function) const;

  // The instance pool's high-water mark and capacity (the capacity-headroom
  // signal a workload profile reports). Rewound by Runtime::ResetStats().
  size_t pool_high_water() const { return store_.high_water(); }
  size_t pool_capacity() const { return store_.capacity(); }

 private:
  friend class Runtime;

  Runtime& runtime_;
  std::vector<ClassState> classes_;
  InstanceStore store_;
  // Dense plan-slot indexed state (see Runtime's compiled dispatch plan):
  std::vector<BoundEpoch> bound_epochs_;               // by bound slot
  std::vector<std::vector<uint32_t>> active_classes_;  // live classes, by cleanup slot
  std::vector<int32_t> stack_depth_;                   // by tracked-stack slot
  // Flight-recorder log for events entering through this context (null when
  // tracing is off). Owned by the runtime's Recorder, which outlives us —
  // the history survives context teardown for capture and forensics.
  trace::ContextLog* trace_ = nullptr;
  // Observability shard for the per-class cells (metrics counters and
  // workload profile) and histograms recorded through this context (null
  // when metrics_mode is off and profiling is off). Owned by the runtime's
  // Collector; single-writer — per-thread contexts by contract, global shard
  // contexts by their shard lock.
  metrics::Shard* obs_ = nullptr;
  // Timed-clause clock domain for this context: the deadline wheel (lazily
  // allocated on first arm — untimed workloads never pay its footprint), the
  // monotonically clamped event clock (a backwards timestamp is clamped and
  // counted in RuntimeStats::clock_regressions, never underflows a window),
  // and a scratch buffer for expiry pops. Single-writer like everything
  // else here: per-thread contexts by contract, shard contexts by lock.
  std::unique_ptr<DeadlineWheel> wheel_;
  uint64_t timed_now_ = 0;
  std::vector<DeadlineWheel::Entry> fired_;
  // This context's RuntimeStats cells (Runtime::Bump), single-writer like
  // the rest; cache-line aligned so no neighbouring object shares them.
  alignas(64) RuntimeStats stats_;
};

class Runtime {
 public:
  explicit Runtime(RuntimeOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Compiles and registers every automaton in `manifest`, then (re)compiles
  // the dispatch plan. Fails on automata with more than kMaxVariables
  // variables or malformed bounds; a failed call registers none of
  // `manifest`'s automata.
  //
  // Contract: no Register() concurrent with dispatch. Register() rebuilds
  // the class table, the plan vectors and the global shard contexts, so no
  // thread may be inside OnEvent/OnEvents/OnEventsScoped (nor may an event
  // queue or shm sidecar be draining into this runtime) while it runs.
  // Registering again after ThreadContexts exist is legal: Register() sizes
  // every live context to the new plan (class states, bound epochs, cleanup
  // lists, tracked-stack depths, and an observability shard with room for
  // the new classes), so dispatch itself never checks plan capacity.
  Status Register(const automata::Manifest& manifest);

  // Looks up a registered automaton by name; returns -1 if absent.
  int FindAutomaton(const std::string& name) const;

  void AddHandler(EventHandler* handler) { handlers_.push_back(handler); }

  // --- the unified event entry point ---

  void OnEvent(ThreadContext& ctx, const Event& event);

  // Async ingestion interposition (src/queue). When a hook is installed,
  // OnEvent offers every event to it *before* touching the context or any
  // dispatch state; a true return means the hook took ownership (queued it
  // for dispatch elsewhere) and OnEvent returns immediately. A false return
  // falls back to inline dispatch. A plain function pointer plus state —
  // not std::function — so the uninstalled fast path is one relaxed-ish
  // atomic load. Install with SetIngestHook(hook, state); uninstall with
  // SetIngestHook(nullptr, nullptr) — the queue drains in-flight events
  // itself before uninstalling.
  using IngestHook = bool (*)(void* state, ThreadContext& ctx, const Event& event);
  void SetIngestHook(IngestHook hook, void* state) {
    // State first, hook second: a reader that observes the hook (acquire)
    // is guaranteed to observe its matching state.
    ingest_state_.store(state, std::memory_order_release);
    ingest_hook_.store(hook, std::memory_order_release);
  }

  // Queue-side accounting (folded into RuntimeStats so the existing
  // exposition formats surface it): a consumer batch of `events` events
  // dispatched, and `dropped` events rejected at enqueue.
  void AccountQueueBatch(uint64_t events) {
    BumpShared(stats_.queue_events, events);
    BumpShared(stats_.queue_batches);
  }
  void AccountQueueDrops(uint64_t dropped) { BumpShared(stats_.queue_drops, dropped); }
  void AccountQueueForwards(uint64_t forwards) { BumpShared(stats_.queue_forwards, forwards); }
  void AccountQueueSteals(uint64_t steals) { BumpShared(stats_.queue_steals, steals); }

  // Batch ingestion: semantically identical to dispatching each element
  // through OnEvent — events are counted one at a time, into the same
  // per-context cells, so a violation handler reading stats() mid-batch
  // sees exactly what OnEvent would show — but amortises the per-call
  // overhead: when global automata are registered every shard is claimed
  // once for the whole batch instead of once per event (nested per-event
  // acquisitions are elided via the batch-owner check). The batch entry
  // points do not consult the ingest hook or stamp events (an unstamped
  // event reads the clock at dispatch):
  // they are the drain side's entry — the replay path, the event queue's
  // consumers and the shm sidecar feed them.
  void OnEvents(ThreadContext& ctx, std::span<const Event> events);

  // Scope-restricted batch dispatch for the async queue's two-stage routing
  // (see DispatchScope). The caller promises that for every event in the
  // batch, the work outside `scope` is (or will be) dispatched elsewhere —
  // the queue forwards records to the consumers owning the other shards.
  // Shards inside the scope's mask that this runtime registered as owned by
  // a consumer are claimed with the ownership fast path; everything else is
  // locked as an intruder.
  void OnEventsScoped(ThreadContext& ctx, std::span<const Event> events,
                      const DispatchScope& scope);

  // The unpinned global shards `event` can touch, as a bit mask — the
  // queue's routing key: a consumer forwards the record to the owner of
  // every touched shard outside its own set. Conservative (a superset of
  // the shards the dispatch will really lock) and cheap: one plan lookup.
  uint64_t ShardStageMask(const Event& event) const;

  // Shards hosting only unpinned global classes — the shards eligible for
  // consumer ownership. Pinned classes (incallstack() site variants need
  // the producer context's stack) live outside this mask and are always
  // dispatched in the context stage under their locks.
  uint64_t unpinned_shard_mask() const { return unpinned_shard_mask_; }

  // Marks each unpinned shard s as owned by consumer (s % consumers); the
  // owner id is bookkeeping for the handoff counter, the protocol itself is
  // per-batch (owner_active). Called by EventQueue::Start()/Stop(); a
  // runtime has at most one owning queue at a time.
  void AssignShardOwners(uint32_t consumers);
  void ReleaseShardOwners();

  // --- legacy entry points (thin wrappers over OnEvent) ---

  void OnFunctionCall(ThreadContext& ctx, Symbol function, std::span<const int64_t> args) {
    OnEvent(ctx, Event::Call(function, args));
  }
  void OnFunctionReturn(ThreadContext& ctx, Symbol function, std::span<const int64_t> args,
                        int64_t return_value) {
    OnEvent(ctx, Event::Return(function, args, return_value));
  }
  // A store to `object`'s field: `old_value` is the field's prior contents
  // (the translator receives "a pointer to the field (and thus its current
  // value) and the new value", §4.2), which lets compound-assignment patterns
  // (+=, ++) match.
  void OnFieldStore(ThreadContext& ctx, Symbol field, int64_t object, int64_t old_value,
                    int64_t new_value) {
    OnEvent(ctx, Event::FieldStore(field, object, old_value, new_value));
  }
  // `automaton_id` is FindAutomaton()'s result; `site_bindings` carries the
  // current values of the assertion's in-scope variables.
  void OnAssertionSite(ThreadContext& ctx, uint32_t automaton_id,
                       std::span<const Binding> site_bindings) {
    OnEvent(ctx, Event::Site(automaton_id, site_bindings));
  }

  // A snapshot: the runtime-level cells plus every live context's (shard
  // contexts included) plus those folded in from destroyed contexts. Safe
  // from any thread, mid-dispatch too (a violation handler sees everything
  // up to its violation); cells still being bumped read as of the call.
  RuntimeStats stats() const;
  // Zeroes every stats cell — runtime-level, per-context and retired —
  // *and* every derived tally a stats consumer can observe: the pool
  // high-water marks and the collector's cells, histograms and coverage
  // bitmap. Call at a quiescent point for exact deltas.
  void ResetStats();
  const RuntimeOptions& options() const { return options_; }

  // The observability collector (null when metrics_mode is off and
  // profiling is off). The two Collect* calls below are its views.
  metrics::Collector* collector() { return collector_.get(); }
  const metrics::Collector* collector() const { return collector_.get(); }

  // The metrics view: merges every shard into one snapshot and joins it
  // with the static automaton structure (class names, statically-valid DFA
  // transitions and their coverage bits). Per-class counters and coverage
  // only under metrics_mode != kOff. Cheap enough to call from a scrape
  // handler.
  metrics::Snapshot CollectMetrics() const;

  // The profile view (classes only when RuntimeOptions::profile is on):
  // per-class fan-out, probe/scan attribution, binding-key sketches and
  // pool marks, in plan (class-id) order. Pool marks cover every live
  // context plus the high-water folded in when a context was destroyed;
  // call at a quiescent point for exact figures.
  profile::Snapshot CollectProfile() const;

  // Lets a front-end (the async queue) append its own sections — per-
  // producer and per-consumer tallies — to every CollectMetrics() snapshot.
  // One augmenter at a time; pass nullptr to clear. The callback must be
  // safe to invoke from any thread calling CollectMetrics().
  using MetricsAugmenter = std::function<void(metrics::Snapshot&)>;
  void SetMetricsAugmenter(MetricsAugmenter augmenter);

  // Largest instance-pool high-water mark across the global shard contexts;
  // rewound (to each pool's current live population) by ResetStats().
  uint64_t shard_pool_high_water() const;

  // The registered automata re-serialised in the .tesla text format, in
  // registration order — so assertion-site targets (automaton ids) resolve
  // by position on a fresh Register() of the deserialised result. Cold path:
  // capture writers embed this so their files are self-describing
  // (trace/format.h's v4 manifest section, ipc's shm header).
  std::string ManifestText() const;

  size_t class_count() const { return classes_.size(); }
  const automata::Automaton& automaton(uint32_t id) const { return classes_[id].automaton; }
  const automata::Dfa& dfa(uint32_t id) const { return classes_[id].dfa; }

  // Number of global-context shards in use (≤ RuntimeOptions::global_shards).
  uint32_t shard_count() const { return shard_count_; }
  // Live ThreadContexts: the callers' plus one per shard that hosts a global
  // class (a shard no class maps to has no context).
  size_t context_count() const;

  // The flight recorder (null when RuntimeOptions::trace_mode is off).
  trace::Recorder* recorder() { return recorder_.get(); }
  const trace::Recorder* recorder() const { return recorder_.get(); }

  // The violation sequence observed while tracing was active: (kind,
  // automaton name) in report order. Captures embed it so replays can check
  // they reproduce not just the stats but the same failures in the same
  // order. Empty when trace_mode is off.
  std::vector<std::pair<ViolationKind, std::string>> violation_log() const {
    LockGuard<Spinlock> guard(violation_log_lock_);
    return violation_log_;
  }

 private:
  friend class ThreadContext;

  struct CompiledClass {
    uint32_t id = 0;
    automata::Automaton automaton;
    automata::Dfa dfa;
    bool is_global = false;
    // Global classes with incallstack() site variants must dispatch where
    // the producer's call stack is visible: they are *pinned* — placed on
    // shards excluded from consumer ownership and handled in the context
    // stage of a scoped dispatch.
    bool pinned = false;
    uint32_t shard = 0;      // global classes: owning shard index
    uint64_t start_key = 0;  // (function, kind) key of the «init» event
    uint64_t end_key = 0;    // (function, kind) key of the «cleanup» event
    int32_t bound_slot = -1;    // dense slot shared by classes with this start key
    int32_t cleanup_slot = -1;  // dense slot shared by classes with this end key
    std::vector<uint16_t> site_variants;  // incallstack() symbols
    // Computed in CompilePlan(): the class's site event is exactly the
    // automaton's site symbol (no incallstack() variants to evaluate), so an
    // unbound site event on an already-active per-thread class can take the
    // flattened steady-state path in ProcessSiteEvent.
    bool site_fast = false;
    // The automaton carries within_ms()/rate() clauses: dispatch must run
    // the timed-observation hooks (and skip the flattened site fast path,
    // which bypasses them).
    bool timed = false;
    automata::StateSet initial_states = 0;
    uint32_t initial_dfa_state = 0;
    // Key-variable analysis (computed once per class in CompilePlan()): the
    // variables clone events can bind, ascending — what the profile tracks
    // and what the instance index keys on.
    uint8_t key_count = 0;
    std::array<uint8_t, kMaxVariables> key_vars{};
    // The instance index's key (CompilePlan): the key variable a valid
    // prefix_key_pos plan hint names, else all of key_vars — as a mask, and
    // as the key_vars range index_vars() lists for tuple extraction.
    // index_mask 0: the class is never indexed.
    uint32_t index_mask = 0;
    uint8_t index_first = 0;
    uint8_t index_count = 0;
    const uint8_t* index_vars() const { return key_vars.data() + index_first; }
    // Every function/field symbol the class's patterns name (including the
    // bound's init/cleanup functions): the forensics filter for "events
    // relevant to this automaton".
    std::vector<uint32_t> trace_symbols;
    // Transition-coverage layout (metrics on only). The class owns a dense
    // bit grid of cov_states × cov_symbols slots starting at cov_first in
    // the collector's bitmap — bit = cov_first + dfa_state*cov_symbols +
    // symbol. dfa_flat is the DFA transition table flattened to the same
    // indexing (kNoTarget for invalid), so NFA-mode stepping can advance the
    // mirrored DFA state with a single load.
    uint32_t cov_first = 0;
    uint32_t cov_symbols = 0;
    uint32_t cov_states = 0;
    std::vector<uint32_t> dfa_flat;
    // The compiled step function (see runtime/step.h): lowered from the
    // frozen automaton at Register() time, tier per RuntimeOptions::step_tier.
    StepProgram step;
  };

  struct Candidate {
    uint32_t class_id = 0;
    uint16_t symbol = 0;
  };

  // Compiled routing for one (symbol, call/return) key — or, in field_plan_,
  // for one field symbol (only the candidate range is used there). All
  // ranges index the flat pools below; every hot-path decision is a couple
  // of loads from this one cache line.
  struct KeyPlan {
    uint32_t cand_first = 0;  // candidate_pool_ range
    uint32_t cand_count = 0;
    int32_t bound_slot = -1;    // ≥0: this key opens a temporal bound
    int32_t cleanup_slot = -1;  // ≥0: this key closes a temporal bound
    int32_t stack_slot = -1;    // ≥0: incallstack()-tracked function
    uint8_t start_contexts = 0;  // bit0: per-thread classes start here; bit1: global
    uint32_t start_first = 0;  // class_pool_ range: classes to activate (naive mode)
    uint32_t start_count = 0;
    uint32_t end_first = 0;  // class_pool_ range: classes to clean up (naive mode)
    uint32_t end_count = 0;
    uint32_t closes_first = 0;  // closed_bounds_pool_ range: bound slots closed here
    uint32_t closes_count = 0;
    // Union of the *unpinned* global shards any event with this key can
    // touch: candidate classes' shards plus the bound/cleanup slot masks it
    // opens or closes. ShardStageMask()'s answer — the queue's routing key.
    uint64_t touched_shards = 0;
  };

  // One global-automaton storage shard: a runtime-owned context behind its
  // own lock (heap-allocated so the vector never needs to move a Spinlock).
  //
  // Ownership protocol (see the header comment). The spinlock serialises
  // *intruders* — inline/sync callers and non-owning scoped passes. The
  // owning consumer claims the shard per batch without the lock:
  //
  //   owner, per batch:   owner_active.store(true, seq_cst);
  //                       if (intruders.load(seq_cst) == 0) → lock-free claim
  //                       else retreat (owner_active = false) and take the
  //                       lock like everyone else;
  //                       release: owner_active.store(false, release).
  //   intruder, always:   intruders.fetch_add(1, seq_cst);
  //                       lock.lock();
  //                       while (owner_active.load(seq_cst)) spin;  // owner
  //                       ... critical section under the lock ...   // retreats
  //                       lock.unlock();
  //                       intruders.fetch_sub(1, release);
  //
  // The seq_cst store-then-load on each side (owner_active/intruders,
  // Dekker-style) guarantees at least one side sees the other: either the
  // owner sees the intruder and falls back to the lock, or the intruder
  // sees owner_active and waits for the owner's release store (the
  // intruder's load sits after the owner's store in the seq_cst order, so
  // it cannot read the stale false). Every hand-over then gives the usual
  // release/acquire happens-before edge — the owner's release of
  // owner_active, or the intruder's unlock + release-decrement that the
  // owner's next seq_cst intruders load acquires — so the shard's plain
  // state stays single-writer without fences TSan cannot model.
  // Deadlock-free: the owner retreats *before* blocking on the lock, and
  // everyone acquires multi-shard sets in ascending index order.
  struct GlobalShard {
    Spinlock lock;
    std::atomic<uint32_t> intruders{0};
    std::atomic<bool> owner_active{false};
    // Who owns this shard (-1: locked/legacy). Bookkeeping only — used to
    // count handoffs and by tests; the claim protocol never reads it.
    std::atomic<int32_t> owner_id{-1};
    // Null when no global class maps to this shard: it is still claimed
    // with the rest of a batch's mask, but never stores anything.
    std::unique_ptr<ThreadContext> context;
  };

  // An event's variable bindings: a fixed-size buffer, one slot per variable.
  struct BindingSet {
    Binding entries[kMaxVariables];
    size_t count = 0;

    // Returns false if `var` is already present with a different value.
    bool Add(uint16_t var, int64_t value) {
      for (size_t i = 0; i < count; i++) {
        if (entries[i].var == var) {
          return entries[i].value == value;
        }
      }
      entries[count++] = Binding{var, value};
      return true;
    }
  };

  // Routing keys: function symbol + call/return discriminator.
  static uint64_t CallKey(Symbol function) { return (uint64_t{function} << 1) | 1; }
  static uint64_t ReturnKey(Symbol function) { return uint64_t{function} << 1; }

  // Recompiles the flat dispatch plan from classes_ (idempotent; run after
  // every Register() so repeated registration stays legal).
  void CompilePlan();
  // Grows `ctx`'s slot-indexed vectors (and, when too small, its
  // observability shard) to the current plan's extents. Register() runs it
  // over every live context, so a context created before a later Register()
  // is sized before any event can reach it.
  void SizeContext(ThreadContext& ctx);

  ThreadContext& ContextFor(ThreadContext& ctx, uint32_t class_id) {
    const CompiledClass& cls = classes_[class_id];
    return cls.is_global ? *shards_[cls.shard]->context : ctx;
  }
  ClassState& StateFor(ThreadContext& ctx, uint32_t class_id) {
    return ContextFor(ctx, class_id).classes_[class_id];
  }
  int32_t StackSlotFor(Symbol function) const {
    const uint64_t key = CallKey(function);
    return key < function_plan_.size() ? function_plan_[key].stack_slot : -1;
  }

  // The one dispatch loop behind OnEvent, OnEvents and OnEventsScoped:
  // publishes `scope` (null: unscoped), derives the per-call facts once,
  // and — for anything but a single unscoped event — claims the reachable
  // shards for the whole call (see ShardClaim).
  void Dispatch(ThreadContext& ctx, std::span<const Event> events,
                const DispatchScope* scope);
  // One event's work under the per-call facts Dispatch derived: whether
  // this pass is the context stage, whether it records to the flight
  // recorder, and whether kFull timing brackets it. Ticks timed clauses,
  // counts and records the event, then routes by kind.
  void DispatchEvent(ThreadContext& ctx, const Event& event, bool context_stage, bool record,
                     bool timed);

  void ProcessFunctionEvent(ThreadContext& ctx, const Event& event);
  void ProcessFieldEvent(ThreadContext& ctx, const Event& event);
  void ProcessSiteEvent(ThreadContext& ctx, const Event& event);

  // True when the calling thread already holds (locked or owner-claimed)
  // `shard` through a ShardClaim; per-event acquisitions must then be
  // elided (the spinlock is not recursive).
  bool ShardHeld(uint32_t shard) const {
    return engaged_runtime_ == this && ((engaged_shards_ >> shard) & 1) != 0;
  }

  // The active scope's view of the plan (thread-local; null scope — or a
  // scope belonging to a different Runtime — means full inline semantics).
  const DispatchScope* ActiveScope() const {
    return scope_runtime_ == this ? active_scope_ : nullptr;
  }
  bool ScopeContext() const {
    const DispatchScope* scope = ActiveScope();
    return scope == nullptr || scope->context;
  }
  bool ClassInScope(const CompiledClass& cls) const {
    const DispatchScope* scope = ActiveScope();
    if (scope == nullptr) {
      return true;
    }
    if (!cls.is_global || cls.pinned) {
      return scope->context;
    }
    return ((scope->shard_mask >> cls.shard) & 1) != 0;
  }
  // Shards the active scope may touch: pinned shards ride with the context
  // stage, unpinned shards follow the scope's mask.
  uint64_t AllowedShardMask() const {
    const DispatchScope* scope = ActiveScope();
    if (scope == nullptr) {
      return ~uint64_t{0};
    }
    return (scope->context ? pinned_shard_mask_ : 0) |
           (scope->shard_mask & unpinned_shard_mask_);
  }

  // The intruder side of the shard-ownership protocol (see GlobalShard).
  // Const (with the handoff counter bumped through an atomic_ref) so const
  // accessors like shard_pool_high_water() can intrude too.
  void LockShardAsIntruder(GlobalShard& shard) const;
  void UnlockShardAsIntruder(GlobalShard& shard) const;
  class ShardGuard;
  class ShardClaim;
  class ScopeFrame;

  // Runs the registered metrics augmenter (if any) over `snapshot`.
  void AugmentSnapshot(metrics::Snapshot& snapshot) const;

  // Live-context registry (stats, profile pool marks and stats reset):
  // every ThreadContext registers for its lifetime; unregistration folds its
  // stats cells into retired_stats_ and its pool marks into the retired
  // maxima, so a destroyed context's counts and peak still show.
  void RegisterContext(ThreadContext* ctx);
  void UnregisterContext(ThreadContext* ctx);
  // Per-context SlotPool capacity: the plan-hint total when hints are
  // loaded, else the instances_per_context knob.
  size_t ContextPoolCapacity() const {
    return pool_capacity_hint_ != 0 ? pool_capacity_hint_ : options_.instances_per_context;
  }

  void HandleBoundStart(ThreadContext& ctx, const KeyPlan& plan);
  void HandleBoundEnd(ThreadContext& ctx, const KeyPlan& plan);
  // Lock-aware wrappers: take the class's shard lock for global classes.
  void ActivateClassSharded(ThreadContext& ctx, uint32_t class_id);
  void CleanupClassSharded(ThreadContext& ctx, uint32_t class_id);
  void ActivateClass(ThreadContext& ctx, uint32_t class_id);
  void CleanupClass(ThreadContext& ctx, uint32_t class_id);
  // Returns true if the class is (or, lazily, becomes) active. For global
  // classes the caller must hold the class's shard lock. The hoisted form
  // takes the class/storage/state the caller already resolved — the
  // per-event site path computes them exactly once.
  bool EnsureActive(ThreadContext& ctx, uint32_t class_id);
  bool EnsureActive(ThreadContext& ctx, const CompiledClass& cls, ThreadContext& storage,
                    ClassState& state);

  void HandleEvent(ThreadContext& ctx, const Candidate& candidate, const BindingSet& bindings);
  void HandleEventLocked(ThreadContext& ctx, const Candidate& candidate,
                         const BindingSet& bindings);
  void HandleSiteEvent(ThreadContext& ctx, uint32_t class_id, const BindingSet& bindings);
  // Shared instance-matching core (paper §4.4.1's two passes): steps exact
  // matches or, if there are none, clones consistent instances on any of
  // `symbols`; returns true if any instance stepped. Probes the index when
  // the population has reached kIndexMinPopulation and the event binds
  // every index variable, otherwise runs the (semantics-identical) scan.
  bool DispatchToInstances(ThreadContext& ctx, uint32_t class_id, const BindingSet& bindings,
                           std::span<const uint16_t> symbols);
  bool DispatchToInstances(ThreadContext& storage, const CompiledClass& cls, ClassState& state,
                           const BindingSet& bindings, std::span<const uint16_t> symbols);
  bool DispatchScan(ThreadContext& storage, const CompiledClass& cls, ClassState& state,
                    const BindingSet& bindings, std::span<const uint16_t> symbols);
  // The probe: pass 1 over the event's index bucket, pass 2 over the
  // unkeyed tail — O(bucket + tail) instead of O(live) — unless a bucket
  // member is a parent too (the event binds beyond the index).
  bool DispatchProbe(ThreadContext& storage, const CompiledClass& cls, ClassState& state,
                     const BindingSet& bindings, std::span<const uint16_t> symbols);
  // Pass 2, shared by the scan and the probe: walks `parents` (the whole
  // population or the unkeyed tail, both in creation order) and clones each
  // one that is consistent with `bindings`, whose clone is no duplicate of
  // one this event already made and consumes the event. Returns true if a
  // clone was stored.
  bool ClonePass(ThreadContext& storage, const CompiledClass& cls, ClassState& state,
                 const BindingSet& bindings, std::span<const uint16_t> symbols,
                 const std::vector<uint32_t>& parents);

  // Called after a freshly created slot was appended to `instances`. With
  // the index built, files the slot under the class's index partition
  // (keyed bucket or unkeyed tail). Before that, files nothing until the
  // population reaches kIndexMinPopulation, then builds the whole index from
  // `instances` (FileSlot in creation order — the same chains eager filing
  // would have made).
  void IndexInstance(ThreadContext& storage, const CompiledClass& cls, ClassState& state,
                     uint32_t slot);
  void FileSlot(ThreadContext& storage, const CompiledClass& cls, ClassState& state,
                uint32_t slot);
  // Whether stored `slot` carries the index tuple `key` (values of
  // cls.index_vars(), in order) — the bucket-identity test of KeyIndex.
  static bool KeyEquals(const InstanceStore& store, const CompiledClass& cls, const int64_t* key,
                        uint32_t slot);
  // Empties the index structures of a built index (activation and cleanup
  // replace the population wholesale); a no-op while the index is unbuilt.
  static void DropIndex(ClassState& state);

  // Steps a stored instance (slot form) or a stack-built clone candidate.
  // `storage` is the context owning (or about to own) the instance — the
  // shard the transition is attributed to.
  bool StepSlot(const CompiledClass& cls, ThreadContext& storage, uint32_t slot,
                std::span<const uint16_t> symbols);
  bool StepInstance(const CompiledClass& cls, ThreadContext& storage, Instance& instance,
                    std::span<const uint16_t> symbols);
  // One indirect call into the class's compiled step program (runtime/step.h).
  bool StepCore(const CompiledClass& cls, automata::StateSet& states, uint32_t& dfa_state,
                std::span<const uint16_t> symbols, automata::StateSet* from_out,
                uint16_t* symbol_out) {
    return cls.step.Run(counters_, states, dfa_state, symbols, from_out, symbol_out);
  }

  bool MatchFunctionPattern(const automata::EventPattern& pattern,
                            std::span<const int64_t> args, bool have_return,
                            int64_t return_value, BindingSet* bindings) const;
  bool MatchArg(const automata::ArgMatch& match, int64_t value, BindingSet* bindings) const;

  // `highlight`: the automaton states live at the violation (0 when the call
  // site cannot cheaply know them) — rendered into the forensic DOT graph.
  void ReportViolation(uint32_t class_id, ViolationKind kind, const std::string& detail,
                       automata::StateSet highlight = 0);
  // Harvests the flight recorder and renders the temporal backtrace plus the
  // highlighted DOT graph for one violating class.
  std::string BuildForensics(uint32_t class_id, automata::StateSet highlight) const;

  // RuntimeStats cells follow the single-writer rule of the observability
  // shards. Event-level counters go to the entry context, in the context
  // stage only; class-level counters go to the class's storage context
  // (ContextFor) — in both cases a context the dispatching thread already
  // serialises (per-thread by contract, a shard by its lock or by consumer
  // ownership). So a bump is a relaxed load and store, never a locked RMW;
  // the atomics only let stats() read concurrently.
  static void Bump(uint64_t& counter, uint64_t amount = 1) {
    std::atomic_ref<uint64_t> cell(counter);
    cell.store(cell.load(std::memory_order_relaxed) + amount, std::memory_order_relaxed);
  }
  // Counters with no owning context (violations, shard handoffs, queue
  // accounting) live in the runtime-level block and are shared: a relaxed
  // fetch_add, paid once per violation, handoff or consumer batch.
  static void BumpShared(uint64_t& counter, uint64_t amount = 1) {
    std::atomic_ref<uint64_t>(counter).fetch_add(amount, std::memory_order_relaxed);
  }

  // Records one runtime cell (metrics view) for `class_id` through
  // `storage`'s shard. One null check when observability is off. Every
  // shard has room for every registered class: Register() sizes them
  // (SizeContext), so no dispatch-side cell needs a spill path.
  void BumpClass(ThreadContext& storage, uint32_t class_id, metrics::Cell cell,
                 uint64_t amount = 1) {
    metrics::Shard* shard = storage.obs_;
    if (shard != nullptr && shard->counting()) {
      shard->Add(class_id, cell, amount);
    }
  }

  // `storage`'s shard if profiling is on, else null.
  metrics::Shard* ProfileShard(ThreadContext& storage) {
    metrics::Shard* shard = storage.obs_;
    return shard != nullptr && shard->profiling() ? shard : nullptr;
  }

  // Records one dispatch decision through `shard` (DispatchToInstances and
  // the flattened site path, only when the context has a shard). `route`
  // names the route taken: Cell::index_probes for the probe,
  // scan_fallbacks for a scan below kIndexMinPopulation, partial_bound for a
  // scan of an event missing an index variable, dispatches for a plain scan
  // with nothing to attribute. The route is stored once, inline, as probe or
  // scan fallback — both views read it; the profile's shape of the dispatch
  // (ProfileDispatch) is out of line and runs only with profiling on.
  void RecordDispatch(metrics::Shard& shard, const CompiledClass& cls, const ClassState& state,
                      const BindingSet& bindings, metrics::Cell route) {
    std::atomic<uint64_t>* base = shard.ClassCells(cls.id);
    if (route != metrics::Cell::dispatches) {
      metrics::Shard::AddAt(base, StoredRoute(route));
    }
    if (shard.profiling()) [[unlikely]] {
      ProfileDispatch(base, cls, state, bindings, route);
    }
  }
  static metrics::Cell StoredRoute(metrics::Cell route) {
    return route == metrics::Cell::partial_bound ? metrics::Cell::scan_fallbacks : route;
  }
  // With profiling on: fan-out, the partial-binding analysis per tracked
  // key variable and the distinct-key sketches, into the class's block.
  void ProfileDispatch(std::atomic<uint64_t>* base, const CompiledClass& cls,
                       const ClassState& state, const BindingSet& bindings,
                       metrics::Cell route);

  // --- timed clauses (within_ms / rate) ---

  // The monotonic clock behind every runtime clock read — event stamping,
  // the dispatch-latency bracket and the profile latency sampler — so
  // RuntimeOptions::now_ns can substitute a deterministic source in tests.
  uint64_t NowNs() const;
  // Clamps `storage`'s clock forward to `ts_ns` (counting regressions) and
  // fires any deadlines that are strictly past. Runs *before* the event is
  // dispatched into the context: an event arriving at ts == deadline can
  // still satisfy its region, anything later fires first.
  void TimedTick(ThreadContext& storage, uint64_t ts_ns);
  void FireExpired(ThreadContext& storage, uint64_t now_ns);
  // Post-dispatch bookkeeping for one timed class: recompute the union of
  // live instance states, arm/disarm within_ms deadlines on armed_mask
  // occupancy edges, and advance rate windows (`stepped` gates counting to
  // events the class actually consumed).
  void TimedObserve(ThreadContext& storage, const CompiledClass& cls, ClassState& state,
                    std::span<const uint16_t> symbols, bool stepped);
  // Cleanup-time teardown: cancels armed deadlines (serial bump) and resets
  // rate windows — the bound closed, so its clauses are settled.
  void ResetTimedCells(ClassState& state);

  RuntimeOptions options_;
  // The runtime-level cells (BumpShared); mutable for const intruders.
  mutable RuntimeStats stats_;
  // Async ingestion interposition (SetIngestHook): read first in OnEvent.
  std::atomic<IngestHook> ingest_hook_{nullptr};
  std::atomic<void*> ingest_state_{nullptr};
  std::vector<CompiledClass> classes_;
  std::vector<EventHandler*> handlers_;
  std::unordered_map<std::string, uint32_t> by_name_;

  // --- the compiled dispatch plan (rebuilt by CompilePlan()) ---
  std::vector<KeyPlan> function_plan_;  // by (symbol << 1) | is_call
  std::vector<KeyPlan> field_plan_;     // by field symbol (candidates only)
  std::vector<Candidate> candidate_pool_;
  std::vector<uint32_t> class_pool_;         // naive-mode start/end class lists
  std::vector<int32_t> closed_bounds_pool_;  // bound slots closed per end key
  // Shard masks, by slot: which shards host global classes sharing the slot.
  std::vector<uint64_t> bound_slot_shards_;
  std::vector<uint64_t> cleanup_slot_shards_;
  uint32_t bound_slot_count_ = 0;
  uint32_t cleanup_slot_count_ = 0;
  uint32_t stack_slot_count_ = 0;
  bool any_global_ = false;
  // Any registered class carries timed clauses (CompilePlan). False keeps
  // the timed machinery entirely off the hot path: no stamping, no clock
  // reads, no wheel probes.
  bool any_timed_ = false;
  // Shard partition (CompilePlan): pinned classes segregate onto their own
  // shards so a pinned and an unpinned class never share a shard context —
  // the context and shard stages of a scoped dispatch would otherwise race
  // on shared bound-epoch slots.
  uint64_t pinned_shard_mask_ = 0;
  uint64_t unpinned_shard_mask_ = 0;

  // Live-context registry (see RegisterContext). Declared before shards_ so
  // the shard contexts' destructors can still unregister while the runtime
  // itself is being destroyed (members destruct in reverse order).
  mutable Spinlock contexts_lock_;
  std::vector<ThreadContext*> live_contexts_;
  uint64_t retired_pool_high_water_ = 0;  // guarded by contexts_lock_
  uint64_t retired_pool_capacity_ = 0;
  mutable RuntimeStats retired_stats_;  // destroyed contexts' cells, summed

  // Global-context storage, sharded (shared across threads, each shard
  // spinlock-serialised).
  uint32_t shard_count_ = 1;
  std::vector<std::unique_ptr<GlobalShard>> shards_;

  // The observability collector (metrics_mode != off or profile); owns
  // every context's shard and the transition-coverage bitmap.
  std::unique_ptr<metrics::Collector> collector_;
  // collector_ while counters and coverage record (metrics_mode != kOff),
  // else null: the sink the step kernels stamp coverage into.
  metrics::Collector* counters_ = nullptr;
  // Cached collector_->histograms_enabled(): the per-event timing decision
  // must not cost a pointer chase when metrics are off.
  bool time_dispatch_ = false;
  // Per-context SlotPool capacity resolved from plan hints in CompilePlan()
  // (0: no hints loaded; use options_.instances_per_context).
  size_t pool_capacity_hint_ = 0;

  // The flight recorder (trace_mode != off) and the violation sequence it
  // captures alongside the event stream.
  std::unique_ptr<trace::Recorder> recorder_;
  mutable Spinlock violation_log_lock_;
  std::vector<std::pair<ViolationKind, std::string>> violation_log_;

  // Snapshot augmentation (SetMetricsAugmenter): the async queue's hook for
  // folding its per-producer/per-consumer tallies into CollectMetrics().
  mutable Spinlock augmenter_lock_;
  MetricsAugmenter metrics_augmenter_;

  // The runtime whose ShardClaim currently holds shards on this thread,
  // and which shards (a bit per index). Thread-local so concurrent batches
  // on other threads still serialise on the shards themselves.
  static thread_local const Runtime* engaged_runtime_;
  static thread_local uint64_t engaged_shards_;
  // The DispatchScope restricting dispatch on this thread (null: full) and
  // the runtime it belongs to.
  static thread_local const Runtime* scope_runtime_;
  static thread_local const DispatchScope* active_scope_;
  // The timestamp of the event currently being dispatched on this thread
  // (set by DispatchEvent when any_timed_; the timed hooks read it instead
  // of re-deriving the clock per class).
  static thread_local uint64_t current_event_ts_;
};

}  // namespace tesla::runtime

#endif  // TESLA_RUNTIME_RUNTIME_H_
