#include "runtime/runtime.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "automata/dot.h"
#include "automata/stepc.h"
#include "runtime/coverage.h"
#include "support/log.h"
#include "support/smallvec.h"
#include "trace/forensics.h"

namespace tesla::runtime {

// A shard guard that engages only when asked: per-event acquisitions are
// skipped when a batch entry point already holds the shard for the whole
// batch (the spinlock is not recursive). Engaged acquisition always runs
// the intruder side of the ownership protocol — correct whether the shard
// is consumer-owned or plain locked.
class Runtime::ShardGuard {
 public:
  ShardGuard(const Runtime& rt, uint32_t shard, bool engage)
      : rt_(rt), shard_(engage ? rt.shards_[shard].get() : nullptr) {
    if (shard_ != nullptr) {
      rt_.LockShardAsIntruder(*shard_);
    }
  }
  ~ShardGuard() {
    if (shard_ != nullptr) {
      rt_.UnlockShardAsIntruder(*shard_);
    }
  }

  ShardGuard(const ShardGuard&) = delete;
  ShardGuard& operator=(const ShardGuard&) = delete;

 private:
  const Runtime& rt_;
  GlobalShard* shard_;
};

// Claims the shards in `mask` for a whole batch, in ascending index order
// (concurrent batches on other threads claim in the same order, so there is
// no cycle). With `owner_fast`, a consumer-owned shard takes the owner fast
// path — no lock when no intruder is present (the Dekker pairing documented
// on GlobalShard); the caller guarantees no other thread owner-claims the
// same shard concurrently. Every other shard runs the intruder protocol,
// correct whether it is consumer-owned or plain locked. While the claim is
// held, ShardHeld() elides the per-event ShardGuard acquisitions. The
// destructor releases everything and restores the previous engagement even
// when a violation handler throws out of dispatch — a leaked shard lock (or
// stale engagement bits marking shards as held that aren't) deadlocks every
// later dispatch.
class Runtime::ShardClaim {
 public:
  ShardClaim(const Runtime& rt, uint64_t mask, bool owner_fast)
      : rt_(rt), mask_(mask), prev_runtime_(engaged_runtime_), prev_shards_(engaged_shards_) {
    for (uint64_t rest = mask_; rest != 0; rest &= rest - 1) {
      const uint32_t s = static_cast<uint32_t>(std::countr_zero(rest));
      GlobalShard& shard = *rt_.shards_[s];
      if (owner_fast && shard.owner_id.load(std::memory_order_relaxed) >= 0) {
        shard.owner_active.store(true, std::memory_order_seq_cst);
        if (shard.intruders.load(std::memory_order_seq_cst) == 0) {
          continue;
        }
        // Retreat before blocking, or a spinning intruder deadlocks.
        shard.owner_active.store(false, std::memory_order_release);
      }
      rt_.LockShardAsIntruder(shard);
      locked_ |= uint64_t{1} << s;
    }
    engaged_runtime_ = &rt_;
    engaged_shards_ = mask_;
  }
  ~ShardClaim() {
    engaged_runtime_ = prev_runtime_;
    engaged_shards_ = prev_shards_;
    for (uint64_t rest = mask_; rest != 0; rest &= rest - 1) {
      const uint32_t s = static_cast<uint32_t>(std::countr_zero(rest));
      GlobalShard& shard = *rt_.shards_[s];
      if (((locked_ >> s) & 1) != 0) {
        rt_.UnlockShardAsIntruder(shard);
      } else {
        shard.owner_active.store(false, std::memory_order_release);
      }
    }
  }

  ShardClaim(const ShardClaim&) = delete;
  ShardClaim& operator=(const ShardClaim&) = delete;

 private:
  const Runtime& rt_;
  const uint64_t mask_;
  uint64_t locked_ = 0;
  const Runtime* const prev_runtime_;
  const uint64_t prev_shards_;
};

// Publishes a DispatchScope on this thread for the duration of one dispatch
// call, restoring any outer frame so a handler re-entering dispatch cannot
// inherit a stale scope. A null scope publishes nothing: an unscoped call
// runs under whatever scope (usually none) is already active.
class Runtime::ScopeFrame {
 public:
  ScopeFrame(const Runtime& rt, const DispatchScope* scope) : scope_(scope) {
    if (scope_ != nullptr) {
      prev_runtime_ = scope_runtime_;
      prev_scope_ = active_scope_;
      scope_runtime_ = &rt;
      active_scope_ = scope_;
    }
  }
  ~ScopeFrame() {
    if (scope_ != nullptr) {
      scope_runtime_ = prev_runtime_;
      active_scope_ = prev_scope_;
    }
  }

  ScopeFrame(const ScopeFrame&) = delete;
  ScopeFrame& operator=(const ScopeFrame&) = delete;

 private:
  const DispatchScope* const scope_;
  const Runtime* prev_runtime_ = nullptr;
  const DispatchScope* prev_scope_ = nullptr;
};

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kBadSite:
      return "assertion failed at site";
    case ViolationKind::kBadCleanup:
      return "assertion incomplete at bound exit";
    case ViolationKind::kStrictEvent:
      return "unexpected event (strict automaton)";
    case ViolationKind::kOverflow:
      return "instance pool overflow";
    case ViolationKind::kDeadlineExpired:
      return "within_ms() deadline expired";
    case ViolationKind::kRateExceeded:
      return "rate() limit exceeded";
  }
  return "?";
}

namespace {

// Adds every cell of `block` into `total`. Each read is a relaxed atomic
// load: the block's single writer may be bumping it meanwhile.
void AddStats(RuntimeStats& total, RuntimeStats& block) {
#define TESLA_STATS_ADD(name, desc, replay) \
  total.name += std::atomic_ref<uint64_t>(block.name).load(std::memory_order_relaxed);
  TESLA_RUNTIME_STATS(TESLA_STATS_ADD)
#undef TESLA_STATS_ADD
}

}  // namespace

// --- ThreadContext ---

ThreadContext::ThreadContext(Runtime& runtime)
    : runtime_(runtime),
      classes_(runtime.classes_.size()),
      store_(runtime.ContextPoolCapacity()),
      bound_epochs_(runtime.bound_slot_count_),
      active_classes_(runtime.cleanup_slot_count_),
      stack_depth_(runtime.stack_slot_count_, 0) {
  if (runtime.recorder_ != nullptr) {
    trace_ = runtime.recorder_->RegisterContext();
  }
  if (runtime.collector_ != nullptr) {
    obs_ = runtime.collector_->RegisterShard();
  }
  runtime.RegisterContext(this);
}

ThreadContext::~ThreadContext() {
  for (ClassState& state : classes_) {
    for (uint32_t slot : state.instances) {
      store_.Free(slot);
    }
    state.instances.clear();
  }
  runtime_.UnregisterContext(this);
}

bool ThreadContext::InCallStack(Symbol function) const {
  const int32_t slot = runtime_.StackSlotFor(function);
  return slot >= 0 && static_cast<size_t>(slot) < stack_depth_.size() &&
         stack_depth_[slot] > 0;
}

// --- Runtime ---

thread_local const Runtime* Runtime::engaged_runtime_ = nullptr;
thread_local uint64_t Runtime::engaged_shards_ = 0;
thread_local const Runtime* Runtime::scope_runtime_ = nullptr;
thread_local const DispatchScope* Runtime::active_scope_ = nullptr;
thread_local uint64_t Runtime::current_event_ts_ = 0;

// The intruder side of the shard-ownership protocol (see GlobalShard in
// runtime.h for the full memory-ordering argument). The first owner_active
// load must be seq_cst: it has to order after the owner's claim store in
// the single total order, or it could read a stale false while the owner is
// mid-claim. The spin itself is rare — the owner retreats as soon as it
// observes the intruder count.
void Runtime::LockShardAsIntruder(GlobalShard& shard) const {
  shard.intruders.fetch_add(1, std::memory_order_seq_cst);
  shard.lock.lock();
  if (shard.owner_id.load(std::memory_order_relaxed) >= 0) {
    // An inline/sync dispatch landed on a consumer-owned shard: the handoff
    // path.
    BumpShared(stats_.shard_handoffs);
  }
  while (shard.owner_active.load(std::memory_order_seq_cst)) {
    // Owner mid-claim: it will see our intruder announcement and retreat.
  }
}

void Runtime::UnlockShardAsIntruder(GlobalShard& shard) const {
  // Unlock before decrementing: the owner's fast claim reads intruders == 0
  // as "no one is in (or can be entering) the critical section".
  shard.lock.unlock();
  shard.intruders.fetch_sub(1, std::memory_order_release);
}

Runtime::Runtime(RuntimeOptions options) : options_(std::move(options)) {
  const size_t requested = options_.global_shards;
  shard_count_ = static_cast<uint32_t>(requested < 1 ? 1 : (requested > 64 ? 64 : requested));
  options_.instances_per_context =
      std::min(options_.instances_per_context, kMaxInstancesPerContext);
  if (options_.trace_mode != trace::TraceMode::kOff) {
    recorder_ = std::make_unique<trace::Recorder>(trace::TraceConfig{
        options_.trace_mode, options_.trace_ring_capacity, options_.trace_capture_limit});
  }
  if (options_.metrics_mode != metrics::MetricsMode::kOff || options_.profile) {
    collector_ = std::make_unique<metrics::Collector>(options_.metrics_mode, options_.profile);
    counters_ = collector_->counting() ? collector_.get() : nullptr;
    time_dispatch_ = collector_->histograms_enabled();
  }
}

void Runtime::RegisterContext(ThreadContext* ctx) {
  LockGuard<Spinlock> guard(contexts_lock_);
  live_contexts_.push_back(ctx);
}

void Runtime::UnregisterContext(ThreadContext* ctx) {
  LockGuard<Spinlock> guard(contexts_lock_);
  live_contexts_.erase(std::remove(live_contexts_.begin(), live_contexts_.end(), ctx),
                       live_contexts_.end());
  // Fold the departing counts into the retired block, and the departing
  // pool's marks into the retired maxima so its peak still shows in
  // CollectProfile()'s capacity-headroom figures.
  AddStats(retired_stats_, ctx->stats_);
  retired_pool_high_water_ =
      std::max<uint64_t>(retired_pool_high_water_, ctx->store_.high_water());
  retired_pool_capacity_ = std::max<uint64_t>(retired_pool_capacity_, ctx->store_.capacity());
}

Runtime::~Runtime() = default;

Status Runtime::Register(const automata::Manifest& manifest) {
  for (const automata::Automaton& source : manifest.automata) {
    if (source.variables.size() > kMaxVariables) {
      return Error{"automaton '" + source.name + "' uses " +
                   std::to_string(source.variables.size()) + " variables (max " +
                   std::to_string(kMaxVariables) + ")"};
    }
    if (source.state_count > automata::kMaxStates) {
      return Error{"automaton '" + source.name + "' exceeds the state limit"};
    }

    CompiledClass cls;
    cls.automaton = source;
    cls.automaton.Finalize();
    cls.dfa = automata::Determinize(cls.automaton);
    cls.is_global = source.context == ast::Context::kGlobal;

    const automata::EventPattern& init = cls.automaton.alphabet[cls.automaton.init_symbol];
    const automata::EventPattern& cleanup =
        cls.automaton.alphabet[cls.automaton.cleanup_symbol];
    cls.start_key = init.kind == automata::PatternKind::kFunctionCall ? CallKey(init.function)
                                                                      : ReturnKey(init.function);
    cls.end_key = cleanup.kind == automata::PatternKind::kFunctionCall
                      ? CallKey(cleanup.function)
                      : ReturnKey(cleanup.function);

    cls.initial_states = cls.automaton.InitialInstanceStates();
    if (cls.initial_states == 0) {
      return Error{"automaton '" + source.name + "' has no «init» transition"};
    }
    cls.initial_dfa_state = cls.dfa.Step(0, cls.automaton.init_symbol);
    if (cls.initial_dfa_state == automata::Dfa::kNoTarget) {
      return Error{"automaton '" + source.name + "' has a malformed DFA"};
    }

    uint32_t id = static_cast<uint32_t>(classes_.size());
    cls.id = id;
    for (uint16_t symbol = 0; symbol < cls.automaton.alphabet.size(); symbol++) {
      if (symbol == cls.automaton.init_symbol || symbol == cls.automaton.cleanup_symbol) {
        continue;
      }
      if (cls.automaton.alphabet[symbol].kind == automata::PatternKind::kInCallStack) {
        cls.site_variants.push_back(symbol);
      }
    }
    by_name_.emplace(cls.automaton.name, id);
    classes_.push_back(std::move(cls));
  }

  CompilePlan();

  // (Re)create the sharded global stores now that classes and the plan are
  // known; their contexts size themselves from the plan's slot counts. Only
  // a shard some global class maps to gets a context — an empty one would
  // carry a full instance pool, class table, obs shard and trace ring.
  uint64_t hosting = 0;
  for (const CompiledClass& cls : classes_) {
    hosting |= cls.is_global ? uint64_t{1} << cls.shard : 0;
  }
  shards_.clear();
  shards_.reserve(shard_count_);
  for (uint32_t i = 0; i < shard_count_; i++) {
    auto shard = std::make_unique<GlobalShard>();
    if (((hosting >> i) & 1) != 0) {
      shard->context = std::make_unique<ThreadContext>(*this);
    }
    shards_.push_back(std::move(shard));
  }
  return Status::Ok();
}

// Compiles all per-symbol routing into flat Symbol-indexed tables. Symbols
// are dense interner indices; freezing the interner here pins the table
// extent — anything interned later cannot name a registered pattern and
// falls off the bounds check in O(1).
void Runtime::CompilePlan() {
  StringInterner& interner = GlobalInterner();
  interner.Freeze();
  const size_t symbols = interner.size();

  function_plan_.assign(symbols * 2, KeyPlan{});
  field_plan_.assign(symbols, KeyPlan{});
  candidate_pool_.clear();
  class_pool_.clear();
  closed_bounds_pool_.clear();
  bound_slot_count_ = 0;
  cleanup_slot_count_ = 0;
  stack_slot_count_ = 0;
  any_global_ = false;
  any_timed_ = false;

  // Shard partition: a global class whose site dispatch reads the
  // producer's call stack (incallstack() variants) is *pinned* — it must be
  // handled in the context stage of a scoped dispatch, under its lock. A
  // pinned and an unpinned class must never share a shard context: the two
  // stages of one scoped record would race on shared bound-epoch slots. So
  // the top shards are reserved for pinned classes when both kinds exist;
  // with a single shard the whole store degrades to pinned (always locked).
  bool any_pinned = false;
  bool any_unpinned = false;
  for (CompiledClass& cls : classes_) {
    cls.pinned = cls.is_global && !cls.site_variants.empty();
    cls.timed = !cls.automaton.timed.empty();
    any_timed_ |= cls.timed;
    // Timed classes must not take the flattened site path: it bypasses the
    // timed observation hooks (deadline arming follows instance occupancy).
    cls.site_fast = cls.automaton.has_site && cls.site_variants.empty() && !cls.timed;
    any_pinned |= cls.pinned;
    any_unpinned |= cls.is_global && !cls.pinned;
  }
  uint32_t pinned_shards = 0;
  if (any_pinned) {
    if (shard_count_ == 1 || !any_unpinned) {
      pinned_shards = shard_count_;
      for (CompiledClass& cls : classes_) {
        cls.pinned = cls.is_global;
      }
    } else {
      pinned_shards = shard_count_ >= 8 ? shard_count_ / 8 : 1;
    }
  }
  const uint32_t unpinned_shards = shard_count_ - pinned_shards;
  pinned_shard_mask_ = 0;
  unpinned_shard_mask_ = 0;
  if (any_pinned || any_unpinned) {
    for (uint32_t s = 0; s < shard_count_; s++) {
      if (s < unpinned_shards) {
        unpinned_shard_mask_ |= uint64_t{1} << s;
      } else {
        pinned_shard_mask_ |= uint64_t{1} << s;
      }
    }
  }

  // Pass 1: dense slot assignment, shard placement, candidate gathering.
  std::unordered_map<uint64_t, int32_t> bound_slots;
  std::unordered_map<uint64_t, int32_t> cleanup_slots;
  std::vector<std::vector<Candidate>> call_cands(symbols);
  std::vector<std::vector<Candidate>> return_cands(symbols);
  std::vector<std::vector<Candidate>> field_cands(symbols);

  for (CompiledClass& cls : classes_) {
    // Key-variable analysis: the variables clone events can bind form the
    // instance index's key tuple (kept as an ascending list for extraction).
    cls.key_mask = cls.automaton.CloneBoundMask();
    cls.key_count = 0;
    for (uint8_t var = 0; var < kMaxVariables; var++) {
      if ((cls.key_mask & (1u << var)) != 0) {
        cls.key_vars[cls.key_count++] = var;
      }
    }
    // Plan-hint resolution: the per-class index gate (hint override or the
    // global knob) and the profile-chosen secondary prefix index. A prefix
    // position outside the class's key set (stale profile, renamed class)
    // is ignored rather than applied wrong.
    cls.min_population = static_cast<uint32_t>(options_.index_min_population);
    cls.prefix_pos = CompiledClass::kNoPrefix;
    cls.prefix_var = 0;
    if (const profile::ClassHint* hint = options_.plan_hints.Find(cls.automaton.name)) {
      if (hint->min_population >= 0) {
        cls.min_population = static_cast<uint32_t>(hint->min_population);
      }
      if (hint->prefix_key_pos >= 0 && hint->prefix_key_pos < cls.key_count &&
          static_cast<size_t>(hint->prefix_key_pos) < profile::kMaxKeyVars) {
        cls.prefix_pos = static_cast<uint8_t>(hint->prefix_key_pos);
        cls.prefix_var = cls.key_vars[cls.prefix_pos];
      }
    }
    cls.bound_slot =
        bound_slots.emplace(cls.start_key, static_cast<int32_t>(bound_slots.size()))
            .first->second;
    cls.cleanup_slot =
        cleanup_slots.emplace(cls.end_key, static_cast<int32_t>(cleanup_slots.size()))
            .first->second;
    if (cls.is_global) {
      cls.shard = cls.pinned ? unpinned_shards + cls.id % pinned_shards
                             : cls.id % unpinned_shards;
      any_global_ = true;
    } else {
      cls.shard = 0;
    }

    // Forensics filter: every function/field symbol the class's patterns
    // name, bound init/cleanup functions included.
    cls.trace_symbols.clear();
    auto add_trace_symbol = [&cls](uint32_t symbol) {
      if (std::find(cls.trace_symbols.begin(), cls.trace_symbols.end(), symbol) ==
          cls.trace_symbols.end()) {
        cls.trace_symbols.push_back(symbol);
      }
    };
    for (const automata::EventPattern& pattern : cls.automaton.alphabet) {
      switch (pattern.kind) {
        case automata::PatternKind::kFunctionCall:
        case automata::PatternKind::kFunctionReturn:
        case automata::PatternKind::kInCallStack:
          add_trace_symbol(pattern.function);
          break;
        case automata::PatternKind::kFieldAssign:
          add_trace_symbol(pattern.field);
          break;
        case automata::PatternKind::kAssertionSite:
          break;
      }
    }

    for (uint16_t symbol = 0; symbol < cls.automaton.alphabet.size(); symbol++) {
      if (symbol == cls.automaton.init_symbol || symbol == cls.automaton.cleanup_symbol) {
        continue;
      }
      const automata::EventPattern& pattern = cls.automaton.alphabet[symbol];
      switch (pattern.kind) {
        case automata::PatternKind::kFunctionCall:
          call_cands[pattern.function].push_back({cls.id, symbol});
          break;
        case automata::PatternKind::kFunctionReturn:
          return_cands[pattern.function].push_back({cls.id, symbol});
          break;
        case automata::PatternKind::kFieldAssign:
          field_cands[pattern.field].push_back({cls.id, symbol});
          break;
        case automata::PatternKind::kInCallStack: {
          KeyPlan& call_plan = function_plan_[CallKey(pattern.function)];
          if (call_plan.stack_slot < 0) {
            const int32_t slot = static_cast<int32_t>(stack_slot_count_++);
            call_plan.stack_slot = slot;
            function_plan_[ReturnKey(pattern.function)].stack_slot = slot;
          }
          break;
        }
        case automata::PatternKind::kAssertionSite:
          break;  // routed by automaton id via site events
      }
    }
  }
  bound_slot_count_ = static_cast<uint32_t>(bound_slots.size());
  cleanup_slot_count_ = static_cast<uint32_t>(cleanup_slots.size());
  bound_slot_shards_.assign(bound_slot_count_, 0);
  cleanup_slot_shards_.assign(cleanup_slot_count_, 0);

  // Pass 2: bound routing per key.
  std::vector<std::vector<uint32_t>> starts(symbols * 2);
  std::vector<std::vector<uint32_t>> ends(symbols * 2);
  std::vector<std::vector<int32_t>> closes(symbols * 2);
  for (const CompiledClass& cls : classes_) {
    starts[cls.start_key].push_back(cls.id);
    ends[cls.end_key].push_back(cls.id);
    auto& closed = closes[cls.end_key];
    if (std::find(closed.begin(), closed.end(), cls.bound_slot) == closed.end()) {
      closed.push_back(cls.bound_slot);
    }
    KeyPlan& start_plan = function_plan_[cls.start_key];
    start_plan.bound_slot = cls.bound_slot;
    start_plan.start_contexts |= cls.is_global ? 2 : 1;
    function_plan_[cls.end_key].cleanup_slot = cls.cleanup_slot;
    if (cls.is_global) {
      bound_slot_shards_[cls.bound_slot] |= uint64_t{1} << cls.shard;
      cleanup_slot_shards_[cls.cleanup_slot] |= uint64_t{1} << cls.shard;
    }
  }

  // Pass 3: flatten the gathered lists into contiguous pools.
  for (uint64_t key = 0; key < symbols * 2; key++) {
    KeyPlan& plan = function_plan_[key];
    const Symbol symbol = static_cast<Symbol>(key >> 1);
    const auto& cands = (key & 1) != 0 ? call_cands[symbol] : return_cands[symbol];
    plan.cand_first = static_cast<uint32_t>(candidate_pool_.size());
    plan.cand_count = static_cast<uint32_t>(cands.size());
    candidate_pool_.insert(candidate_pool_.end(), cands.begin(), cands.end());
    plan.start_first = static_cast<uint32_t>(class_pool_.size());
    plan.start_count = static_cast<uint32_t>(starts[key].size());
    class_pool_.insert(class_pool_.end(), starts[key].begin(), starts[key].end());
    plan.end_first = static_cast<uint32_t>(class_pool_.size());
    plan.end_count = static_cast<uint32_t>(ends[key].size());
    class_pool_.insert(class_pool_.end(), ends[key].begin(), ends[key].end());
    plan.closes_first = static_cast<uint32_t>(closed_bounds_pool_.size());
    plan.closes_count = static_cast<uint32_t>(closes[key].size());
    closed_bounds_pool_.insert(closed_bounds_pool_.end(), closes[key].begin(),
                               closes[key].end());

    // The unpinned shards any event with this key can touch — candidates
    // plus the bound slots it opens or closes (ShardStageMask's answer).
    uint64_t touched = 0;
    for (const Candidate& cand : cands) {
      const CompiledClass& cls = classes_[cand.class_id];
      if (cls.is_global && !cls.pinned) {
        touched |= uint64_t{1} << cls.shard;
      }
    }
    if (plan.bound_slot >= 0) {
      touched |= bound_slot_shards_[plan.bound_slot];
    }
    if (plan.cleanup_slot >= 0) {
      touched |= cleanup_slot_shards_[plan.cleanup_slot];
      for (int32_t slot : closes[key]) {
        touched |= bound_slot_shards_[slot];
      }
    }
    plan.touched_shards = touched & unpinned_shard_mask_;
  }
  for (Symbol symbol = 0; symbol < symbols; symbol++) {
    KeyPlan& plan = field_plan_[symbol];
    plan.cand_first = static_cast<uint32_t>(candidate_pool_.size());
    plan.cand_count = static_cast<uint32_t>(field_cands[symbol].size());
    candidate_pool_.insert(candidate_pool_.end(), field_cands[symbol].begin(),
                           field_cands[symbol].end());
    uint64_t touched = 0;
    for (const Candidate& cand : field_cands[symbol]) {
      const CompiledClass& cls = classes_[cand.class_id];
      if (cls.is_global && !cls.pinned) {
        touched |= uint64_t{1} << cls.shard;
      }
    }
    plan.touched_shards = touched & unpinned_shard_mask_;
  }

  // Pass 4: flattened DFA tables and (metrics on) the transition-coverage
  // layout. dfa_flat — the DFA transition table in (state × symbol) indexing
  // — is built unconditionally: the step-program lowering reads it whether
  // or not metrics are on. The coverage layout gives each class a dense
  // cov_states × cov_symbols bit grid over the same indexing, 64-aligned so
  // no bitmap word is shared between classes. Reinstalling clears any
  // stamped bits — the bit layout just changed.
  size_t bits = 0;
  for (CompiledClass& cls : classes_) {
    cls.cov_states = static_cast<uint32_t>(cls.dfa.states.size());
    cls.cov_symbols = cls.dfa.symbol_count;
    const size_t grid = static_cast<size_t>(cls.cov_states) * cls.cov_symbols;
    cls.dfa_flat.resize(grid);
    for (uint32_t state = 0; state < cls.cov_states; state++) {
      for (uint32_t symbol = 0; symbol < cls.cov_symbols; symbol++) {
        cls.dfa_flat[state * cls.cov_symbols + symbol] =
            cls.dfa.states[state].transitions[symbol];
      }
    }
    if (counters_ != nullptr) {
      cls.cov_first = static_cast<uint32_t>(bits);
      bits += (grid + 63) & ~size_t{63};
    }
  }
  if (collector_ != nullptr) {
    collector_->EnsureClassCapacity(classes_.size());
    collector_->InstallCoverage(bits);
  }

  // Pool sizing from capacity hints: any context can host any class's
  // instances, so the per-context pool is the sum of the per-class hints
  // (unhinted classes get a small floor — they never dispatched in the
  // profile window). Without hints the instances_per_context knob stands.
  pool_capacity_hint_ = 0;
  if (!options_.plan_hints.empty() && !classes_.empty()) {
    size_t total = 0;
    for (const CompiledClass& cls : classes_) {
      const profile::ClassHint* hint = options_.plan_hints.Find(cls.automaton.name);
      total += hint != nullptr && hint->capacity > 0 ? hint->capacity : 16;
    }
    pool_capacity_hint_ = std::clamp<size_t>(total, 64, kMaxInstancesPerContext);
  }

  // Once-only index-gate warning state: one zeroed tally per class.
  gate_scan_count_ = classes_.size();
  gate_scans_ = gate_scan_count_ != 0
                    ? std::make_unique<std::atomic<uint32_t>[]>(gate_scan_count_)
                    : nullptr;

  // Pass 5: compile each class's step program (runtime/step.h). Recompiled
  // for every class on every Register(): classes_ may have reallocated, so
  // even previously compiled programs need their interpreted-tier
  // automaton/DFA pointers refreshed.
  for (CompiledClass& cls : classes_) {
    StepCompileOptions step_options;
    step_options.tier = options_.step_tier;
    step_options.use_dfa = options_.use_dfa;
    step_options.coverage = counters_ != nullptr;
    step_options.cov_first = cls.cov_first;
    cls.step = CompileStepProgram(cls.automaton, cls.dfa,
                                  automata::LowerStep(cls.automaton, cls.dfa), step_options);
  }
}

void Runtime::EnsurePlanCapacity(ThreadContext& ctx) {
  if (ctx.classes_.size() < classes_.size()) {
    ctx.classes_.resize(classes_.size());
  }
  if (ctx.bound_epochs_.size() < bound_slot_count_) {
    ctx.bound_epochs_.resize(bound_slot_count_);
  }
  if (ctx.active_classes_.size() < cleanup_slot_count_) {
    ctx.active_classes_.resize(cleanup_slot_count_);
  }
  if (ctx.stack_depth_.size() < stack_slot_count_) {
    ctx.stack_depth_.resize(stack_slot_count_, 0);
  }
  // A Register() after this context was created: swap in a shard sized for
  // the new classes (the stale block stays behind and is still merged).
  if (ctx.obs_ != nullptr && ctx.obs_->class_capacity() < classes_.size()) {
    ctx.obs_ = collector_->RegisterShard();
  }
}

int Runtime::FindAutomaton(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : static_cast<int>(it->second);
}

// --- stats & metrics snapshots ---

RuntimeStats Runtime::stats() const {
  RuntimeStats total;
  LockGuard<Spinlock> guard(contexts_lock_);
  AddStats(total, stats_);
  AddStats(total, retired_stats_);
  for (ThreadContext* ctx : live_contexts_) {
    AddStats(total, ctx->stats_);
  }
  return total;
}

size_t Runtime::context_count() const {
  LockGuard<Spinlock> guard(contexts_lock_);
  return live_contexts_.size();
}

void Runtime::ResetStats() {
  // RuntimeStats::overflows is fed by per-context pool tallies; a reset that
  // leaves those behind would double-report them through pool_overflows()
  // style accessors. The pool high-water marks rewind with them — a
  // measurement window opened now must not inherit an earlier peak through
  // shard_pool_high_water() or a profile snapshot.
  for (uint32_t s = 0; s < shards_.size(); s++) {
    if (ThreadContext* storage = shards_[s]->context.get()) {
      ShardGuard guard(*this, s, !ShardHeld(s));
      storage->store_.ResetOverflows();
      storage->store_.ResetHighWater();
    }
  }
  {
    // Every context's stats cells zero, shard contexts included; per-thread
    // pools rewind too (their owners hold no overflow-style tally, but their
    // pool peaks feed CollectProfile), and the retired block and maxima
    // restart from nothing. Quiescent-point contract as above; stats()
    // readers are held off by the registry lock.
    LockGuard<Spinlock> guard(contexts_lock_);
    stats_ = RuntimeStats{};
    retired_stats_ = RuntimeStats{};
    for (ThreadContext* ctx : live_contexts_) {
      ctx->stats_ = RuntimeStats{};
      ctx->store_.ResetHighWater();
    }
    retired_pool_high_water_ = 0;
    retired_pool_capacity_ = 0;
  }
  if (collector_ != nullptr) {
    collector_->Reset();
  }
}

uint64_t Runtime::shard_pool_overflows() const {
  uint64_t total = 0;
  for (uint32_t s = 0; s < shards_.size(); s++) {
    if (const ThreadContext* storage = shards_[s]->context.get()) {
      ShardGuard guard(*this, s, !ShardHeld(s));
      total += storage->store_.overflows();
    }
  }
  return total;
}

uint64_t Runtime::shard_pool_high_water() const {
  uint64_t peak = 0;
  for (uint32_t s = 0; s < shards_.size(); s++) {
    if (const ThreadContext* storage = shards_[s]->context.get()) {
      ShardGuard guard(*this, s, !ShardHeld(s));
      peak = std::max<uint64_t>(peak, storage->store_.high_water());
    }
  }
  return peak;
}

void Runtime::SetMetricsAugmenter(MetricsAugmenter augmenter) {
  LockGuard<Spinlock> guard(augmenter_lock_);
  metrics_augmenter_ = std::move(augmenter);
}

void Runtime::AssignShardOwners(uint32_t consumers) {
  if (consumers == 0) {
    consumers = 1;
  }
  for (uint32_t s = 0; s < shards_.size(); s++) {
    const bool owned = ((unpinned_shard_mask_ >> s) & 1) != 0;
    shards_[s]->owner_id.store(owned ? static_cast<int32_t>(s % consumers) : -1,
                               std::memory_order_release);
  }
}

void Runtime::ReleaseShardOwners() {
  for (auto& shard : shards_) {
    shard->owner_id.store(-1, std::memory_order_release);
  }
}

std::string Runtime::ManifestText() const {
  automata::Manifest manifest;
  manifest.automata.reserve(classes_.size());
  for (const CompiledClass& cls : classes_) {
    manifest.automata.push_back(cls.automaton);
  }
  return manifest.Serialize();
}

metrics::Snapshot Runtime::CollectMetrics() const {
  metrics::Snapshot snapshot;
  snapshot.stats = stats();
  if (counters_ == nullptr) {
    AugmentSnapshot(snapshot);
    return snapshot;
  }
  snapshot.mode = counters_->mode();

  std::vector<uint64_t> words(classes_.size() * metrics::kClassStride);
  counters_->Merge(classes_.size(), words.data());
  snapshot.classes.reserve(classes_.size());
  for (const CompiledClass& cls : classes_) {
    metrics::ClassSnapshot entry;
    entry.name = cls.automaton.name;
    metrics::CountersFromCells(words.data() + cls.id * metrics::kClassStride, entry.counters);
    for (uint32_t state = 0; state < cls.cov_states; state++) {
      for (uint32_t symbol = 0; symbol < cls.cov_symbols; symbol++) {
        const uint32_t target = cls.dfa_flat[state * cls.cov_symbols + symbol];
        if (target == automata::Dfa::kNoTarget) {
          continue;
        }
        metrics::TransitionCoverage transition;
        transition.state = state;
        transition.symbol = static_cast<uint16_t>(symbol);
        transition.fired =
            counters_->CoverageBit(cls.cov_first + state * cls.cov_symbols + symbol);
        const char* role = symbol == cls.automaton.init_symbol      ? "«init» "
                           : symbol == cls.automaton.cleanup_symbol ? "«cleanup» "
                                                                    : "";
        transition.description = cls.dfa.StateLabel(state) + " --" + role +
                                 cls.automaton.alphabet[symbol].ToString() + "--> " +
                                 cls.dfa.StateLabel(target);
        entry.transitions.push_back(std::move(transition));
      }
    }
    snapshot.classes.push_back(std::move(entry));
  }
  counters_->MergeHistograms(snapshot.histograms);
  AugmentSnapshot(snapshot);
  return snapshot;
}

profile::Snapshot Runtime::CollectProfile() const {
  profile::Snapshot snapshot;
  {
    // Pool marks: the max over every live context's pool plus the retired
    // maxima. Plain reads of other threads' pools — the quiescent-point
    // contract documented on the accessor.
    LockGuard<Spinlock> guard(contexts_lock_);
    snapshot.pool_high_water = retired_pool_high_water_;
    snapshot.pool_capacity = retired_pool_capacity_;
    for (ThreadContext* ctx : live_contexts_) {
      snapshot.pool_high_water =
          std::max<uint64_t>(snapshot.pool_high_water, ctx->store_.high_water());
      snapshot.pool_capacity =
          std::max<uint64_t>(snapshot.pool_capacity, ctx->store_.capacity());
    }
  }
  if (collector_ == nullptr || !collector_->profiling() || classes_.empty()) {
    return snapshot;
  }
  std::vector<uint64_t> words(classes_.size() * metrics::kClassStride);
  collector_->Merge(classes_.size(), words.data());
  snapshot.classes.reserve(classes_.size());
  for (const CompiledClass& cls : classes_) {
    profile::ClassProfile entry;
    entry.name = cls.automaton.name;
    const size_t tracked = std::min<size_t>(cls.key_count, profile::kMaxKeyVars);
    entry.key_vars.reserve(tracked);
    for (size_t p = 0; p < tracked; p++) {
      entry.key_vars.push_back(cls.key_vars[p]);
    }
    const uint64_t* block = words.data() + cls.id * metrics::kClassStride;
    std::copy_n(block, profile::kCellCount, entry.cells);
    for (size_t p = 0; p < profile::kMaxKeyVars; p++) {
      entry.var_partial[p] = block[metrics::kVarPartialOffset + p];
      std::copy_n(block + metrics::kSketchOffset + p * profile::kSketchWords,
                  profile::kSketchWords, entry.sketch[p]);
    }
    snapshot.classes.push_back(std::move(entry));
  }
  return snapshot;
}

// The profile's shape of one dispatch; see runtime.h for `route`. Every
// write is relative to the class's block, hoisted once by the caller, so no
// store forces a reload of the shard's internal pointer.
void Runtime::ProfileDispatch(std::atomic<uint64_t>* base, const CompiledClass& cls,
                              const ClassState& state, const BindingSet& bindings,
                              metrics::Cell route) {
  using metrics::Cell;
  using metrics::Shard;
  const uint64_t population = state.instances.size();
  Shard::AddAt(base, Cell::dispatches);
  Shard::AddAt(base, Cell::fanout_sum, population);
  Shard::PeakAt(base, Cell::fanout_peak, population);
  // Distinct-key sketches: one linear-counting bit per bound tracked key
  // variable. Hash of the value, so the sketch is deterministic in the
  // event stream and merges by OR.
  const size_t tracked = std::min<size_t>(cls.key_count, metrics::kMaxKeyVars);
  for (size_t p = 0; p < tracked; p++) {
    const uint8_t var = cls.key_vars[p];
    for (size_t b = 0; b < bindings.count; b++) {
      if (bindings.entries[b].var == var) {
        Shard::SketchAt(base, p, HashU64(static_cast<uint64_t>(bindings.entries[b].value)));
        break;
      }
    }
  }
  if (route == Cell::small_population) {
    Shard::AddAt(base, Cell::small_population);
    NoteGatedScan(cls.id);
  } else if (route == Cell::partial_bound) {
    Shard::AddAt(base, Cell::partial_bound);
    // Which tracked key variables *were* bound: the prefix-index signal —
    // a secondary index on one of these would have served this dispatch.
    for (size_t p = 0; p < tracked; p++) {
      const uint8_t var = cls.key_vars[p];
      for (size_t b = 0; b < bindings.count; b++) {
        if (bindings.entries[b].var == var) {
          Shard::VarPartialAt(base, p);
          break;
        }
      }
    }
  }
}

void Runtime::SpillDispatch(const metrics::Shard& shard, uint32_t class_id,
                            uint64_t population, metrics::Cell route) {
  using metrics::Cell;
  if (route != Cell::dispatches) {
    collector_->Spill(class_id, StoredRoute(route));
  }
  if (!shard.profiling()) {
    return;
  }
  collector_->Spill(class_id, Cell::dispatches);
  collector_->Spill(class_id, Cell::fanout_sum, population);
  collector_->Spill(class_id, Cell::fanout_peak, population);
  if (route == Cell::small_population || route == Cell::partial_bound) {
    collector_->Spill(class_id, route);
  }
}

void Runtime::NoteGatedScan(uint32_t class_id) {
  if (gate_scans_ == nullptr || class_id >= gate_scan_count_) {
    return;
  }
  // Saturating tally: past the threshold the hot path pays one relaxed load
  // instead of an RMW per gated dispatch (the warning can no longer fire).
  if (gate_scans_[class_id].load(std::memory_order_relaxed) >= kGateWarnThreshold) {
    return;
  }
  const uint32_t tally =
      gate_scans_[class_id].fetch_add(1, std::memory_order_relaxed) + 1;
  if (tally != kGateWarnThreshold || handlers_.empty()) {
    return;  // fires exactly once, past the warm-up threshold
  }
  const CompiledClass& cls = classes_[class_id];
  const std::string message =
      "index_min_population (" + std::to_string(cls.min_population) +
      ") keeps disabling the key probe: " + std::to_string(kGateWarnThreshold) +
      " dispatches fell back to a full scan; consider a plan hint with "
      "min_population=0 for this class";
  ClassInfo info{class_id, &cls.automaton};
  for (EventHandler* handler : handlers_) {
    handler->OnWarning(info, message);
  }
}

void Runtime::AugmentSnapshot(metrics::Snapshot& snapshot) const {
  MetricsAugmenter augmenter;
  {
    LockGuard<Spinlock> guard(augmenter_lock_);
    augmenter = metrics_augmenter_;
  }
  if (augmenter) {
    augmenter(snapshot);
  }
}

void Runtime::GrowClassStates(ThreadContext& storage) {
  storage.classes_.resize(classes_.size());
}

// --- the unified event entry point ---

// Always inlined into its three entry points, so each gets the loop
// specialised to its own shape: OnEvent's copy folds to the single-event
// path (no claim, no scope), the batch entry points keep the rest.
// As an out-of-line call it added ~5% to bench_e2e's oltp_inline slowdown.
[[gnu::always_inline]] inline void Runtime::Dispatch(ThreadContext& ctx,
                                                     std::span<const Event> events,
                                                     const DispatchScope* scope) {
  if (events.empty()) {
    return;
  }
  if (scope == nullptr || scope->context) {
    // Only the context stage may grow the producer's context: the plan is
    // frozen before consumers run, so this is a no-op in steady state, and
    // the shard stage must not write another consumer's home context.
    EnsurePlanCapacity(ctx);
  }
  ScopeFrame frame(*this, scope);
  // The per-call facts: fixed for the whole call, so every event's
  // bookkeeping tests them once here instead of re-deriving them.
  const bool context_stage = ScopeContext();
  const bool record = context_stage && recorder_ != nullptr && ctx.trace_ != nullptr;
  const bool timed = context_stage && time_dispatch_ && ctx.obs_ != nullptr;
  if (scope == nullptr && events.size() == 1) {
    // A single unscoped event (OnEvent's steady state) takes no up-front
    // claim: its shards are taken per event by ShardGuard.
    DispatchEvent(ctx, events.front(), context_stage, record, timed);
    return;
  }
  // Claim the shards this call may touch once for the whole batch. Shards
  // a consumer owns take the owner fast path only under a scope (the queue
  // routed them to this consumer); unscoped callers intrude like everyone
  // else. No global classes: both masks are empty and nothing is claimed.
  const uint64_t mask = AllowedShardMask() & (pinned_shard_mask_ | unpinned_shard_mask_);
  std::optional<ShardClaim> claim;
  if (mask != 0 && engaged_runtime_ != this) {
    claim.emplace(*this, mask, scope != nullptr);
  }
  for (const Event& event : events) {
    DispatchEvent(ctx, event, context_stage, record, timed);
  }
}

void Runtime::OnEvent(ThreadContext& ctx, const Event& event) {
  // Producer-side stamping: with timed clauses registered, the monotonic
  // clock is read once, here, *before* the ingest hook can queue the event —
  // async and sidecar consumers then evaluate deadlines against the
  // producer's clock, and a capture carries the same value into replay.
  // Pre-stamped events (replay, simulators with virtual clocks) pass
  // through untouched, which is what makes timed verdicts reproducible.
  if (any_timed_ && event.ts_ns == 0) [[unlikely]] {
    Event stamped = event;
    stamped.ts_ns = NowNs();
    OnEvent(ctx, stamped);
    return;
  }
  // The ingest hook runs before the context is touched at all: with the
  // async queue installed, the producer thread only copies the event into a
  // ring while the consumer thread is the context's sole mutator.
  if (IngestHook hook = ingest_hook_.load(std::memory_order_acquire)) {
    if (hook(ingest_state_.load(std::memory_order_acquire), ctx, event)) {
      return;
    }
  }
  Dispatch(ctx, {&event, 1}, nullptr);
}

void Runtime::OnEvents(ThreadContext& ctx, std::span<const Event> events) {
  Dispatch(ctx, events, nullptr);
}

void Runtime::OnEventsScoped(ThreadContext& ctx, std::span<const Event> events,
                             const DispatchScope& scope) {
  Dispatch(ctx, events, &scope);
}

uint64_t Runtime::ShardStageMask(const Event& event) const {
  switch (event.kind) {
    case EventKind::kFunctionCall:
    case EventKind::kFunctionReturn: {
      const uint64_t key = event.kind == EventKind::kFunctionReturn
                               ? ReturnKey(event.target)
                               : CallKey(event.target);
      return key < function_plan_.size() ? function_plan_[key].touched_shards : 0;
    }
    case EventKind::kFieldStore:
      return event.target < field_plan_.size() ? field_plan_[event.target].touched_shards
                                               : 0;
    case EventKind::kAssertionSite: {
      if (event.target >= classes_.size()) {
        return 0;
      }
      const CompiledClass& cls = classes_[event.target];
      return cls.is_global && !cls.pinned ? uint64_t{1} << cls.shard : 0;
    }
  }
  return 0;
}

void Runtime::DispatchEvent(ThreadContext& ctx, const Event& event, bool context_stage,
                            bool record, bool timed) {
  // Event-level bookkeeping — the global event count, the flight recorder,
  // dispatch timing — happens exactly once per event, in the context stage
  // (a shard-stage pass of the same record skips it).
  if (any_timed_) [[unlikely]] {
    // Resolve the event clock once per event (the timed hooks read
    // current_event_ts_ instead of re-deriving it per class). The producer
    // context ticks here, in the context stage — exactly once per event, so
    // an armed deadline fires on the next event through the context even if
    // that event touches no timed class; shard contexts tick when a timed
    // class dispatches into them. A backwards timestamp is counted here
    // (once) and clamped in TimedTick — per-context stream order is
    // preserved by the queue and by replay, so the count is deterministic.
    current_event_ts_ = event.ts_ns != 0 ? event.ts_ns : NowNs();
    if (context_stage) {
      if (current_event_ts_ < ctx.timed_now_) [[unlikely]] {
        Bump(ctx.stats_.clock_regressions);
      }
      TimedTick(ctx, current_event_ts_);
    }
  }
  if (context_stage) {
    Bump(ctx.stats_.events);
    if (event.truncated) {
      Bump(ctx.stats_.arg_truncations);
    }
    if (record) {
      recorder_->Record(*ctx.trace_, event);
    }
  }
  // kFull mode: two clock reads bracket the dispatch, bucketed per event
  // kind into the entry context's shard.
  uint64_t start_ns = 0;
  if (timed) {
    start_ns = NowNs();
  }
  switch (event.kind) {
    case EventKind::kFunctionCall:
    case EventKind::kFunctionReturn:
      ProcessFunctionEvent(ctx, event);
      break;
    case EventKind::kFieldStore:
      ProcessFieldEvent(ctx, event);
      break;
    case EventKind::kAssertionSite:
      ProcessSiteEvent(ctx, event);
      break;
  }
  if (timed) {
    const int64_t ns = static_cast<int64_t>(NowNs()) - static_cast<int64_t>(start_ns);
    if (ns < 0) {
      // A stepped clock produced a negative delta. The sample still lands
      // in bucket 0 (dropping it would skew sample counts), but it is
      // counted so a depressed p50 can be traced to the clock, not TESLA.
      Bump(ctx.stats_.negative_latencies);
    }
    ctx.obs_->RecordLatency(static_cast<size_t>(event.kind),
                            ns > 0 ? static_cast<uint64_t>(ns) : 0);
  }
}

void Runtime::ProcessFunctionEvent(ThreadContext& ctx, const Event& event) {
  const bool is_return = event.kind == EventKind::kFunctionReturn;
  const uint64_t key = is_return ? ReturnKey(event.target) : CallKey(event.target);
  if (key >= function_plan_.size()) {
    return;  // interned after the plan was compiled: cannot name any pattern
  }
  const KeyPlan& plan = function_plan_[key];

  if (plan.stack_slot >= 0 && ScopeContext()) {
    int32_t& depth = ctx.stack_depth_[plan.stack_slot];
    if (is_return && depth == 0) {
      // A return with no tracked call: the stream started mid-call (e.g. a
      // wrapped flight-recorder capture). Clamp instead of going negative,
      // which would poison incallstack() for the rest of the run.
      Bump(ctx.stats_.unmatched_returns);
    } else {
      depth += is_return ? -1 : 1;
    }
  }

  // 1. «init» transitions for bounds opened by this event.
  if (plan.bound_slot >= 0) {
    HandleBoundStart(ctx, plan);
  }

  // 2. Body events.
  for (uint32_t i = 0; i < plan.cand_count; i++) {
    const Candidate& candidate = candidate_pool_[plan.cand_first + i];
    if (!ClassInScope(classes_[candidate.class_id])) {
      continue;  // another stage of this record dispatches it
    }
    const automata::EventPattern& pattern =
        classes_[candidate.class_id].automaton.alphabet[candidate.symbol];
    BindingSet bindings;
    if (MatchFunctionPattern(pattern, event.args(), is_return, event.return_value,
                             &bindings)) {
      HandleEvent(ctx, candidate, bindings);
    }
  }

  // 3. «cleanup» transitions for bounds closed by this event.
  if (plan.cleanup_slot >= 0) {
    HandleBoundEnd(ctx, plan);
  }
}

void Runtime::ProcessFieldEvent(ThreadContext& ctx, const Event& event) {
  if (event.target >= field_plan_.size()) {
    return;
  }
  const KeyPlan& plan = field_plan_[event.target];
  const int64_t object = event.values[0];
  const int64_t old_value = event.values[1];
  const int64_t new_value = event.values[2];
  for (uint32_t i = 0; i < plan.cand_count; i++) {
    const Candidate& candidate = candidate_pool_[plan.cand_first + i];
    if (!ClassInScope(classes_[candidate.class_id])) {
      continue;
    }
    const automata::EventPattern& pattern =
        classes_[candidate.class_id].automaton.alphabet[candidate.symbol];
    BindingSet bindings;
    if (!bindings.Add(pattern.struct_var, object)) {
      continue;
    }
    bool matched = false;
    switch (pattern.assign_op) {
      case ast::AssignOp::kAssign:
        matched = MatchArg(pattern.assign_value, new_value, &bindings);
        break;
      case ast::AssignOp::kPlusEqual:
        matched = MatchArg(pattern.assign_value, new_value - old_value, &bindings);
        break;
      case ast::AssignOp::kMinusEqual:
        matched = MatchArg(pattern.assign_value, old_value - new_value, &bindings);
        break;
      case ast::AssignOp::kIncrement:
        matched = new_value == old_value + 1;
        break;
      case ast::AssignOp::kDecrement:
        matched = new_value == old_value - 1;
        break;
    }
    if (matched) {
      HandleEvent(ctx, candidate, bindings);
    }
  }
}

void Runtime::ProcessSiteEvent(ThreadContext& ctx, const Event& event) {
  const uint32_t automaton_id = event.target;
  if (automaton_id >= classes_.size()) {
    return;
  }
  const CompiledClass& fast_cls = classes_[automaton_id];
  if (event.count == 0 && fast_cls.site_fast && !fast_cls.is_global && handlers_.empty() &&
      ActiveScope() == nullptr) [[likely]] {
    // Flattened steady-state path: an unbound site event on a per-thread
    // class whose site event is just the site symbol, with no handlers and
    // no scoped dispatch. Such an event exact-matches every live instance,
    // so the whole HandleSiteEvent → DispatchToInstances → DispatchScan
    // cascade reduces to one batch kernel call — this is where the
    // sub-30 ns/event dispatch budget is won. Anything off the steady state
    // (inactive class, lazy activation pending, empty population) falls
    // through to the generic path below, which handles it identically.
    ClassState& state = StateFor(ctx, automaton_id);
    bool active = state.active;
    if (options_.lazy_init) {
      const BoundEpoch& epoch = ctx.bound_epochs_[fast_cls.bound_slot];
      active = active && epoch.open && state.epoch == epoch.epoch;
    }
    if (active && !state.instances.empty()) {
      const bool indexed = options_.instance_index && fast_cls.key_mask != 0;
      if (indexed) {
        // An unbound event cannot cover the key tuple: always a scan.
        Bump(ctx.stats_.index_scans);
      }
      if (metrics::Shard* shard = ctx.obs_) {
        // Same attribution the generic route computes for an unbound site:
        // gated below the crossover population, partially bound above it —
        // the determinism differential depends on the two paths agreeing.
        // (No latency sample: this is the sub-30 ns flattened path.)
        static constexpr BindingSet kUnbound{};
        metrics::Cell route = metrics::Cell::dispatches;
        if (indexed) {
          route = state.instances.size() < fast_cls.min_population
                      ? metrics::Cell::small_population
                      : metrics::Cell::partial_bound;
        }
        RecordDispatch(*shard, fast_cls, state, kUnbound, route);
      }
      const uint32_t stepped = fast_cls.step.RunBatch(
          counters_, ctx.store_.hot_data(), state.instances.data(),
          state.instances.size(),
          std::span<const uint16_t>(&fast_cls.automaton.site_symbol, 1));
      if (stepped != 0) [[likely]] {
        Bump(ctx.stats_.transitions, stepped);
        BumpClass(ctx, automaton_id, metrics::Cell::transitions, stepped);
        return;
      }
      // Paper §4.4.1 "Error": no instance could consume the site.
      automata::StateSet live = 0;
      for (uint32_t slot : state.instances) {
        live |= ctx.store_.states(slot);
      }
      ReportViolation(automaton_id, ViolationKind::kBadSite,
                      "no instance could accept the assertion site", live);
      return;
    }
  }
  BindingSet bindings;
  for (uint8_t i = 0; i < event.count; i++) {
    // Variable indices beyond kMaxVariables cannot name an automaton
    // variable and would corrupt instance bound masks; treat them like
    // inconsistent caller-provided bindings and surface a site violation.
    if (event.vars[i] >= kMaxVariables || !bindings.Add(event.vars[i], event.values[i])) {
      if (ScopeContext()) {
        ReportViolation(automaton_id, ViolationKind::kBadSite, "inconsistent site bindings");
      }
      return;
    }
  }
  const CompiledClass& cls = classes_[automaton_id];
  if (!ClassInScope(cls)) {
    return;
  }
  ShardGuard guard(*this, cls.shard, cls.is_global && !ShardHeld(cls.shard));
  HandleSiteEvent(ctx, automaton_id, bindings);
}

// --- bound lifecycle ---

void Runtime::HandleBoundStart(ThreadContext& ctx, const KeyPlan& plan) {
  if (ScopeContext()) {
    Bump(ctx.stats_.bound_entries);
  }
  if (options_.lazy_init) {
    // O(1): bump the bound's epoch; instances materialise on first real
    // event. Classes sharing the bound share the epoch slot, so the cost is
    // per-storage-context, not per-automaton. Each scoped stage bumps only
    // the storage contexts it owns — the producer's context with the
    // context stage, each shard with its owner's pass.
    if ((plan.start_contexts & 1) != 0 && ScopeContext()) {
      BoundEpoch& epoch = ctx.bound_epochs_[plan.bound_slot];
      epoch.epoch++;
      epoch.open = true;
    }
    if ((plan.start_contexts & 2) != 0) {
      uint64_t mask = bound_slot_shards_[plan.bound_slot] & AllowedShardMask();
      for (uint32_t shard = 0; mask != 0; shard++, mask >>= 1) {
        if ((mask & 1) == 0) {
          continue;
        }
        ShardGuard guard(*this, shard, !ShardHeld(shard));
        BoundEpoch& epoch = shards_[shard]->context->bound_epochs_[plan.bound_slot];
        epoch.epoch++;
        epoch.open = true;
      }
    }
    return;
  }
  // Naive mode: touch every automaton sharing this bound (the per-syscall
  // cost fig. 13 measures).
  for (uint32_t i = 0; i < plan.start_count; i++) {
    const uint32_t class_id = class_pool_[plan.start_first + i];
    if (!ClassInScope(classes_[class_id])) {
      continue;
    }
    ActivateClassSharded(ctx, class_id);
  }
}

void Runtime::HandleBoundEnd(ThreadContext& ctx, const KeyPlan& plan) {
  const bool context_stage = ScopeContext();
  if (context_stage) {
    Bump(ctx.stats_.bound_exits);
  }
  if (!options_.lazy_init) {
    for (uint32_t i = 0; i < plan.end_count; i++) {
      const uint32_t class_id = class_pool_[plan.end_first + i];
      if (!ClassInScope(classes_[class_id])) {
        continue;
      }
      CleanupClassSharded(ctx, class_id);
    }
    return;
  }

  // Per-thread pass: this context's live classes and open bounds.
  if (context_stage) {
    auto& active = ctx.active_classes_[plan.cleanup_slot];
    for (uint32_t class_id : active) {
      CleanupClass(ctx, class_id);
    }
    active.clear();
  }
  uint64_t shard_mask = 0;
  for (uint32_t i = 0; i < plan.closes_count; i++) {
    const int32_t slot = closed_bounds_pool_[plan.closes_first + i];
    if (context_stage) {
      ctx.bound_epochs_[slot].open = false;
    }
    shard_mask |= bound_slot_shards_[slot];
  }
  if (!any_global_) {
    return;
  }

  // Global pass: only shards hosting classes that end or close a bound
  // here, restricted to the active scope's shards (the other stages of a
  // scoped record sweep their own).
  shard_mask |= cleanup_slot_shards_[plan.cleanup_slot];
  shard_mask &= AllowedShardMask();
  for (uint32_t shard = 0; shard_mask != 0; shard++, shard_mask >>= 1) {
    if ((shard_mask & 1) == 0) {
      continue;
    }
    ShardGuard guard(*this, shard, !ShardHeld(shard));
    ThreadContext& storage = *shards_[shard]->context;
    auto& active = storage.active_classes_[plan.cleanup_slot];
    // Classes outside the scope (possible only when pinned and unpinned
    // classes share a shard, i.e. the degraded all-pinned partition) stay
    // listed for their own stage's sweep.
    size_t kept = 0;
    for (size_t i = 0; i < active.size(); i++) {
      const uint32_t class_id = active[i];
      if (ClassInScope(classes_[class_id])) {
        CleanupClass(ctx, class_id);
      } else {
        active[kept++] = class_id;
      }
    }
    active.resize(kept);
    for (uint32_t i = 0; i < plan.closes_count; i++) {
      storage.bound_epochs_[closed_bounds_pool_[plan.closes_first + i]].open = false;
    }
  }
}

void Runtime::ActivateClassSharded(ThreadContext& ctx, uint32_t class_id) {
  const CompiledClass& cls = classes_[class_id];
  ShardGuard guard(*this, cls.shard, cls.is_global && !ShardHeld(cls.shard));
  ActivateClass(ctx, class_id);
}

void Runtime::CleanupClassSharded(ThreadContext& ctx, uint32_t class_id) {
  const CompiledClass& cls = classes_[class_id];
  ShardGuard guard(*this, cls.shard, cls.is_global && !ShardHeld(cls.shard));
  CleanupClass(ctx, class_id);
}

void Runtime::ActivateClass(ThreadContext& ctx, uint32_t class_id) {
  const CompiledClass& cls = classes_[class_id];
  ClassState& state = StateFor(ctx, class_id);
  ThreadContext& storage = ContextFor(ctx, class_id);

  for (uint32_t slot : state.instances) {
    storage.store_.Free(slot);
  }
  state.instances.clear();
  state.index.Clear();
  state.unkeyed.clear();
  state.index2.Clear();
  state.tail2.clear();

  uint32_t wildcard = storage.store_.Allocate();
  if (wildcard == kNoSlot) {
    Bump(storage.stats_.overflows);
    ReportViolation(class_id, ViolationKind::kOverflow, "no space for (*) instance");
    state.active = false;
    return;
  }
  storage.store_.states(wildcard) = cls.initial_states;
  storage.store_.dfa_state(wildcard) = cls.initial_dfa_state;
  state.instances.push_back(wildcard);
  IndexInstance(storage, cls, state, wildcard);
  state.active = true;
  Bump(storage.stats_.instances_created);
  Bump(storage.stats_.transitions);  // the «init» transition itself
  BumpClass(storage, class_id, metrics::Cell::instances_created);
  BumpClass(storage, class_id, metrics::Cell::transitions);
  if (counters_ != nullptr) {
    // The «init» transition leaves DFA state 0 (the pre-bound start state).
    StampTransition(counters_, cls.cov_first, cls.cov_symbols, 0, cls.automaton.init_symbol);
  }
  if (!handlers_.empty()) {
    ClassInfo info{class_id, &cls.automaton};
    const Instance view = storage.store_.Materialize(wildcard);
    for (EventHandler* handler : handlers_) {
      handler->OnInstanceNew(info, view);
      // The «init» transition (state 0 → body entry) is observable too, so
      // counting handlers can weight it (fig. 9).
      handler->OnTransition(info, view, automata::StateBit(cls.automaton.initial_state),
                            cls.automaton.init_symbol, cls.initial_states);
    }
  }
  if (cls.timed) [[unlikely]] {
    // A (re)opened bound starts its clauses fresh: cancel anything armed by
    // a previous activation, then arm for the new wildcard if the initial
    // states already sit inside a timed region (the deadline clock starts
    // at the event that completed the preceding context — this one).
    TimedTick(storage, current_event_ts_);
    ResetTimedCells(state);
    TimedObserve(storage, cls, state, {}, false);
  }
}

void Runtime::CleanupClass(ThreadContext& ctx, uint32_t class_id) {
  const CompiledClass& cls = classes_[class_id];
  ClassState& state = StateFor(ctx, class_id);
  if (!state.active) {
    return;
  }
  ThreadContext& storage = ContextFor(ctx, class_id);
  if (cls.timed) [[unlikely]] {
    // A deadline that fully elapsed before the bound closed is a violation
    // even when its expiry and the cleanup arrive in the same batch: fire
    // anything strictly past before the cleanup sweep settles the clauses.
    TimedTick(storage, current_event_ts_);
  }
  ClassInfo info{class_id, &cls.automaton};
  const uint16_t cleanup_symbol = cls.automaton.cleanup_symbol;
  for (uint32_t slot : state.instances) {
    if (StepSlot(cls, storage, slot, std::span<const uint16_t>(&cleanup_symbol, 1))) {
      Bump(storage.stats_.accepts);
      BumpClass(storage, class_id, metrics::Cell::accepts);
      if (!handlers_.empty()) {
        const Instance view = storage.store_.Materialize(slot);
        for (EventHandler* handler : handlers_) {
          handler->OnAccept(info, view);
        }
      }
    } else {
      ReportViolation(class_id, ViolationKind::kBadCleanup,
                      "instance " + storage.store_.Materialize(slot).Name(cls.automaton) +
                          " had not completed when the bound closed",
                      storage.store_.states(slot));
    }
    storage.store_.Free(slot);
  }
  state.instances.clear();
  state.index.Clear();
  state.unkeyed.clear();
  state.index2.Clear();
  state.tail2.clear();
  state.active = false;
  if (cls.timed) [[unlikely]] {
    // The bound closed: every clause is settled. Armed deadlines cancel
    // lazily (serial bump), rate windows reset.
    ResetTimedCells(state);
  }
}

bool Runtime::EnsureActive(ThreadContext& ctx, uint32_t class_id) {
  const CompiledClass& cls = classes_[class_id];
  return EnsureActive(ctx, cls, ContextFor(ctx, class_id), StateFor(ctx, class_id));
}

bool Runtime::EnsureActive(ThreadContext& ctx, const CompiledClass& cls,
                           ThreadContext& storage, ClassState& state) {
  if (!options_.lazy_init) {
    return state.active;
  }
  const BoundEpoch& epoch_entry = storage.bound_epochs_[cls.bound_slot];
  if (!epoch_entry.open) {
    return false;  // no bound currently open for this class
  }
  const uint64_t current = epoch_entry.epoch;
  if (state.active && state.epoch == current) {
    return true;
  }
  if (!state.active && state.epoch == current) {
    return false;  // already cleaned up within this bound
  }
  // First event for this class within a newly-opened bound: lazy «init».
  ActivateClass(ctx, cls.id);
  if (!state.active) {
    return false;  // pool overflow
  }
  state.epoch = current;
  storage.active_classes_[cls.cleanup_slot].push_back(cls.id);
  return true;
}

// --- timed clauses (within_ms / rate) ---

uint64_t Runtime::NowNs() const {
  if (options_.now_ns) [[unlikely]] {
    return options_.now_ns();
  }
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void Runtime::TimedTick(ThreadContext& storage, uint64_t ts_ns) {
  // Monotonic clamp: a backwards timestamp (stepped clock, cross-producer
  // skew at a shard context) is evaluated at the context's high-water clock,
  // so windows never underflow and deadlines never arm into the past. The
  // regression *count* lives in DispatchEvent — once per event, in the
  // context stage, where it is deterministic; shard contexts see ordinary
  // cross-producer interleaving and clamp silently.
  if (ts_ns < storage.timed_now_) [[unlikely]] {
    ts_ns = storage.timed_now_;
  } else {
    storage.timed_now_ = ts_ns;
  }
  if (storage.wheel_ != nullptr && storage.wheel_->HasExpired(ts_ns)) [[unlikely]] {
    FireExpired(storage, ts_ns);
  }
}

void Runtime::FireExpired(ThreadContext& storage, uint64_t now_ns) {
  // Swap the scratch buffer out of the context: a violation handler may
  // re-enter dispatch (and hence FireExpired) on this same context.
  std::vector<DeadlineWheel::Entry> fired;
  fired.swap(storage.fired_);
  fired.clear();
  storage.wheel_->Advance(now_ns, fired);
  for (const DeadlineWheel::Entry& entry : fired) {
    if (entry.class_id >= storage.classes_.size()) {
      continue;
    }
    ClassState& state = storage.classes_[entry.class_id];
    if (entry.spec >= state.timed.size()) {
      continue;
    }
    TimedCell& cell = state.timed[entry.spec];
    if (!cell.armed || cell.serial != entry.serial ||
        cell.deadline_ns != entry.deadline_ns) {
      continue;  // lazily cancelled: the region completed or the bound closed
    }
    cell.armed = false;
    cell.serial++;
    const CompiledClass& cls = classes_[entry.class_id];
    const automata::TimedSpec& spec = cls.automaton.timed[entry.spec];
    Bump(storage.stats_.deadline_expiries);
    if (metrics::Shard* shard = ProfileShard(storage, entry.class_id)) {
      shard->Add(entry.class_id, metrics::Cell::deadline_expiries);
    }
    // Highlight the states still inside the timed region — where the
    // automaton was stuck when the clock ran out.
    automata::StateSet live = 0;
    for (uint32_t slot : state.instances) {
      live |= storage.store_.states(slot);
    }
    ReportViolation(entry.class_id, ViolationKind::kDeadlineExpired,
                    "within_ms(" + std::to_string(spec.bound_ns / 1000000) +
                        ") deadline expired " + std::to_string(now_ns - entry.deadline_ns) +
                        " ns before the region completed",
                    live & spec.armed_mask);
  }
  fired.clear();
  storage.fired_ = std::move(fired);  // hand the capacity back
}

void Runtime::TimedObserve(ThreadContext& storage, const CompiledClass& cls,
                           ClassState& state, std::span<const uint16_t> symbols,
                           bool stepped) {
  const auto& specs = cls.automaton.timed;
  if (state.timed.size() < specs.size()) [[unlikely]] {
    state.timed.resize(specs.size());
  }
  const uint64_t now = storage.timed_now_;  // clamped by the preceding TimedTick
  // The class-level view: the union of every live instance's states. Timed
  // clauses are properties of the *class* within its bound — per-instance
  // deadlines would false-alarm on the lingering (∗) parent, which never
  // leaves the region it seeds. O(live), paid only by timed classes.
  automata::StateSet occupied = 0;
  for (uint32_t slot : state.instances) {
    occupied |= storage.store_.states(slot);
  }
  for (size_t k = 0; k < specs.size(); k++) {
    const automata::TimedSpec& spec = specs[k];
    TimedCell& cell = state.timed[k];
    if (spec.kind == automata::TimedSpec::kWithin) {
      const bool live = (occupied & spec.armed_mask) != 0;
      if (live && !cell.armed) {
        cell.armed = true;
        cell.serial++;
        cell.deadline_ns = now + spec.bound_ns;
        Bump(storage.stats_.deadline_arms);
        if (metrics::Shard* shard = ProfileShard(storage, cls.id)) {
          shard->Add(cls.id, metrics::Cell::deadline_arms);
        }
        if (storage.wheel_ == nullptr) {
          storage.wheel_ = std::make_unique<DeadlineWheel>(now);
        }
        storage.wheel_->Arm(
            {cell.deadline_ns, cls.id, static_cast<uint32_t>(k), cell.serial});
      } else if (!live && cell.armed) {
        // The region completed (or was bypassed) in time: disarm. The wheel
        // entry cancels lazily — the serial bump makes it stale.
        cell.armed = false;
        cell.serial++;
      }
      // live && armed: a region entered again before fully emptying keeps
      // the original deadline (documented limitation for starred regions).
    } else {  // kRate
      if (!stepped) {
        continue;  // only events the class actually consumed count
      }
      bool counted = false;
      for (uint16_t symbol : symbols) {
        if (std::binary_search(spec.symbols.begin(), spec.symbols.end(), symbol)) {
          counted = true;
          break;
        }
      }
      if (!counted) {
        continue;
      }
      if (cell.window_count == 0) {
        cell.window_start = now;  // the first counted event opens the window
      } else if (now - cell.window_start >= spec.bound_ns) {
        // Tumbling: advance in whole multiples of the window length so a
        // quiet gap cannot stretch a window past its nominal span.
        cell.window_start += spec.bound_ns * ((now - cell.window_start) / spec.bound_ns);
        cell.window_count = 0;
        cell.window_tripped = false;
      }
      cell.window_count++;
      if (cell.window_count > spec.limit && !cell.window_tripped) {
        cell.window_tripped = true;  // one report per window
        Bump(storage.stats_.rate_violations);
        ReportViolation(cls.id, ViolationKind::kRateExceeded,
                        "rate(" + std::to_string(spec.limit) + ", per_ms(" +
                            std::to_string(spec.bound_ns / 1000000) + ")) exceeded: event " +
                            std::to_string(cell.window_count) + " in the window",
                        occupied & spec.armed_mask);
      }
    }
  }
}

void Runtime::ResetTimedCells(ClassState& state) {
  for (TimedCell& cell : state.timed) {
    cell.armed = false;
    cell.serial++;  // lazily cancels any wheel entry still pending
    cell.deadline_ns = 0;
    cell.window_start = 0;
    cell.window_count = 0;
    cell.window_tripped = false;
  }
}

// --- event dispatch ---

void Runtime::HandleEvent(ThreadContext& ctx, const Candidate& candidate,
                          const BindingSet& bindings) {
  const CompiledClass& cls = classes_[candidate.class_id];
  ShardGuard guard(*this, cls.shard, cls.is_global && !ShardHeld(cls.shard));
  HandleEventLocked(ctx, candidate, bindings);
}

void Runtime::HandleEventLocked(ThreadContext& ctx, const Candidate& candidate,
                                const BindingSet& bindings) {
  const CompiledClass& cls = classes_[candidate.class_id];
  ThreadContext& storage = ContextFor(ctx, candidate.class_id);
  if (cls.timed) [[unlikely]] {
    // Expiries precede the arriving event: an event at ts == deadline can
    // still satisfy its region, anything strictly later fires first.
    TimedTick(storage, current_event_ts_);
  }
  if (!EnsureActive(ctx, candidate.class_id)) {
    return;
  }
  const std::span<const uint16_t> symbol(&candidate.symbol, 1);
  const bool stepped = DispatchToInstances(ctx, candidate.class_id, bindings, symbol);
  if (cls.timed) [[unlikely]] {
    TimedObserve(storage, cls, StateFor(ctx, candidate.class_id), symbol, stepped);
  }
  if (stepped) {
    return;
  }
  if (!cls.automaton.strict) {
    Bump(storage.stats_.ignored_events);
    return;
  }
  automata::StateSet live = 0;
  for (uint32_t slot : StateFor(ctx, candidate.class_id).instances) {
    live |= storage.store_.states(slot);
  }
  ReportViolation(candidate.class_id, ViolationKind::kStrictEvent,
                  "event '" + cls.automaton.alphabet[candidate.symbol].ToString() +
                      "' had no valid transition",
                  live);
}

void Runtime::HandleSiteEvent(ThreadContext& ctx, uint32_t class_id,
                              const BindingSet& bindings) {
  // Resolve the class's storage context and state once; everything below —
  // activation check, dispatch, the stuck-automaton report — reuses them.
  const CompiledClass& cls = classes_[class_id];
  ThreadContext& storage = ContextFor(ctx, class_id);
  ClassState& state = StateFor(ctx, class_id);
  if (cls.timed) [[unlikely]] {
    // Expiries strictly before this event's timestamp fire before the site
    // dispatches (see HandleEventLocked).
    TimedTick(storage, current_event_ts_);
  }
  if (!EnsureActive(ctx, cls, storage, state)) {
    Bump(storage.stats_.ignored_events);  // site reached outside its temporal bound
    return;
  }

  // The assertion-site event plus any satisfied incallstack() predicates.
  // Classes with no incallstack() variants (the common shape) dispatch the
  // site symbol straight from the automaton; otherwise the symbol list keeps
  // the common handful of variants inline and grows past that, so no
  // satisfied predicate is ever dropped — RuntimeStats::site_variant_truncations
  // can only be zero now, and is kept solely so ablations and old reports
  // keep their schema.
  SmallVector<uint16_t, 17> symbols;
  std::span<const uint16_t> symbol_span;
  if (cls.site_variants.empty()) [[likely]] {
    if (!cls.automaton.has_site) {
      // The assertion's expression references no site event (e.g. a pure
      // TSEQUENCE or optional() form); the site marker carries no automaton
      // meaning and is ignored.
      Bump(storage.stats_.ignored_events);
      return;
    }
    symbol_span = std::span<const uint16_t>(&cls.automaton.site_symbol, 1);
  } else {
    if (cls.automaton.has_site) {
      symbols.push_back(cls.automaton.site_symbol);
    }
    for (uint16_t variant : cls.site_variants) {
      if (ctx.InCallStack(cls.automaton.alphabet[variant].function)) {
        symbols.push_back(variant);
      }
    }
    if (symbols.empty()) {
      // incallstack()-only site, with no predicate satisfied: the site could
      // not be consumed.
      ReportViolation(class_id, ViolationKind::kBadSite,
                      "assertion site with no satisfiable site event");
      return;
    }
    symbol_span = std::span<const uint16_t>(symbols.data(), symbols.size());
  }

  bool stepped = DispatchToInstances(storage, cls, state, bindings, symbol_span);
  if (cls.timed) [[unlikely]] {
    TimedObserve(storage, cls, state, symbol_span, stepped);
  }
  if (!stepped) {
    // Paper §4.4.1 "Error": reaching the site with no instance able to
    // consume it (e.g. the (vp3) case) is a violation. The union of live
    // instance states tells forensics where the automaton got stuck.
    automata::StateSet live = 0;
    for (uint32_t slot : state.instances) {
      live |= storage.store_.states(slot);
    }
    ReportViolation(class_id, ViolationKind::kBadSite,
                    "no instance could accept the assertion site", live);
  }
}

namespace {

// The set of variables an event's bindings name, as a bit mask. Pattern
// variables are bounded by kMaxVariables at Register() time and site
// variables are range-checked in ProcessSiteEvent, so shifts are safe.
uint32_t BindingsVarMask(const Binding* entries, size_t count) {
  uint32_t mask = 0;
  for (size_t i = 0; i < count; i++) {
    mask |= 1u << entries[i].var;
  }
  return mask;
}

}  // namespace

bool Runtime::DispatchToInstances(ThreadContext& ctx, uint32_t class_id,
                                  const BindingSet& bindings,
                                  std::span<const uint16_t> symbols) {
  const CompiledClass& cls = classes_[class_id];
  return DispatchToInstances(ContextFor(ctx, class_id), cls, StateFor(ctx, class_id), bindings,
                             symbols);
}

bool Runtime::DispatchToInstances(ThreadContext& storage, const CompiledClass& cls,
                                  ClassState& state, const BindingSet& bindings,
                                  std::span<const uint16_t> symbols) {
  const uint32_t class_id = cls.id;
  // Route decision, made once: the cell naming the route is what
  // RecordDispatch stores (Cell::dispatches = plain scan, nothing to
  // attribute).
  metrics::Cell route = metrics::Cell::dispatches;
  if (options_.instance_index && cls.key_mask != 0) {
    if (state.instances.size() < cls.min_population) {
      // Below the crossover population, hashing the key tuple costs more
      // than walking the handful of live instances (BENCH_instances.json);
      // fall through to the scan. The index stays coherent — IndexInstance
      // still files every clone — so the probe path is valid again the
      // moment the population grows past the threshold. Per-class since
      // plan hints can override the knob (min_population=0 probes always).
      Bump(storage.stats_.index_scans);
      route = metrics::Cell::small_population;
    } else {
      const uint32_t bound = BindingsVarMask(bindings.entries, bindings.count);
      if (bound == cls.key_mask) {
        Bump(storage.stats_.index_probes);
        route = metrics::Cell::index_probes;
      } else if (cls.prefix_pos != CompiledClass::kNoPrefix &&
                 ((bound >> cls.prefix_var) & 1) != 0) {
        // Partially bound, but the profile-hinted prefix variable is bound:
        // the secondary index narrows the walk to one prefix bucket plus
        // the short prefix-unbound tail.
        Bump(storage.stats_.index_probes);
        route = metrics::Cell::prefix_probes;
      } else {
        // An event binding a strict subset (or superset) of the key
        // variables cannot be answered by one bucket; fall back to the
        // scan. The index stays coherent because clone insertion goes
        // through IndexInstance.
        Bump(storage.stats_.index_scans);
        route = metrics::Cell::partial_bound;
      }
    }
  }
  auto run = [&]() {
    if (route == metrics::Cell::index_probes) {
      return DispatchIndexed(storage, cls, state, bindings, symbols);
    }
    if (route == metrics::Cell::prefix_probes) {
      return DispatchPrefix(storage, cls, state, bindings, symbols);
    }
    return DispatchScan(storage, cls, state, bindings, symbols);
  };
  metrics::Shard* shard = storage.obs_;
  if (shard == nullptr) {
    return run();
  }
  RecordDispatch(*shard, cls, state, bindings, route);
  // 1-in-64 sampled dispatch latency (profiling only): two clock reads
  // amortised to well under a nanosecond per event, keeping the profiler
  // inside its ≤5 ns/event budget (BENCH_profile.json gates it).
  if (!shard->profiling() || class_id >= shard->class_capacity() ||
      (shard->NextTick() & 63) != 0) [[likely]] {
    return run();
  }
  const uint64_t start = NowNs();
  const bool stepped = run();
  const int64_t ns = static_cast<int64_t>(NowNs()) - static_cast<int64_t>(start);
  if (ns < 0) {
    // Same clock-skew accounting as the kFull dispatch bracket above: the
    // sample still lands in bucket 0 (dropping it would skew sample
    // counts), but the stepped clock is counted instead of silently
    // clamped — a depressed sampled p50 must be traceable to the clock.
    Bump(storage.stats_.negative_latencies);
  }
  shard->Add(class_id, metrics::Cell::latency_ns, ns > 0 ? static_cast<uint64_t>(ns) : 0);
  shard->Add(class_id, metrics::Cell::latency_samples);
  return stepped;
}

// Fast path: the event binds exactly the class's key variables, so the
// exact-match set of the naive pass-1 is precisely one index bucket, and —
// when that bucket is empty — every possible clone parent of pass-2 sits in
// the unkeyed tail (a fully-keyed instance consistent with the bindings
// would carry the probed tuple and hence be in the bucket). An event
// touching one socket therefore steps O(1) instances no matter how many
// other sockets are live.
bool Runtime::DispatchIndexed(ThreadContext& storage, const CompiledClass& cls,
                              ClassState& state, const BindingSet& bindings,
                              std::span<const uint16_t> symbols) {
  int64_t key[kMaxVariables];
  for (uint8_t i = 0; i < cls.key_count; i++) {
    for (size_t b = 0; b < bindings.count; b++) {
      if (bindings.entries[b].var == cls.key_vars[i]) {
        key[i] = bindings.entries[b].value;
        break;
      }
    }
  }
  const uint64_t hash = HashKeyTuple(key, cls.key_count);
  auto key_equals = [&](uint32_t slot) {
    const auto& values = storage.store_.values(slot);
    for (uint8_t i = 0; i < cls.key_count; i++) {
      if (values[cls.key_vars[i]] != key[i]) {
        return false;
      }
    }
    return true;
  };

  // Pass 1 (exact matches) = the probed bucket.
  uint32_t head = state.index.Find(hash, key_equals);
  if (head != kNoSlot) {
    bool any_step = false;
    for (uint32_t slot = head; slot != kNoSlot; slot = storage.store_.next(slot)) {
      if (StepSlot(cls, storage, slot, symbols)) {
        any_step = true;
      }
    }
    return any_step;
  }

  // Pass 2 (paper §4.4.1 "Clone"): parents come from the unkeyed tail only.
  // Clones bind every key variable, so they land in the probed bucket — the
  // tail never grows while we walk it, and intra-event deduplication is a
  // walk of the bucket's fresh chain.
  bool any_step = false;
  ClassInfo info{cls.id, &cls.automaton};
  const size_t unkeyed_count = state.unkeyed.size();
  uint32_t new_head = kNoSlot;
  for (size_t i = 0; i < unkeyed_count; i++) {
    const uint32_t parent = state.unkeyed[i];
    if (!storage.store_.ConsistentWith(parent, bindings.entries, bindings.count)) {
      continue;
    }
    Instance candidate = storage.store_.Materialize(parent);
    for (size_t b = 0; b < bindings.count; b++) {
      candidate.Bind(bindings.entries[b].var, bindings.entries[b].value);
    }
    bool duplicate = false;
    for (uint32_t s = new_head; s != kNoSlot; s = storage.store_.next(s)) {
      if (storage.store_.bound_mask(s) == candidate.bound_mask &&
          storage.store_.values(s) == candidate.values) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      continue;
    }
    if (!StepInstance(cls, storage, candidate, symbols)) {
      continue;  // the clone could not consume the event; discard it
    }
    uint32_t slot = storage.store_.Allocate();
    if (slot == kNoSlot) {
      Bump(storage.stats_.overflows);
      ReportViolation(cls.id, ViolationKind::kOverflow, "no space to clone instance");
      continue;
    }
    storage.store_.Assign(slot, candidate);
    state.instances.push_back(slot);
    storage.store_.next(slot) = state.index.InsertHead(hash, key_equals, slot);
    if (cls.prefix_pos != CompiledClass::kNoPrefix) {
      // The clone binds every key variable, the prefix included: file it in
      // the secondary index too (this path bypasses IndexInstance).
      IndexSecondary(storage, cls, state, slot);
    }
    new_head = slot;
    any_step = true;
    Bump(storage.stats_.instances_cloned);
    BumpClass(storage, cls.id, metrics::Cell::instances_cloned);
    if (!handlers_.empty()) {
      const Instance parent_view = storage.store_.Materialize(parent);
      for (EventHandler* handler : handlers_) {
        handler->OnClone(info, parent_view, candidate);
      }
    }
  }
  return any_step;
}

// Naive scan (the seed's algorithm, now over SoA slots): used when the index
// is disabled, the class binds no variables, or the event's bindings do not
// cover the key tuple. Keeps the index coherent for later fast-path events.
bool Runtime::DispatchScan(ThreadContext& storage, const CompiledClass& cls, ClassState& state,
                           const BindingSet& bindings, std::span<const uint16_t> symbols) {
  if (bindings.count == 0 && handlers_.empty()) {
    // An unbound event (the common assertion-site shape) exact-matches every
    // live instance, so pass 1 degenerates to stepping the whole population
    // and pass 2 never runs (any instance at all is an exact match). With no
    // handlers subscribed the walk is one batch kernel call — the per-slot
    // match/step/bump round trip is replaced by the kernel's own slot loop
    // and a single aggregated transition count.
    if (state.instances.empty()) {
      return false;
    }
    const uint32_t stepped =
        cls.step.RunBatch(counters_, storage.store_.hot_data(), state.instances.data(),
                          state.instances.size(), symbols);
    if (stepped != 0) {
      Bump(storage.stats_.transitions, stepped);
      BumpClass(storage, cls.id, metrics::Cell::transitions, stepped);
    }
    return stepped != 0;
  }

  // Pass 1: instances already bound to exactly these values.
  bool any_exact = false;
  bool any_step = false;
  for (uint32_t slot : state.instances) {
    if (!storage.store_.ExactMatch(slot, bindings.entries, bindings.count)) {
      continue;
    }
    any_exact = true;
    if (StepSlot(cls, storage, slot, symbols)) {
      any_step = true;
    }
  }
  if (any_exact) {
    return any_step;
  }

  // Pass 2: clone consistent instances, binding the event's new values
  // (paper §4.4.1 "Clone"). The parent — typically (∗) — is retained.
  ClassInfo info{cls.id, &cls.automaton};
  size_t existing = state.instances.size();
  for (size_t i = 0; i < existing; i++) {
    const uint32_t parent = state.instances[i];
    if (!storage.store_.ConsistentWith(parent, bindings.entries, bindings.count)) {
      continue;
    }
    Instance candidate = storage.store_.Materialize(parent);
    for (size_t b = 0; b < bindings.count; b++) {
      candidate.Bind(bindings.entries[b].var, bindings.entries[b].value);
    }
    // Deduplicate against instances created earlier in this event.
    bool duplicate = false;
    for (size_t j = existing; j < state.instances.size(); j++) {
      const uint32_t other = state.instances[j];
      if (storage.store_.bound_mask(other) == candidate.bound_mask &&
          storage.store_.values(other) == candidate.values) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      continue;
    }
    if (!StepInstance(cls, storage, candidate, symbols)) {
      continue;  // the clone could not consume the event; discard it
    }
    uint32_t slot = storage.store_.Allocate();
    if (slot == kNoSlot) {
      Bump(storage.stats_.overflows);
      ReportViolation(cls.id, ViolationKind::kOverflow, "no space to clone instance");
      continue;
    }
    storage.store_.Assign(slot, candidate);
    state.instances.push_back(slot);
    IndexInstance(storage, cls, state, slot);
    any_step = true;
    Bump(storage.stats_.instances_cloned);
    BumpClass(storage, cls.id, metrics::Cell::instances_cloned);
    if (!handlers_.empty()) {
      const Instance parent_view = storage.store_.Materialize(parent);
      for (EventHandler* handler : handlers_) {
        handler->OnClone(info, parent_view, candidate);
      }
    }
  }
  return any_step;
}

void Runtime::IndexInstance(ThreadContext& storage, const CompiledClass& cls,
                            ClassState& state, uint32_t slot) {
  if (!options_.instance_index || cls.key_mask == 0) {
    return;  // classes without key variables use the flat list only
  }
  if ((storage.store_.bound_mask(slot) & cls.key_mask) != cls.key_mask) {
    state.unkeyed.push_back(slot);  // wildcard / partially bound: linear tail
  } else {
    int64_t key[kMaxVariables];
    const auto& values = storage.store_.values(slot);
    for (uint8_t i = 0; i < cls.key_count; i++) {
      key[i] = values[cls.key_vars[i]];
    }
    auto key_equals = [&](uint32_t other) {
      const auto& other_values = storage.store_.values(other);
      for (uint8_t i = 0; i < cls.key_count; i++) {
        if (other_values[cls.key_vars[i]] != key[i]) {
          return false;
        }
      }
      return true;
    };
    storage.store_.next(slot) =
        state.index.InsertHead(HashKeyTuple(key, cls.key_count), key_equals, slot);
  }
  if (cls.prefix_pos != CompiledClass::kNoPrefix) {
    IndexSecondary(storage, cls, state, slot);
  }
}

void Runtime::IndexSecondary(ThreadContext& storage, const CompiledClass& cls,
                             ClassState& state, uint32_t slot) {
  if (!storage.store_.IsBound(slot, cls.prefix_var)) {
    state.tail2.push_back(slot);  // prefix unbound: the (∗)-side tail
    return;
  }
  const int64_t value = storage.store_.values(slot)[cls.prefix_var];
  auto prefix_equals = [&](uint32_t other) {
    return storage.store_.values(other)[cls.prefix_var] == value;
  };
  storage.store_.next2(slot) =
      state.index2.InsertHead(HashKeyTuple(&value, 1), prefix_equals, slot);
}

// Partially-bound fast path over the profile-hinted secondary prefix index.
// Semantically a DispatchScan: pass 1's exact matches all carry the prefix
// binding, so they sit in the probed prefix bucket; pass 2's clone parents
// are consistent instances — prefix bound to the probed value (the bucket)
// or prefix unbound (tail2). Clones bind the prefix, so they land in the
// bucket (insertion at the head cannot disturb the forward walk) and never
// in tail2.
bool Runtime::DispatchPrefix(ThreadContext& storage, const CompiledClass& cls,
                             ClassState& state, const BindingSet& bindings,
                             std::span<const uint16_t> symbols) {
  int64_t prefix_value = 0;
  for (size_t b = 0; b < bindings.count; b++) {
    if (bindings.entries[b].var == cls.prefix_var) {
      prefix_value = bindings.entries[b].value;
      break;
    }
  }
  auto prefix_equals = [&](uint32_t slot) {
    return storage.store_.values(slot)[cls.prefix_var] == prefix_value;
  };
  const uint32_t head = state.index2.Find(HashKeyTuple(&prefix_value, 1), prefix_equals);

  // Pass 1: exact matches live in the prefix bucket only.
  bool any_exact = false;
  bool any_step = false;
  for (uint32_t slot = head; slot != kNoSlot; slot = storage.store_.next2(slot)) {
    if (!storage.store_.ExactMatch(slot, bindings.entries, bindings.count)) {
      continue;
    }
    any_exact = true;
    if (StepSlot(cls, storage, slot, symbols)) {
      any_step = true;
    }
  }
  if (any_exact) {
    return any_step;
  }

  // Pass 2 (paper §4.4.1 "Clone"): parents from the bucket and tail2,
  // deduplicated against the clones this event already created (they are
  // appended to `instances`, same as the scan path).
  ClassInfo info{cls.id, &cls.automaton};
  const size_t existing = state.instances.size();
  auto try_clone = [&](uint32_t parent) {
    if (!storage.store_.ConsistentWith(parent, bindings.entries, bindings.count)) {
      return;
    }
    Instance candidate = storage.store_.Materialize(parent);
    for (size_t b = 0; b < bindings.count; b++) {
      candidate.Bind(bindings.entries[b].var, bindings.entries[b].value);
    }
    for (size_t j = existing; j < state.instances.size(); j++) {
      const uint32_t other = state.instances[j];
      if (storage.store_.bound_mask(other) == candidate.bound_mask &&
          storage.store_.values(other) == candidate.values) {
        return;  // duplicate of a clone created earlier in this event
      }
    }
    if (!StepInstance(cls, storage, candidate, symbols)) {
      return;  // the clone could not consume the event; discard it
    }
    uint32_t slot = storage.store_.Allocate();
    if (slot == kNoSlot) {
      Bump(storage.stats_.overflows);
      ReportViolation(cls.id, ViolationKind::kOverflow, "no space to clone instance");
      return;
    }
    storage.store_.Assign(slot, candidate);
    state.instances.push_back(slot);
    IndexInstance(storage, cls, state, slot);
    any_step = true;
    Bump(storage.stats_.instances_cloned);
    BumpClass(storage, cls.id, metrics::Cell::instances_cloned);
    if (!handlers_.empty()) {
      const Instance parent_view = storage.store_.Materialize(parent);
      for (EventHandler* handler : handlers_) {
        handler->OnClone(info, parent_view, candidate);
      }
    }
  };
  for (uint32_t slot = head; slot != kNoSlot; slot = storage.store_.next2(slot)) {
    try_clone(slot);
  }
  const size_t tail_count = state.tail2.size();
  for (size_t i = 0; i < tail_count; i++) {
    try_clone(state.tail2[i]);
  }
  return any_step;
}

bool Runtime::StepSlot(const CompiledClass& cls, ThreadContext& storage, uint32_t slot,
                       std::span<const uint16_t> symbols) {
  automata::StateSet from = 0;
  uint16_t symbol = 0;
  if (!StepCore(cls, storage.store_.states(slot), storage.store_.dfa_state(slot), symbols,
                &from, &symbol)) {
    return false;
  }
  Bump(storage.stats_.transitions);
  BumpClass(storage, cls.id, metrics::Cell::transitions);
  if (!handlers_.empty()) {
    ClassInfo info{cls.id, &cls.automaton};
    const Instance view = storage.store_.Materialize(slot);
    for (EventHandler* handler : handlers_) {
      handler->OnTransition(info, view, from, symbol, view.states);
    }
  }
  return true;
}

bool Runtime::StepInstance(const CompiledClass& cls, ThreadContext& storage,
                           Instance& instance, std::span<const uint16_t> symbols) {
  automata::StateSet from = 0;
  uint16_t symbol = 0;
  if (!StepCore(cls, instance.states, instance.dfa_state, symbols, &from, &symbol)) {
    return false;
  }
  Bump(storage.stats_.transitions);
  BumpClass(storage, cls.id, metrics::Cell::transitions);
  if (!handlers_.empty()) {
    ClassInfo info{cls.id, &cls.automaton};
    for (EventHandler* handler : handlers_) {
      handler->OnTransition(info, instance, from, symbol, instance.states);
    }
  }
  return true;
}

// --- matching ---

bool Runtime::MatchFunctionPattern(const automata::EventPattern& pattern,
                                   std::span<const int64_t> args, bool have_return,
                                   int64_t return_value, BindingSet* bindings) const {
  if (pattern.args_specified) {
    if (pattern.args.size() > args.size()) {
      return false;
    }
    for (size_t i = 0; i < pattern.args.size(); i++) {
      if (!MatchArg(pattern.args[i], args[i], bindings)) {
        return false;
      }
    }
  }
  if (pattern.match_return) {
    if (!have_return) {
      return false;
    }
    if (!MatchArg(pattern.return_match, return_value, bindings)) {
      return false;
    }
  }
  return true;
}

bool Runtime::MatchArg(const automata::ArgMatch& match, int64_t value,
                       BindingSet* bindings) const {
  switch (match.kind) {
    case automata::ArgMatchKind::kAny:
      return true;
    case automata::ArgMatchKind::kLiteral:
      return value == match.literal;
    case automata::ArgMatchKind::kFlags:
      return (static_cast<uint64_t>(value) & match.mask) == match.mask;
    case automata::ArgMatchKind::kBitmask:
      return (static_cast<uint64_t>(value) & ~match.mask) == 0;
    case automata::ArgMatchKind::kVariable:
      return bindings->count < kMaxVariables && bindings->Add(match.var, value);
    case automata::ArgMatchKind::kIndirect: {
      if (!options_.memory_reader) {
        return false;
      }
      int64_t pointee = 0;
      if (!options_.memory_reader(value, &pointee)) {
        return false;
      }
      return bindings->count < kMaxVariables && bindings->Add(match.var, pointee);
    }
  }
  return false;
}

void Runtime::ReportViolation(uint32_t class_id, ViolationKind kind, const std::string& detail,
                              automata::StateSet highlight) {
  BumpShared(stats_.violations);
  if (counters_ != nullptr) {
    // No storage context is in scope here; the lock-guarded spill table is
    // fine for a path that already formats strings.
    counters_->Spill(class_id, metrics::Cell::violations);
  }
  Violation violation;
  violation.kind = kind;
  violation.automaton = classes_[class_id].automaton.name;
  violation.detail = detail;
  if (recorder_ != nullptr) {
    violation.backtrace = BuildForensics(class_id, highlight);
    LockGuard<Spinlock> guard(violation_log_lock_);
    violation_log_.emplace_back(kind, violation.automaton);
  }

  ClassInfo info{class_id, &classes_[class_id].automaton};
  for (EventHandler* handler : handlers_) {
    handler->OnViolation(info, violation);
  }
  TESLA_LOG(kError) << "TESLA violation in '" << violation.automaton
                    << "': " << ViolationKindName(kind) << " — " << detail;
  if (options_.fail_stop) {
    std::fprintf(stderr, "tesla: fail-stop on violation in '%s': %s (%s)\n",
                 violation.automaton.c_str(), ViolationKindName(kind), detail.c_str());
    if (!violation.backtrace.empty()) {
      std::fprintf(stderr, "%s", violation.backtrace.c_str());
    }
    std::abort();
  }
}

std::string Runtime::BuildForensics(uint32_t class_id, automata::StateSet highlight) const {
  const CompiledClass& cls = classes_[class_id];
  const trace::Snapshot snapshot = recorder_->Harvest();
  std::string report =
      trace::RenderBacktrace(snapshot, cls.automaton, class_id, cls.trace_symbols,
                             options_.trace_backtrace_events, trace::InternerResolver());
  report += "automaton state at the violation (DOT; live states highlighted):\n";
  report += automata::ToDot(cls.automaton, cls.dfa, nullptr, highlight);
  return report;
}

// --- StderrHandler ---

void StderrHandler::OnInstanceNew(const ClassInfo& cls, const Instance& instance) {
  std::fprintf(stderr, "tesla: [%s] new instance %s\n", cls.automaton->name.c_str(),
               instance.Name(*cls.automaton).c_str());
}

void StderrHandler::OnClone(const ClassInfo& cls, const Instance& parent,
                            const Instance& clone) {
  std::fprintf(stderr, "tesla: [%s] clone %s -> %s\n", cls.automaton->name.c_str(),
               parent.Name(*cls.automaton).c_str(), clone.Name(*cls.automaton).c_str());
}

void StderrHandler::OnTransition(const ClassInfo& cls, const Instance& instance,
                                 automata::StateSet from, uint16_t symbol,
                                 automata::StateSet to) {
  std::fprintf(stderr, "tesla: [%s] %s: 0x%llx --%s--> 0x%llx\n", cls.automaton->name.c_str(),
               instance.Name(*cls.automaton).c_str(), static_cast<unsigned long long>(from),
               cls.automaton->alphabet[symbol].ToString().c_str(),
               static_cast<unsigned long long>(to));
}

void StderrHandler::OnAccept(const ClassInfo& cls, const Instance& instance) {
  std::fprintf(stderr, "tesla: [%s] accept %s\n", cls.automaton->name.c_str(),
               instance.Name(*cls.automaton).c_str());
}

void StderrHandler::OnViolation(const ClassInfo& cls, const Violation& violation) {
  std::fprintf(stderr, "tesla: [%s] VIOLATION: %s — %s\n", violation.automaton.c_str(),
               ViolationKindName(violation.kind), violation.detail.c_str());
  if (!violation.backtrace.empty()) {
    std::fprintf(stderr, "%s", violation.backtrace.c_str());
  }
}

void StderrHandler::OnWarning(const ClassInfo& cls, const std::string& message) {
  std::fprintf(stderr, "tesla: [%s] warning: %s\n", cls.automaton->name.c_str(),
               message.c_str());
}

}  // namespace tesla::runtime
