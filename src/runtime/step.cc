#include "runtime/step.h"

#include <bit>
#include <utility>

#include "runtime/coverage.h"

namespace tesla::runtime {
namespace {

using automata::StateSet;

constexpr uint32_t kNoTarget = automata::Dfa::kNoTarget;

// Shared DFA-step commit: record the pre-step view, stamp (compile-time
// gated), advance the tracked DFA state and its NFA set.
template <bool kCov>
inline void CommitDfaStep(const StepProgram& p, metrics::Collector* collector,
                          StateSet& states, uint32_t& dfa_state, uint16_t symbol,
                          uint32_t target, StateSet* from_out, uint16_t* symbol_out) {
  *from_out = states;
  *symbol_out = symbol;
  if constexpr (kCov) {
    StampTransition(collector, p.cov_first, p.symbol_count, dfa_state, symbol);
  }
  dfa_state = target;
  states = p.dfa_sets[target];
}

// Shared NFA-step commit: the mirrored dfa_flat stamp (see coverage.h). A
// multi-symbol union with no single-symbol DFA edge leaves the mirror alone
// and stamps nothing — undercount, never misattribute.
template <bool kCov>
inline void CommitNfaStep(const StepProgram& p, metrics::Collector* collector,
                          StateSet& states, uint32_t& dfa_state, uint16_t stepped,
                          StateSet next, StateSet* from_out, uint16_t* symbol_out) {
  *from_out = states;
  *symbol_out = stepped;
  states = next;
  if constexpr (kCov) {
    const uint32_t target = p.rows[static_cast<size_t>(dfa_state) * p.symbol_count + stepped];
    if (target != kNoTarget) {
      StampTransition(collector, p.cov_first, p.symbol_count, dfa_state, stepped);
      dfa_state = target;
    }
  }
}

// --- interpreted tier: the seed's walk, verbatim ---

template <bool kUseDfa>
bool StepInterpreted(const StepProgram& p, metrics::Collector* collector, StateSet& states,
                     uint32_t& dfa_state, const uint16_t* symbols, size_t n,
                     StateSet* from_out, uint16_t* symbol_out) {
  if constexpr (kUseDfa) {
    for (size_t i = 0; i < n; i++) {
      const uint16_t symbol = symbols[i];
      const uint32_t target = p.dfa->Step(dfa_state, symbol);
      if (target == kNoTarget) {
        continue;
      }
      *from_out = states;
      *symbol_out = symbol;
      if (collector != nullptr) {
        StampTransition(collector, p.cov_first, p.symbol_count, dfa_state, symbol);
      }
      dfa_state = target;
      states = p.dfa->states[target].nfa_states;
      return true;
    }
    return false;
  } else {
    StateSet next = 0;
    uint16_t stepped = n == 0 ? 0 : symbols[0];
    for (size_t i = 0; i < n; i++) {
      const StateSet result = p.automaton->Step(states, symbols[i]);
      if (result != 0 && next == 0) {
        stepped = symbols[i];
      }
      next |= result;
    }
    if (next == 0) {
      return false;
    }
    *from_out = states;
    *symbol_out = stepped;
    states = next;
    if (collector != nullptr) {
      const uint32_t target =
          p.rows[static_cast<size_t>(dfa_state) * p.symbol_count + stepped];
      if (target != kNoTarget) {
        StampTransition(collector, p.cov_first, p.symbol_count, dfa_state, stepped);
        dfa_state = target;
      }
    }
    return true;
  }
}

// --- specialised tier ---

// DFA-trackable classes (and the use_dfa ablation): one row load per symbol.
template <bool kCov>
bool StepDfaRow(const StepProgram& p, metrics::Collector* collector, StateSet& states,
                uint32_t& dfa_state, const uint16_t* symbols, size_t n, StateSet* from_out,
                uint16_t* symbol_out) {
  const uint32_t* rows = p.rows.data();
  for (size_t i = 0; i < n; i++) {
    const uint16_t symbol = symbols[i];
    const uint32_t target = rows[static_cast<size_t>(dfa_state) * p.symbol_count + symbol];
    if (target == kNoTarget) {
      continue;
    }
    CommitDfaStep<kCov>(p, collector, states, dfa_state, symbol, target, from_out,
                        symbol_out);
    return true;
  }
  return false;
}

// Small DFA-trackable classes: the symbol's whole transition row is one u64
// (a byte per DFA state), so the "table" is a register and the step is a
// load, a shift and a compare — no row indexing at all.
template <bool kCov>
bool StepDfaPacked(const StepProgram& p, metrics::Collector* collector, StateSet& states,
                   uint32_t& dfa_state, const uint16_t* symbols, size_t n,
                   StateSet* from_out, uint16_t* symbol_out) {
  const uint64_t* packed = p.packed.data();
  for (size_t i = 0; i < n; i++) {
    const uint16_t symbol = symbols[i];
    const uint32_t target =
        static_cast<uint32_t>((packed[symbol] >> (dfa_state * 8)) & 0xff);
    if (target == kStepPackedMiss) {
      continue;
    }
    CommitDfaStep<kCov>(p, collector, states, dfa_state, symbol, target, from_out,
                        symbol_out);
    return true;
  }
  return false;
}

// incallstack() classes: exact NFA semantics from flat mask/target tables —
// no per-state edge vectors to chase.
template <bool kCov>
bool StepNfaMask(const StepProgram& p, metrics::Collector* collector, StateSet& states,
                 uint32_t& dfa_state, const uint16_t* symbols, size_t n, StateSet* from_out,
                 uint16_t* symbol_out) {
  StateSet next = 0;
  uint16_t stepped = n == 0 ? 0 : symbols[0];
  for (size_t i = 0; i < n; i++) {
    const uint16_t symbol = symbols[i];
    StateSet rest = states & p.nfa_sources[symbol];
    if (rest == 0) {
      continue;
    }
    const StateSet* targets =
        p.nfa_targets.data() + static_cast<size_t>(symbol) * p.nfa_state_count;
    StateSet result = 0;
    do {
      result |= targets[std::countr_zero(rest)];
      rest &= rest - 1;
    } while (rest != 0);
    if (result != 0 && next == 0) {
      stepped = symbol;
    }
    next |= result;
  }
  if (next == 0) {
    return false;
  }
  CommitNfaStep<kCov>(p, collector, states, dfa_state, stepped, next, from_out, symbol_out);
  return true;
}

// The batch entry point for one kernel: the per-step function is a non-type
// template parameter, so each family's batch is the kernel inlined into a
// tight slot loop — its tables are hoisted into registers and the per-slot
// cost is the step itself, not a dispatch round trip. Used by the unbound
// fast path of Runtime::DispatchScan, which discards the out-params.
template <StepFn kFn>
uint32_t StepBatch(const StepProgram& p, metrics::Collector* collector, InstanceHot* hot,
                   const uint32_t* slots, size_t slot_count, const uint16_t* symbols,
                   size_t symbol_count) {
  uint32_t stepped = 0;
  StateSet from = 0;
  uint16_t symbol = 0;
  for (size_t i = 0; i < slot_count; i++) {
    InstanceHot& h = hot[slots[i]];
    if (kFn(p, collector, h.states, h.dfa_state, symbols, symbol_count, &from, &symbol)) {
      stepped++;
    }
  }
  return stepped;
}

// Installs a kernel and its batch twin together, so no tier can end up with
// a mismatched pair.
template <StepFn kFn>
void SetKernel(StepProgram& p) {
  p.fn = kFn;
  p.batch = &StepBatch<kFn>;
}

// --- compilation ---

void BuildPacked(StepProgram& p) {
  p.packed.assign(p.symbol_count, ~uint64_t{0});
  for (uint32_t symbol = 0; symbol < p.symbol_count; symbol++) {
    for (uint32_t state = 0; state < p.dfa_state_count; state++) {
      const uint32_t target = p.rows[static_cast<size_t>(state) * p.symbol_count + symbol];
      if (target == kNoTarget) {
        continue;
      }
      p.packed[symbol] &= ~(uint64_t{0xff} << (state * 8));
      p.packed[symbol] |= uint64_t{target} << (state * 8);
    }
  }
}

}  // namespace

StepProgram CompileStepProgram(const automata::Automaton& automaton, const automata::Dfa& dfa,
                               automata::StepLowering lowering,
                               const StepCompileOptions& options) {
  StepProgram p;
  p.tier = options.tier;
  p.use_dfa = options.use_dfa;
  p.dfa_track = lowering.single_symbol_steps;
  p.automaton = &automaton;
  p.dfa = &dfa;
  p.dfa_state_count = lowering.dfa_state_count;
  p.symbol_count = lowering.symbol_count;
  p.nfa_state_count = lowering.nfa_state_count;
  p.cov_first = options.cov_first;
  p.rows = std::move(lowering.rows);
  p.dfa_sets = std::move(lowering.dfa_sets);
  p.nfa_sources = std::move(lowering.sources);
  p.nfa_targets = std::move(lowering.targets);

  const bool dfa_semantics = options.use_dfa || p.dfa_track;
  switch (options.tier) {
    case StepTier::kInterpreted:
      if (options.use_dfa) {
        SetKernel<&StepInterpreted<true>>(p);
      } else {
        SetKernel<&StepInterpreted<false>>(p);
      }
      break;
    case StepTier::kSpecialised:
      if (dfa_semantics) {
        if (p.dfa_state_count <= 8 && p.symbol_count <= 64) {
          BuildPacked(p);
          if (options.coverage) {
            SetKernel<&StepDfaPacked<true>>(p);
          } else {
            SetKernel<&StepDfaPacked<false>>(p);
          }
        } else if (options.coverage) {
          SetKernel<&StepDfaRow<true>>(p);
        } else {
          SetKernel<&StepDfaRow<false>>(p);
        }
      } else if (options.coverage) {
        SetKernel<&StepNfaMask<true>>(p);
      } else {
        SetKernel<&StepNfaMask<false>>(p);
      }
      break;
  }
  return p;
}

}  // namespace tesla::runtime
