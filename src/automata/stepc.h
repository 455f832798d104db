// Step-function lowering: the per-class tables the compiled stepping tiers
// consume (see runtime/step.h for the tiers themselves).
//
// An automaton is frozen once its class registers — Finalize() and
// Determinize() have run and neither the alphabet nor the transition relation
// can change. That makes the step function (symbol test → transition →
// successor set) a pure function of static tables, so we lower it once per
// class instead of re-walking edge vectors per event:
//
//   * `rows`        — the DFA transition table flattened to one load per
//                     (state, symbol); Dfa::kNoTarget marks invalid cells.
//   * `dfa_sets`    — each DFA state's NFA state-set, so a DFA-stepped
//                     instance can keep its NFA view bit-identical to the
//                     simulated one (subset construction guarantees
//                     NfaStep(dfa_sets[d], s) == dfa_sets[Dfa::Step(d, s)]).
//   * `sources`/`targets` — the NFA step as mask-and-union tables: successor
//                     of `set` on `s` is the union of targets[s][i] over the
//                     bits i of (set & sources[s]).
//
// `single_symbol_steps` records the key shape fact: a class with no
// incallstack() patterns is only ever stepped on one symbol at a time (site
// variants are the sole multi-symbol dispatch), so the DFA state alone
// determines the NFA set and the class can be stepped by table lookup.
#ifndef TESLA_AUTOMATA_STEPC_H_
#define TESLA_AUTOMATA_STEPC_H_

#include <cstdint>
#include <vector>

#include "automata/automaton.h"
#include "automata/determinize.h"

namespace tesla::automata {

struct StepLowering {
  uint32_t nfa_state_count = 0;
  uint32_t dfa_state_count = 0;
  uint32_t symbol_count = 0;
  // No incallstack() pattern in the alphabet: every step is single-symbol,
  // so DFA tracking is exact (see header comment).
  bool single_symbol_steps = false;

  // dfa_state_count × symbol_count; Dfa::kNoTarget for invalid cells.
  std::vector<uint32_t> rows;
  // Per DFA state, its NFA state-set.
  std::vector<StateSet> dfa_sets;
  // Per symbol, the NFA states with an out-edge on it.
  std::vector<StateSet> sources;
  // symbol_count × nfa_state_count: targets[s * nfa_state_count + i] is the
  // successor set of NFA state i on symbol s (0 when no edge).
  std::vector<StateSet> targets;

  uint32_t Row(uint32_t dfa_state, uint16_t symbol) const {
    return rows[static_cast<size_t>(dfa_state) * symbol_count + symbol];
  }
};

// Lowers `automaton` (finalized) and its determinisation into step tables.
StepLowering LowerStep(const Automaton& automaton, const Dfa& dfa);

}  // namespace tesla::automata

#endif  // TESLA_AUTOMATA_STEPC_H_
