// Step-kernel emission: renders a lowered step function (automata/stepc.h)
// as a tesla::ir function, the IR-level twin of the runtime's compiled
// stepping tiers (runtime/step.h).
//
// The emitted function has the shape
//
//     fn <name>(state, symbol) -> target        // -1: no transition
//
// over the class's DFA: a branch chain over the live symbols (dead symbols
// fall straight through to the miss return), then per symbol either a
// compare chain over its edges (few edges; a single-transition symbol is
// one compare) or the full row as nested compares. Running it under ir::Interpreter must agree with Dfa::Step on
// every (state, symbol) pair — the differential tests drive exactly that,
// which pins the runtime's table lowering to an executable, inspectable
// specification.
#ifndef TESLA_IR_STEPEMIT_H_
#define TESLA_IR_STEPEMIT_H_

#include <string>

#include "automata/stepc.h"
#include "ir/ir.h"

namespace tesla::ir {

// The miss return value (no transition from (state, symbol)).
inline constexpr int64_t kStepMiss = -1;

// Emits the step function for `lowering` into `module` under `name`;
// returns the function. The module stays Verify()-clean.
Function* EmitStepFunction(Module& module, const automata::StepLowering& lowering,
                           const std::string& name);

}  // namespace tesla::ir

#endif  // TESLA_IR_STEPEMIT_H_
