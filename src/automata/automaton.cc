#include "automata/automaton.h"

#include <algorithm>
#include <sstream>

namespace tesla::automata {

std::string ArgMatchToString(const ArgMatch& match) {
  switch (match.kind) {
    case ArgMatchKind::kAny:
      return "*";
    case ArgMatchKind::kLiteral:
      return std::to_string(match.literal);
    case ArgMatchKind::kVariable:
    case ArgMatchKind::kIndirect: {
      std::string text = match.kind == ArgMatchKind::kIndirect ? "&$" : "$";
      return text += std::to_string(match.var);
    }
    case ArgMatchKind::kFlags: {
      std::ostringstream out;
      out << "flags(0x" << std::hex << match.mask << ")";
      return out.str();
    }
    case ArgMatchKind::kBitmask: {
      std::ostringstream out;
      out << "bitmask(0x" << std::hex << match.mask << ")";
      return out.str();
    }
  }
  return "?";
}

std::string EventPattern::ToString() const {
  std::ostringstream out;
  switch (kind) {
    case PatternKind::kAssertionSite:
      return "«site»";
    case PatternKind::kInCallStack:
      return "incallstack(" + SymbolName(function) + ")";
    case PatternKind::kFunctionCall:
    case PatternKind::kFunctionReturn: {
      out << (kind == PatternKind::kFunctionCall ? "call " : "return ");
      out << SymbolName(function) << "(";
      if (!args_specified) {
        out << "...";
      } else {
        for (size_t i = 0; i < args.size(); i++) {
          if (i > 0) out << ", ";
          out << ArgMatchToString(args[i]);
        }
      }
      out << ")";
      if (match_return) {
        out << " == " << ArgMatchToString(return_match);
      }
      return out.str();
    }
    case PatternKind::kFieldAssign: {
      out << "$" << struct_var << "." << SymbolName(field);
      switch (assign_op) {
        case ast::AssignOp::kAssign:
          out << " = " << ArgMatchToString(assign_value);
          break;
        case ast::AssignOp::kPlusEqual:
          out << " += " << ArgMatchToString(assign_value);
          break;
        case ast::AssignOp::kMinusEqual:
          out << " -= " << ArgMatchToString(assign_value);
          break;
        case ast::AssignOp::kIncrement:
          out << "++";
          break;
        case ast::AssignOp::kDecrement:
          out << "--";
          break;
      }
      return out.str();
    }
  }
  return "?";
}

uint16_t Automaton::AddPattern(const EventPattern& pattern) {
  for (size_t i = 0; i < alphabet.size(); i++) {
    if (alphabet[i] == pattern) {
      return static_cast<uint16_t>(i);
    }
  }
  alphabet.push_back(pattern);
  return static_cast<uint16_t>(alphabet.size() - 1);
}

void Automaton::AddTransition(uint32_t from, uint16_t symbol, uint32_t to) {
  Transition transition{from, symbol, to};
  if (std::find(transitions.begin(), transitions.end(), transition) == transitions.end()) {
    transitions.push_back(transition);
  }
}

void Automaton::Finalize() {
  edges.assign(state_count, {});
  symbol_sources.assign(alphabet.size(), 0);
  for (const Transition& transition : transitions) {
    edges[transition.from].push_back(transition);
    symbol_sources[transition.symbol] |= StateBit(transition.from);
  }
}

StateSet Automaton::Step(StateSet states, uint16_t symbol) const {
  if (symbol >= symbol_sources.size() || (symbol_sources[symbol] & states) == 0) {
    return 0;
  }
  StateSet next = 0;
  StateSet sources = symbol_sources[symbol] & states;
  while (sources != 0) {
    uint32_t state = static_cast<uint32_t>(__builtin_ctzll(sources));
    sources &= sources - 1;
    for (const Transition& transition : edges[state]) {
      if (transition.symbol == symbol) {
        next |= StateBit(transition.to);
      }
    }
  }
  return next;
}

StateSet Automaton::InitialInstanceStates() const {
  StateSet states = 0;
  for (const Transition& transition : transitions) {
    if (transition.from == initial_state && transition.symbol == init_symbol) {
      states |= StateBit(transition.to);
    }
  }
  return states;
}

std::vector<uint16_t> Automaton::VariablesBoundBy(uint16_t symbol) const {
  std::vector<uint16_t> bound;
  const EventPattern& pattern = alphabet.at(symbol);
  auto add = [&](const ArgMatch& match) {
    if (match.kind == ArgMatchKind::kVariable || match.kind == ArgMatchKind::kIndirect) {
      if (std::find(bound.begin(), bound.end(), match.var) == bound.end()) {
        bound.push_back(match.var);
      }
    }
  };
  for (const ArgMatch& match : pattern.args) {
    add(match);
  }
  if (pattern.match_return) {
    add(pattern.return_match);
  }
  if (pattern.kind == PatternKind::kFieldAssign) {
    ArgMatch self{ArgMatchKind::kVariable, 0, pattern.struct_var, 0};
    add(self);
    add(pattern.assign_value);
  }
  return bound;
}

uint32_t Automaton::CloneBoundMask() const {
  uint32_t mask = 0;
  for (uint16_t symbol = 0; symbol < alphabet.size(); symbol++) {
    if (symbol == init_symbol || symbol == cleanup_symbol) {
      continue;
    }
    for (uint16_t var : VariablesBoundBy(symbol)) {
      mask |= 1u << var;
    }
  }
  return mask;
}

std::string Automaton::ToString() const {
  std::ostringstream out;
  out << "automaton " << name << " (" << state_count << " states, " << alphabet.size()
      << " symbols, " << variables.size() << " variables)\n";
  for (size_t i = 0; i < alphabet.size(); i++) {
    out << "  symbol " << i << ": " << alphabet[i].ToString();
    if (i == init_symbol) out << "  «init»";
    if (i == cleanup_symbol) out << "  «cleanup»";
    if (has_site && i == site_symbol) out << "  «assertion»";
    out << "\n";
  }
  for (const Transition& transition : transitions) {
    out << "  " << transition.from << " --" << transition.symbol << "--> " << transition.to
        << "\n";
  }
  return out.str();
}

}  // namespace tesla::automata
