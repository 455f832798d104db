#include "automata/manifest.h"

#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "support/strings.h"

namespace tesla::automata {
namespace {

// Percent-escapes newlines and '%' so any string fits on one manifest line.
std::string EscapeLine(const std::string& text) {
  std::string escaped;
  for (char c : text) {
    if (c == '%') {
      escaped += "%25";
    } else if (c == '\n') {
      escaped += "%0A";
    } else {
      escaped.push_back(c);
    }
  }
  return escaped;
}

std::string UnescapeLine(std::string_view text) {
  std::string raw;
  for (size_t i = 0; i < text.size(); i++) {
    if (text[i] == '%' && i + 2 < text.size()) {
      if (text.substr(i, 3) == "%25") {
        raw.push_back('%');
        i += 2;
        continue;
      }
      if (text.substr(i, 3) == "%0A") {
        raw.push_back('\n');
        i += 2;
        continue;
      }
    }
    raw.push_back(text[i]);
  }
  return raw;
}

void WriteArgMatch(std::ostringstream& out, const ArgMatch& match) {
  switch (match.kind) {
    case ArgMatchKind::kAny:
      out << "any";
      break;
    case ArgMatchKind::kLiteral:
      out << "lit:" << match.literal;
      break;
    case ArgMatchKind::kVariable:
      out << "var:" << match.var;
      break;
    case ArgMatchKind::kIndirect:
      out << "ind:" << match.var;
      break;
    case ArgMatchKind::kFlags:
      out << "flags:" << match.mask;
      break;
    case ArgMatchKind::kBitmask:
      out << "mask:" << match.mask;
      break;
  }
}

bool ReadArgMatch(std::string_view token, ArgMatch* match) {
  if (token == "any") {
    match->kind = ArgMatchKind::kAny;
    return true;
  }
  size_t colon = token.find(':');
  if (colon == std::string_view::npos) {
    return false;
  }
  std::string_view head = token.substr(0, colon);
  std::string_view tail = token.substr(colon + 1);
  int64_t value = 0;
  if (!ParseInt64(tail, &value)) {
    return false;
  }
  if (head == "lit") {
    match->kind = ArgMatchKind::kLiteral;
    match->literal = value;
  } else if (head == "var") {
    match->kind = ArgMatchKind::kVariable;
    match->var = static_cast<uint16_t>(value);
  } else if (head == "ind") {
    match->kind = ArgMatchKind::kIndirect;
    match->var = static_cast<uint16_t>(value);
  } else if (head == "flags") {
    match->kind = ArgMatchKind::kFlags;
    match->mask = static_cast<uint64_t>(value);
  } else if (head == "mask") {
    match->kind = ArgMatchKind::kBitmask;
    match->mask = static_cast<uint64_t>(value);
  } else {
    return false;
  }
  return true;
}

// The text after `keyword` and its separating space ("" when the line is
// the bare keyword).
std::string_view AfterKeyword(std::string_view line, std::string_view keyword) {
  return line.size() > keyword.size() ? line.substr(keyword.size() + 1) : std::string_view();
}

// Whether every variable `match` names is one of `variables` variables.
bool VariableInRange(const ArgMatch& match, size_t variables) {
  return (match.kind != ArgMatchKind::kVariable && match.kind != ArgMatchKind::kIndirect) ||
         match.var < variables;
}

const char* PatternKindToken(PatternKind kind) {
  switch (kind) {
    case PatternKind::kFunctionCall:
      return "call";
    case PatternKind::kFunctionReturn:
      return "return";
    case PatternKind::kFieldAssign:
      return "field";
    case PatternKind::kAssertionSite:
      return "site";
    case PatternKind::kInCallStack:
      return "incallstack";
  }
  return "?";
}

}  // namespace

void Manifest::Merge(Manifest other) {
  for (Automaton& automaton : other.automata) {
    if (Find(automaton.name) < 0) {
      automata.push_back(std::move(automaton));
    }
  }
}

int Manifest::Find(const std::string& name) const {
  for (size_t i = 0; i < automata.size(); i++) {
    if (automata[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

InstrumentationRequirements Manifest::ComputeRequirements() const {
  InstrumentationRequirements requirements;
  for (const Automaton& automaton : automata) {
    for (const EventPattern& pattern : automaton.alphabet) {
      switch (pattern.kind) {
        case PatternKind::kFunctionCall:
          requirements.call_hooks.insert(pattern.function);
          if (pattern.side == CallSide::kCaller) {
            requirements.caller_side.insert(pattern.function);
          }
          break;
        case PatternKind::kFunctionReturn:
          requirements.return_hooks.insert(pattern.function);
          if (pattern.side == CallSide::kCaller) {
            requirements.caller_side.insert(pattern.function);
          }
          break;
        case PatternKind::kFieldAssign:
          requirements.field_hooks.insert(pattern.field);
          break;
        case PatternKind::kAssertionSite:
          requirements.site_hooks.insert(automaton.name);
          break;
        case PatternKind::kInCallStack:
          requirements.stack_queries.insert(pattern.function);
          requirements.call_hooks.insert(pattern.function);
          requirements.return_hooks.insert(pattern.function);
          break;
      }
    }
  }
  return requirements;
}

std::string Manifest::Serialize() const {
  std::ostringstream out;
  out << "tesla-manifest 1\n";
  for (const Automaton& automaton : automata) {
    out << "automaton " << EscapeLine(automaton.name) << "\n";
    out << "  context " << (automaton.context == ast::Context::kGlobal ? "global" : "perthread")
        << "\n";
    out << "  strict " << (automaton.strict ? 1 : 0) << "\n";
    out << "  states " << automaton.state_count << " accept " << automaton.accept_state << "\n";
    out << "  bounds " << automaton.init_symbol << " " << automaton.cleanup_symbol << " "
        << (automaton.has_site ? static_cast<int>(automaton.site_symbol) : -1) << "\n";
    out << "  source " << EscapeLine(automaton.source_text) << "\n";
    for (const std::string& variable : automaton.variables) {
      out << "  var " << EscapeLine(variable) << "\n";
    }
    for (const EventPattern& pattern : automaton.alphabet) {
      out << "  sym " << PatternKindToken(pattern.kind);
      out << " fn=" << EscapeLine(SymbolName(pattern.function));
      out << " side=" << static_cast<int>(pattern.side);
      out << " argspec=" << (pattern.args_specified ? 1 : 0);
      out << " args=";
      for (size_t i = 0; i < pattern.args.size(); i++) {
        if (i > 0) out << ",";
        WriteArgMatch(out, pattern.args[i]);
      }
      if (pattern.match_return) {
        out << " ret=";
        WriteArgMatch(out, pattern.return_match);
      }
      if (pattern.kind == PatternKind::kFieldAssign) {
        out << " svar=" << pattern.struct_var;
        out << " field=" << EscapeLine(SymbolName(pattern.field));
        out << " op=" << static_cast<int>(pattern.assign_op);
        out << " val=";
        WriteArgMatch(out, pattern.assign_value);
      }
      out << "\n";
    }
    for (const Transition& transition : automaton.transitions) {
      out << "  trans " << transition.from << " " << transition.symbol << " " << transition.to
          << "\n";
    }
    for (const TimedSpec& spec : automaton.timed) {
      out << "  timed " << (spec.kind == TimedSpec::kRate ? "rate" : "within") << " "
          << spec.bound_ns << " " << spec.limit << " " << spec.armed_mask << " sym=";
      for (size_t i = 0; i < spec.symbols.size(); i++) {
        if (i > 0) out << ",";
        out << spec.symbols[i];
      }
      out << "\n";
    }
    out << "end\n";
  }
  return out.str();
}

Result<Manifest> Manifest::Deserialize(std::string_view text) {
  Manifest manifest;
  Automaton current;
  bool in_automaton = false;
  int line_number = 0;
  // Where the current block's bounds line was: its symbols are checked
  // against the alphabet at `end`, since the sym lines follow it.
  int bounds_line = 0;

  auto fail = [&](const std::string& message) {
    return Error{message, line_number, 1};
  };

  for (std::string_view raw_line : SplitString(text, '\n')) {
    line_number++;
    std::string_view line = TrimWhitespace(raw_line);
    if (line.empty() || StartsWith(line, "tesla-manifest")) {
      continue;
    }
    auto words = SplitString(line, ' ');
    const std::string_view keyword = words[0];

    if (keyword == "automaton") {
      if (in_automaton) {
        return fail("nested automaton");
      }
      in_automaton = true;
      current = Automaton();
      current.name = UnescapeLine(AfterKeyword(line, keyword));
      bounds_line = 0;
      continue;
    }
    if (!in_automaton) {
      return fail("directive outside automaton block");
    }
    if (keyword == "end") {
      // Every index Finalize() and the runtime follow must be in range:
      // the text crosses a trust boundary (capture files, shm segments).
      if (current.state_count == 0) {
        return fail("automaton block without a states line");
      }
      const size_t symbols = current.alphabet.size();
      if (current.init_symbol >= symbols || current.cleanup_symbol >= symbols ||
          (current.has_site && current.site_symbol >= symbols)) {
        line_number = bounds_line;
        return fail("bounds symbol out of range");
      }
      current.Finalize();
      manifest.automata.push_back(std::move(current));
      in_automaton = false;
      continue;
    }
    if (keyword == "context") {
      current.context = words.size() > 1 && words[1] == "global" ? ast::Context::kGlobal
                                                                 : ast::Context::kPerThread;
      continue;
    }
    if (keyword == "strict") {
      current.strict = words.size() > 1 && words[1] == "1";
      continue;
    }
    if (keyword == "states") {
      int64_t states = 0;
      int64_t accept = 0;
      if (words.size() < 4 || !ParseInt64(words[1], &states) || !ParseInt64(words[3], &accept)) {
        return fail("malformed states line");
      }
      if (states < 1 || states > kMaxStates || accept < 0 || accept >= states) {
        return fail("states or accept state out of range");
      }
      current.state_count = static_cast<uint32_t>(states);
      current.accept_state = static_cast<uint32_t>(accept);
      continue;
    }
    if (keyword == "bounds") {
      int64_t init = 0;
      int64_t cleanup = 0;
      int64_t site = -1;
      if (words.size() < 4 || !ParseInt64(words[1], &init) || !ParseInt64(words[2], &cleanup) ||
          !ParseInt64(words[3], &site)) {
        return fail("malformed bounds line");
      }
      if (init < 0 || init > UINT16_MAX || cleanup < 0 || cleanup > UINT16_MAX ||
          site < -1 || site > UINT16_MAX) {
        return fail("bounds symbol out of range");
      }
      bounds_line = line_number;
      current.init_symbol = static_cast<uint16_t>(init);
      current.cleanup_symbol = static_cast<uint16_t>(cleanup);
      current.has_site = site >= 0;
      if (current.has_site) {
        current.site_symbol = static_cast<uint16_t>(site);
      }
      continue;
    }
    if (keyword == "source") {
      current.source_text = UnescapeLine(AfterKeyword(line, keyword));
      continue;
    }
    if (keyword == "var") {
      current.variables.push_back(UnescapeLine(AfterKeyword(line, keyword)));
      continue;
    }
    if (keyword == "sym") {
      if (words.size() < 2) {
        return fail("malformed sym line");
      }
      EventPattern pattern;
      std::string_view kind = words[1];
      if (kind == "call") {
        pattern.kind = PatternKind::kFunctionCall;
      } else if (kind == "return") {
        pattern.kind = PatternKind::kFunctionReturn;
      } else if (kind == "field") {
        pattern.kind = PatternKind::kFieldAssign;
      } else if (kind == "site") {
        pattern.kind = PatternKind::kAssertionSite;
      } else if (kind == "incallstack") {
        pattern.kind = PatternKind::kInCallStack;
      } else {
        return fail("unknown pattern kind");
      }
      for (size_t i = 2; i < words.size(); i++) {
        std::string_view word = words[i];
        size_t equals = word.find('=');
        if (equals == std::string_view::npos) {
          return fail("malformed sym attribute");
        }
        std::string_view key = word.substr(0, equals);
        std::string_view value = word.substr(equals + 1);
        int64_t number = 0;
        if (key == "fn") {
          pattern.function = InternString(UnescapeLine(value));
        } else if (key == "side") {
          if (!ParseInt64(value, &number) || number < 0 ||
              number > static_cast<int64_t>(CallSide::kCaller)) {
            return fail("bad side");
          }
          pattern.side = static_cast<CallSide>(number);
        } else if (key == "argspec") {
          pattern.args_specified = value == "1";
        } else if (key == "args") {
          if (!value.empty()) {
            for (std::string_view token : SplitString(value, ',')) {
              ArgMatch match;
              if (!ReadArgMatch(token, &match)) return fail("bad arg match");
              pattern.args.push_back(match);
            }
          }
        } else if (key == "ret") {
          pattern.match_return = true;
          if (!ReadArgMatch(value, &pattern.return_match)) return fail("bad return match");
        } else if (key == "svar") {
          if (!ParseInt64(value, &number) || number < 0 ||
              static_cast<uint64_t>(number) >= current.variables.size()) {
            return fail("svar out of range");
          }
          pattern.struct_var = static_cast<uint16_t>(number);
        } else if (key == "field") {
          pattern.field = InternString(UnescapeLine(value));
        } else if (key == "op") {
          if (!ParseInt64(value, &number) || number < 0 ||
              number > static_cast<int64_t>(ast::AssignOp::kDecrement)) {
            return fail("bad op");
          }
          pattern.assign_op = static_cast<ast::AssignOp>(number);
        } else if (key == "val") {
          if (!ReadArgMatch(value, &pattern.assign_value)) return fail("bad assign value");
        } else {
          return fail("unknown sym attribute");
        }
      }
      const size_t variables = current.variables.size();
      bool in_range = VariableInRange(pattern.return_match, variables) &&
                      VariableInRange(pattern.assign_value, variables);
      for (const ArgMatch& match : pattern.args) {
        in_range = in_range && VariableInRange(match, variables);
      }
      if (!in_range) {
        return fail("variable reference out of range");
      }
      current.alphabet.push_back(std::move(pattern));
      continue;
    }
    if (keyword == "timed") {
      // Optional: only timed automata emit these, so pre-timed manifests
      // (and v≤5 capture embeds) parse exactly as before.
      if (words.size() < 5) {
        return fail("malformed timed line");
      }
      TimedSpec spec;
      if (words[1] == "within") {
        spec.kind = TimedSpec::kWithin;
      } else if (words[1] == "rate") {
        spec.kind = TimedSpec::kRate;
      } else {
        return fail("unknown timed kind");
      }
      int64_t bound = 0;
      int64_t limit = 0;
      if (!ParseInt64(words[2], &bound) || !ParseInt64(words[3], &limit) || bound <= 0 ||
          limit < 0) {
        return fail("malformed timed line");
      }
      spec.bound_ns = static_cast<uint64_t>(bound);
      spec.limit = static_cast<uint64_t>(limit);
      // The armed mask is a full 64-bit state set; parse it unsigned.
      spec.armed_mask = std::strtoull(std::string(words[4]).c_str(), nullptr, 10);
      for (size_t i = 5; i < words.size(); i++) {
        std::string_view word = words[i];
        size_t equals = word.find('=');
        if (equals == std::string_view::npos || word.substr(0, equals) != "sym") {
          return fail("malformed timed attribute");
        }
        std::string_view value = word.substr(equals + 1);
        if (!value.empty()) {
          for (std::string_view token : SplitString(value, ',')) {
            int64_t symbol = 0;
            if (!ParseInt64(token, &symbol) || symbol < 0 ||
                static_cast<uint64_t>(symbol) >= current.alphabet.size()) {
              return fail("timed symbol out of range");
            }
            spec.symbols.push_back(static_cast<uint16_t>(symbol));
          }
        }
      }
      if (current.timed.size() >= kMaxTimedSpecs) {
        return fail("too many timed clauses");
      }
      current.timed.push_back(std::move(spec));
      continue;
    }
    if (keyword == "trans") {
      int64_t from = 0;
      int64_t symbol = 0;
      int64_t to = 0;
      if (words.size() < 4 || !ParseInt64(words[1], &from) || !ParseInt64(words[2], &symbol) ||
          !ParseInt64(words[3], &to)) {
        return fail("malformed trans line");
      }
      const int64_t states = current.state_count;
      if (from < 0 || from >= states || to < 0 || to >= states) {
        return fail("trans state out of range");
      }
      if (symbol < 0 || static_cast<uint64_t>(symbol) >= current.alphabet.size()) {
        return fail("trans symbol out of range");
      }
      current.transitions.push_back(Transition{static_cast<uint32_t>(from),
                                               static_cast<uint16_t>(symbol),
                                               static_cast<uint32_t>(to)});
      continue;
    }
    return fail("unknown directive '" + std::string(keyword) + "'");
  }
  if (in_automaton) {
    return fail("unterminated automaton block");
  }
  return manifest;
}

}  // namespace tesla::automata
