#include "cfront/cfront.h"

#include <cctype>
#include <set>

#include "parser/parser.h"

namespace tesla::cfront {
namespace {

using ir::BinOp;
using ir::Instr;
using ir::Opcode;
using ir::Reg;

struct Token {
  enum class Kind { kIdent, kInt, kPunct, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;
  int64_t value = 0;
  int line = 1;
  size_t begin = 0;  // byte offsets into the unit source, for raw capture
  size_t end = 0;
};

Result<std::vector<Token>> TokenizeC(std::string_view source) {
  std::vector<Token> tokens;
  size_t i = 0;
  int line = 1;
  while (i < source.size()) {
    char c = source[i];
    if (c == '\n') {
      line++;
      i++;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      i++;
      continue;
    }
    if (c == '/' && i + 1 < source.size() && source[i + 1] == '/') {
      while (i < source.size() && source[i] != '\n') i++;
      continue;
    }
    if (c == '/' && i + 1 < source.size() && source[i + 1] == '*') {
      i += 2;
      while (i + 1 < source.size() && !(source[i] == '*' && source[i + 1] == '/')) {
        if (source[i] == '\n') line++;
        i++;
      }
      i += 2;
      continue;
    }
    Token token;
    token.line = line;
    token.begin = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < source.size() &&
             (std::isalnum(static_cast<unsigned char>(source[i])) || source[i] == '_')) {
        i++;
      }
      token.kind = Token::Kind::kIdent;
      token.text = std::string(source.substr(start, i - start));
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      if (i + 1 < source.size() && source[i] == '0' &&
          (source[i + 1] == 'x' || source[i + 1] == 'X')) {
        i += 2;
        while (i < source.size() && std::isxdigit(static_cast<unsigned char>(source[i]))) i++;
      } else {
        while (i < source.size() && std::isdigit(static_cast<unsigned char>(source[i]))) i++;
      }
      token.kind = Token::Kind::kInt;
      token.text = std::string(source.substr(start, i - start));
      token.value = std::strtoll(token.text.c_str(), nullptr, 0);
    } else {
      static const char* kTwoChar[] = {"->", "++", "--", "+=", "-=", "==", "!=",
                                       "<=", ">=", "&&", "||"};
      token.kind = Token::Kind::kPunct;
      token.text = std::string(1, c);
      if (i + 1 < source.size()) {
        std::string two{c, source[i + 1]};
        for (const char* candidate : kTwoChar) {
          if (two == candidate) {
            token.text = two;
            break;
          }
        }
      }
      if (std::string("(){};,=+-*/%<>!&|.").find(c) == std::string::npos &&
          token.text.size() == 1) {
        return Error{std::string("unexpected character '") + c + "'", line, 1};
      }
      i += token.text.size();
    }
    token.end = i;
    tokens.push_back(std::move(token));
  }
  Token end;
  end.kind = Token::Kind::kEnd;
  end.line = line;
  end.begin = end.end = source.size();
  tokens.push_back(end);
  return tokens;
}

const std::set<std::string>& TeslaMacros() {
  static const std::set<std::string> macros = {
      "TESLA_WITHIN",  "TESLA_GLOBAL",  "TESLA_PERTHREAD",
      "TESLA_ASSERT",  "TESLA_SYSCALL", "TESLA_SYSCALL_PREVIOUSLY",
  };
  return macros;
}

struct Local {
  Reg reg = ir::kNoReg;
  int struct_type = -1;  // for `struct X *` locals
};

}  // namespace

class UnitParser {
 public:
  UnitParser(Compiler& compiler, std::string_view source, std::string unit_name,
             std::vector<Token> tokens)
      : compiler_(compiler),
        source_(source),
        unit_name_(std::move(unit_name)),
        tokens_(std::move(tokens)) {}

  Status Run() {
    while (!Check(Token::Kind::kEnd)) {
      if (CheckIdent("struct") && PeekAhead(2).text == "{") {
        if (auto s = ParseStructDef(); !s.ok()) return s;
      } else {
        if (auto s = ParseFunction(); !s.ok()) return s;
      }
    }
    return Status::Ok();
  }

 private:
  // --- top level ---

  Status ParseStructDef() {
    Advance();  // struct
    std::string name = Peek().text;
    Advance();
    if (auto s = ExpectPunct("{"); !s.ok()) return s;
    ir::StructType type;
    type.name = name;
    while (!CheckPunct("}")) {
      // field: `int name ;` or `struct X *name ;`
      if (CheckIdent("struct")) {
        Advance();
        Advance();  // struct name (field struct types are untracked)
        if (auto s = ExpectPunct("*"); !s.ok()) return s;
      } else if (CheckIdent("int")) {
        Advance();
      } else {
        return Fail("expected field type");
      }
      ir::StructField field;
      field.name = Peek().text;
      field.symbol = InternString(field.name);
      Advance();
      type.fields.push_back(std::move(field));
      if (auto s = ExpectPunct(";"); !s.ok()) return s;
    }
    Advance();  // }
    if (auto s = ExpectPunct(";"); !s.ok()) return s;
    if (compiler_.module_.FindStruct(name) < 0) {
      compiler_.module_.AddStruct(std::move(type));
    }
    return Status::Ok();
  }

  Status ParseFunction() {
    if (!CheckIdent("int") && !CheckIdent("void")) {
      return Fail("expected function return type");
    }
    Advance();
    if (!Check(Token::Kind::kIdent)) return Fail("expected function name");
    function_ = ir::Function();
    function_.name = InternString(Peek().text);
    Advance();
    locals_.clear();
    next_reg_ = 0;
    blocks_.clear();
    blocks_.emplace_back();
    current_block_ = 0;

    if (auto s = ExpectPunct("("); !s.ok()) return s;
    while (!CheckPunct(")")) {
      int struct_type = -1;
      if (CheckIdent("struct")) {
        Advance();
        struct_type = compiler_.module_.FindStruct(Peek().text);
        if (struct_type < 0) return Fail("unknown struct '" + Peek().text + "'");
        Advance();
        if (auto s = ExpectPunct("*"); !s.ok()) return s;
      } else if (CheckIdent("int")) {
        Advance();
      } else {
        return Fail("expected parameter type");
      }
      if (!Check(Token::Kind::kIdent)) return Fail("expected parameter name");
      Reg reg = NewReg();
      locals_[Peek().text] = Local{reg, struct_type};
      Advance();
      function_.param_count++;
      if (CheckPunct(",")) Advance();
    }
    Advance();  // )
    if (auto s = ExpectPunct("{"); !s.ok()) return s;
    while (!CheckPunct("}")) {
      if (auto s = ParseStatement(); !s.ok()) return s;
    }
    Advance();  // }

    // Implicit `return 0` on fall-through.
    if (blocks_[current_block_].instrs.empty() ||
        !IsTerminated(blocks_[current_block_])) {
      Reg zero = NewReg();
      Emit(Instr{.op = Opcode::kConst, .dst = zero, .imm = 0});
      Instr ret;
      ret.op = Opcode::kRet;
      ret.a = zero;
      Emit(ret);
    }
    function_.reg_count = next_reg_;
    function_.blocks = std::move(blocks_);
    compiler_.module_.AddFunction(std::move(function_));
    return Status::Ok();
  }

  // --- statements ---

  Status ParseStatement() {
    if (CheckIdent("int") || (CheckIdent("struct") && PeekAhead(2).text == "*")) {
      return ParseDecl();
    }
    if (CheckIdent("if")) return ParseIf();
    if (CheckIdent("while")) return ParseWhile();
    if (CheckIdent("for")) return ParseFor();
    if (CheckIdent("break")) return ParseBreakContinue(true);
    if (CheckIdent("continue")) return ParseBreakContinue(false);
    if (CheckIdent("return")) return ParseReturn();
    if (Check(Token::Kind::kIdent) && TeslaMacros().count(Peek().text) != 0) {
      return ParseAssertion();
    }
    if (CheckPunct("{")) {
      Advance();
      while (!CheckPunct("}")) {
        if (auto s = ParseStatement(); !s.ok()) return s;
      }
      Advance();
      return Status::Ok();
    }

    // Assignment or expression statement.
    if (Check(Token::Kind::kIdent)) {
      const std::string name = Peek().text;
      const Token& next = PeekAhead(1);
      if (next.text == "=" ) {
        Advance();
        Advance();
        auto value = ParseExpr();
        if (!value.ok()) return value.error();
        auto local = locals_.find(name);
        if (local == locals_.end()) return Fail("unknown variable '" + name + "'");
        Emit(Instr{.op = Opcode::kMove, .dst = local->second.reg, .a = *value});
        return ExpectPunct(";");
      }
      if (next.text == "->") {
        return ParseFieldStatement(name);
      }
    }
    auto value = ParseExpr();
    if (!value.ok()) return value.error();
    return ExpectPunct(";");
  }

  Status ParseDecl() {
    int struct_type = -1;
    if (CheckIdent("struct")) {
      Advance();
      struct_type = compiler_.module_.FindStruct(Peek().text);
      if (struct_type < 0) return Fail("unknown struct '" + Peek().text + "'");
      Advance();
      if (auto s = ExpectPunct("*"); !s.ok()) return s;
    } else {
      Advance();  // int
    }
    if (!Check(Token::Kind::kIdent)) return Fail("expected variable name");
    std::string name = Peek().text;
    Advance();
    Reg reg = NewReg();
    locals_[name] = Local{reg, struct_type};
    if (CheckPunct("=")) {
      Advance();
      auto value = ParseExpr();
      if (!value.ok()) return value.error();
      Emit(Instr{.op = Opcode::kMove, .dst = reg, .a = *value});
    } else {
      Emit(Instr{.op = Opcode::kConst, .dst = reg, .imm = 0});
    }
    return ExpectPunct(";");
  }

  Status ParseFieldStatement(const std::string& name) {
    Advance();  // name
    Advance();  // ->
    if (!Check(Token::Kind::kIdent)) return Fail("expected field name");
    std::string field = Peek().text;
    Advance();

    auto local = locals_.find(name);
    if (local == locals_.end() || local->second.struct_type < 0) {
      return Fail("'" + name + "' is not a struct pointer");
    }
    uint32_t type_id = static_cast<uint32_t>(local->second.struct_type);
    int field_index = compiler_.module_.struct_type(type_id).FieldIndex(field);
    if (field_index < 0) return Fail("unknown field '" + field + "'");

    const std::string op = Peek().text;
    Reg object = local->second.reg;

    auto store = [&](Reg value) {
      Instr instr;
      instr.op = Opcode::kStoreField;
      instr.a = object;
      instr.b = value;
      instr.type_id = type_id;
      instr.field_index = static_cast<uint32_t>(field_index);
      Emit(instr);
    };
    auto load = [&]() {
      Reg dst = NewReg();
      Instr instr;
      instr.op = Opcode::kLoadField;
      instr.dst = dst;
      instr.a = object;
      instr.type_id = type_id;
      instr.field_index = static_cast<uint32_t>(field_index);
      Emit(instr);
      return dst;
    };

    if (op == "=") {
      Advance();
      auto value = ParseExpr();
      if (!value.ok()) return value.error();
      store(*value);
    } else if (op == "+=" || op == "-=") {
      Advance();
      auto value = ParseExpr();
      if (!value.ok()) return value.error();
      Reg old_value = load();
      Reg result = NewReg();
      Emit(Instr{.op = Opcode::kBin,
                 .bin = op == "+=" ? BinOp::kAdd : BinOp::kSub,
                 .dst = result,
                 .a = old_value,
                 .b = *value});
      store(result);
    } else if (op == "++" || op == "--") {
      Advance();
      Reg old_value = load();
      Reg one = NewReg();
      Emit(Instr{.op = Opcode::kConst, .dst = one, .imm = 1});
      Reg result = NewReg();
      Emit(Instr{.op = Opcode::kBin,
                 .bin = op == "++" ? BinOp::kAdd : BinOp::kSub,
                 .dst = result,
                 .a = old_value,
                 .b = one});
      store(result);
    } else {
      return Fail("expected assignment to field");
    }
    return ExpectPunct(";");
  }

  Status ParseIf() {
    Advance();  // if
    if (auto s = ExpectPunct("("); !s.ok()) return s;
    auto condition = ParseExpr();
    if (!condition.ok()) return condition.error();
    if (auto s = ExpectPunct(")"); !s.ok()) return s;

    uint32_t then_block = NewBlock();
    uint32_t else_block = NewBlock();
    uint32_t join_block = NewBlock();
    Emit(Instr{.op = Opcode::kCondBr,
               .a = *condition,
               .then_block = then_block,
               .else_block = else_block});

    current_block_ = then_block;
    if (auto s = ParseStatement(); !s.ok()) return s;
    EmitBranchIfOpen(join_block);

    current_block_ = else_block;
    if (CheckIdent("else")) {
      Advance();
      if (auto s = ParseStatement(); !s.ok()) return s;
    }
    EmitBranchIfOpen(join_block);
    current_block_ = join_block;
    return Status::Ok();
  }

  Status ParseWhile() {
    Advance();  // while
    if (auto s = ExpectPunct("("); !s.ok()) return s;
    uint32_t header = NewBlock();
    uint32_t body = NewBlock();
    uint32_t exit = NewBlock();
    EmitBranchIfOpen(header);

    current_block_ = header;
    auto condition = ParseExpr();
    if (!condition.ok()) return condition.error();
    if (auto s = ExpectPunct(")"); !s.ok()) return s;
    Emit(Instr{.op = Opcode::kCondBr, .a = *condition, .then_block = body, .else_block = exit});

    current_block_ = body;
    loops_.push_back(LoopTargets{header, exit});
    Status parsed = ParseStatement();
    loops_.pop_back();
    if (!parsed.ok()) return parsed;
    EmitBranchIfOpen(header);
    current_block_ = exit;
    return Status::Ok();
  }

  Status ParseFor() {
    Advance();  // for
    if (auto s = ExpectPunct("("); !s.ok()) return s;
    // init: a declaration, an assignment, or empty.
    if (!CheckPunct(";")) {
      if (CheckIdent("int") || (CheckIdent("struct") && PeekAhead(2).text == "*")) {
        if (auto s = ParseDecl(); !s.ok()) return s;
      } else {
        if (auto s = ParseSimpleAssignment(); !s.ok()) return s;
        if (auto s = ExpectPunct(";"); !s.ok()) return s;
      }
    } else {
      Advance();
    }

    uint32_t header = NewBlock();
    uint32_t body = NewBlock();
    uint32_t step = NewBlock();
    uint32_t exit = NewBlock();
    EmitBranchIfOpen(header);

    current_block_ = header;
    if (CheckPunct(";")) {
      // No condition: loop until break.
      Emit(Instr{.op = Opcode::kBr, .then_block = body});
      Advance();
    } else {
      auto condition = ParseExpr();
      if (!condition.ok()) return condition.error();
      Emit(Instr{.op = Opcode::kCondBr, .a = *condition, .then_block = body,
                 .else_block = exit});
      if (auto s = ExpectPunct(";"); !s.ok()) return s;
    }

    current_block_ = step;
    if (!CheckPunct(")")) {
      if (auto s = ParseSimpleAssignment(); !s.ok()) return s;
    }
    Emit(Instr{.op = Opcode::kBr, .then_block = header});
    if (auto s = ExpectPunct(")"); !s.ok()) return s;

    current_block_ = body;
    loops_.push_back(LoopTargets{step, exit});
    Status parsed = ParseStatement();
    loops_.pop_back();
    if (!parsed.ok()) return parsed;
    EmitBranchIfOpen(step);
    current_block_ = exit;
    return Status::Ok();
  }

  Status ParseBreakContinue(bool is_break) {
    Advance();
    if (loops_.empty()) {
      return Fail(is_break ? "break outside a loop" : "continue outside a loop");
    }
    Emit(Instr{.op = Opcode::kBr,
               .then_block = is_break ? loops_.back().break_target
                                      : loops_.back().continue_target});
    if (auto s = ExpectPunct(";"); !s.ok()) return s;
    current_block_ = NewBlock();  // unreachable continuation
    return Status::Ok();
  }

  // `x = expr` or `x->f <op> ...` without the trailing semicolon check for
  // assignment forms that manage it themselves; used by for-init/step.
  Status ParseSimpleAssignment() {
    if (!Check(Token::Kind::kIdent)) {
      auto value = ParseExpr();
      return value.ok() ? Status::Ok() : Status(value.error());
    }
    const std::string name = Peek().text;
    if (PeekAhead(1).text == "=") {
      Advance();
      Advance();
      auto value = ParseExpr();
      if (!value.ok()) return value.error();
      auto local = locals_.find(name);
      if (local == locals_.end()) return Fail("unknown variable '" + name + "'");
      Emit(Instr{.op = Opcode::kMove, .dst = local->second.reg, .a = *value});
      return Status::Ok();
    }
    auto value = ParseExpr();
    return value.ok() ? Status::Ok() : Status(value.error());
  }

  Status ParseReturn() {
    Advance();
    Reg value;
    if (CheckPunct(";")) {
      value = NewReg();
      Emit(Instr{.op = Opcode::kConst, .dst = value, .imm = 0});
    } else {
      auto expr = ParseExpr();
      if (!expr.ok()) return expr.error();
      value = *expr;
    }
    Instr ret;
    ret.op = Opcode::kRet;
    ret.a = value;
    Emit(ret);
    if (auto s = ExpectPunct(";"); !s.ok()) return s;
    // Statements after a return land in a fresh (unreachable) block.
    current_block_ = NewBlock();
    return Status::Ok();
  }

  // A TESLA macro statement: capture the raw balanced-paren text, run the
  // analyser (parse + lower), emit the reserved site call.
  Status ParseAssertion() {
    const Token& macro = Peek();
    const int line = macro.line;
    size_t start = macro.begin;
    Advance();
    if (!CheckPunct("(")) return Fail("expected '(' after TESLA macro");
    int depth = 0;
    size_t end = 0;
    while (!Check(Token::Kind::kEnd)) {
      if (CheckPunct("(")) depth++;
      if (CheckPunct(")")) {
        depth--;
        if (depth == 0) {
          end = Peek().end;
          Advance();
          break;
        }
      }
      Advance();
    }
    if (end == 0) return Fail("unterminated TESLA assertion");
    if (auto s = ExpectPunct(";"); !s.ok()) return s;

    std::string text(source_.substr(start, end - start));
    std::string name = unit_name_ + ":" + std::to_string(line);
    auto automaton = automata::CompileAssertion(text, compiler_.options_.lower, name,
                                                compiler_.options_.syscall_bound_function);
    if (!automaton.ok()) {
      return Error{name + ": " + automaton.error().ToString()};
    }

    // The site call passes the current values of in-scope automaton
    // variables; the instrumenter turns it into a site-event translator.
    SiteInfo site;
    site.automaton = name;
    Instr call;
    call.op = Opcode::kCall;
    call.fn = InternString(kInlineAssertionFn);
    call.imm = static_cast<int64_t>(compiler_.sites_.size());
    for (size_t i = 0; i < automaton->variables.size(); i++) {
      auto local = locals_.find(automaton->variables[i]);
      if (local != locals_.end()) {
        call.args.push_back(local->second.reg);
        site.var_indices.push_back(static_cast<uint16_t>(i));
      }
    }
    Emit(std::move(call));
    compiler_.sites_.push_back(std::move(site));
    compiler_.manifest_.Add(std::move(automaton.value()));
    return Status::Ok();
  }

  // --- expressions (precedence climbing) ---

  Result<Reg> ParseExpr() { return ParseBinary(0); }

  struct OpLevel {
    const char* token;
    BinOp op;
    int level;
    bool logical;
  };

  Result<Reg> ParseBinary(int min_level) {
    static const OpLevel kLevels[] = {
        {"||", BinOp::kOr, 1, true},   {"&&", BinOp::kAnd, 1, true},
        {"==", BinOp::kEq, 2, false},  {"!=", BinOp::kNe, 2, false},
        {"<", BinOp::kLt, 3, false},   {"<=", BinOp::kLe, 3, false},
        {">", BinOp::kGt, 3, false},   {">=", BinOp::kGe, 3, false},
        {"+", BinOp::kAdd, 4, false},  {"-", BinOp::kSub, 4, false},
        {"*", BinOp::kMul, 5, false},  {"/", BinOp::kDiv, 5, false},
        {"%", BinOp::kMod, 5, false},
    };
    auto first = ParseUnary();
    if (!first.ok()) return first;
    // The running left operand stays a plain Reg: re-assigning a Result
    // would move-assign its variant, which GCC's -Wmaybe-uninitialized
    // misreads (under -O1 with the sanitizers) as reading the Error arm.
    Reg lhs = *first;
    while (Check(Token::Kind::kPunct)) {
      const OpLevel* matched = nullptr;
      for (const OpLevel& level : kLevels) {
        if (Peek().text == level.token && level.level >= min_level) {
          matched = &level;
          break;
        }
      }
      if (matched == nullptr) {
        break;
      }
      Advance();
      auto rhs = ParseBinary(matched->level + 1);
      if (!rhs.ok()) return rhs;
      Reg a = lhs;
      Reg b = *rhs;
      if (matched->logical) {
        a = Normalize(a);
        b = Normalize(b);
      }
      Reg dst = NewReg();
      Emit(Instr{.op = Opcode::kBin, .bin = matched->op, .dst = dst, .a = a, .b = b});
      lhs = dst;
    }
    return lhs;
  }

  Reg Normalize(Reg reg) {
    Reg zero = NewReg();
    Emit(Instr{.op = Opcode::kConst, .dst = zero, .imm = 0});
    Reg dst = NewReg();
    Emit(Instr{.op = Opcode::kBin, .bin = BinOp::kNe, .dst = dst, .a = reg, .b = zero});
    return dst;
  }

  Result<Reg> ParseUnary() {
    if (CheckPunct("!")) {
      Advance();
      auto value = ParseUnary();
      if (!value.ok()) return value;
      Reg zero = NewReg();
      Emit(Instr{.op = Opcode::kConst, .dst = zero, .imm = 0});
      Reg dst = NewReg();
      Emit(Instr{.op = Opcode::kBin, .bin = BinOp::kEq, .dst = dst, .a = *value, .b = zero});
      return dst;
    }
    if (CheckPunct("-")) {
      Advance();
      auto value = ParseUnary();
      if (!value.ok()) return value;
      Reg zero = NewReg();
      Emit(Instr{.op = Opcode::kConst, .dst = zero, .imm = 0});
      Reg dst = NewReg();
      Emit(Instr{.op = Opcode::kBin, .bin = BinOp::kSub, .dst = dst, .a = zero, .b = *value});
      return dst;
    }
    return ParsePostfix();
  }

  Result<Reg> ParsePostfix() {
    auto value = ParsePrimary();
    if (!value.ok()) return value;
    while (CheckPunct("->")) {
      Advance();
      if (!Check(Token::Kind::kIdent)) return Error{"expected field name", Peek().line, 1};
      std::string field = Peek().text;
      Advance();
      // Field loads through expression values: the struct type must be
      // recoverable; only direct locals carry type information.
      if (last_struct_type_ < 0) {
        return Error{"cannot infer struct type for '->' access", Peek().line, 1};
      }
      uint32_t type_id = static_cast<uint32_t>(last_struct_type_);
      int field_index = compiler_.module_.struct_type(type_id).FieldIndex(field);
      if (field_index < 0) return Error{"unknown field '" + field + "'", Peek().line, 1};
      Reg dst = NewReg();
      Instr instr;
      instr.op = Opcode::kLoadField;
      instr.dst = dst;
      instr.a = *value;
      instr.type_id = type_id;
      instr.field_index = static_cast<uint32_t>(field_index);
      Emit(instr);
      value = dst;
      last_struct_type_ = -1;
    }
    return value;
  }

  Result<Reg> ParsePrimary() {
    last_struct_type_ = -1;
    if (Check(Token::Kind::kInt)) {
      Reg dst = NewReg();
      Emit(Instr{.op = Opcode::kConst, .dst = dst, .imm = Peek().value});
      Advance();
      return dst;
    }
    if (CheckPunct("(")) {
      Advance();
      auto value = ParseExpr();
      if (!value.ok()) return value;
      if (auto s = ExpectPunct(")"); !s.ok()) return s.error();
      return value;
    }
    if (!Check(Token::Kind::kIdent)) {
      return Error{"expected expression", Peek().line, 1};
    }
    std::string name = Peek().text;
    Advance();

    if (CheckPunct("(")) {
      Advance();
      // alloc(StructName): heap allocation.
      if (name == "alloc") {
        if (!Check(Token::Kind::kIdent)) return Error{"expected struct name", Peek().line, 1};
        int type_id = compiler_.module_.FindStruct(Peek().text);
        if (type_id < 0) {
          return Error{"unknown struct '" + Peek().text + "'", Peek().line, 1};
        }
        Advance();
        if (auto s = ExpectPunct(")"); !s.ok()) return s.error();
        Reg dst = NewReg();
        Instr instr;
        instr.op = Opcode::kAlloc;
        instr.dst = dst;
        instr.type_id = static_cast<uint32_t>(type_id);
        Emit(instr);
        last_struct_type_ = type_id;
        return dst;
      }
      Instr call;
      call.op = Opcode::kCall;
      call.fn = InternString(name);
      while (!CheckPunct(")")) {
        auto arg = ParseExpr();
        if (!arg.ok()) return arg;
        call.args.push_back(*arg);
        if (CheckPunct(",")) Advance();
      }
      Advance();  // )
      Reg dst = NewReg();
      call.dst = dst;
      Emit(std::move(call));
      return dst;
    }

    auto local = locals_.find(name);
    if (local == locals_.end()) {
      return Error{"unknown variable '" + name + "'", Peek().line, 1};
    }
    last_struct_type_ = local->second.struct_type;
    return local->second.reg;
  }

  // --- builder plumbing ---

  Reg NewReg() { return next_reg_++; }

  uint32_t NewBlock() {
    blocks_.emplace_back();
    return static_cast<uint32_t>(blocks_.size() - 1);
  }

  void Emit(Instr instr) { blocks_[current_block_].instrs.push_back(std::move(instr)); }

  static bool IsTerminated(const ir::Block& block) {
    if (block.instrs.empty()) return false;
    Opcode op = block.instrs.back().op;
    return op == Opcode::kRet || op == Opcode::kBr || op == Opcode::kCondBr;
  }

  void EmitBranchIfOpen(uint32_t target) {
    if (!IsTerminated(blocks_[current_block_])) {
      Emit(Instr{.op = Opcode::kBr, .then_block = target});
    }
  }

  // --- token plumbing ---

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& PeekAhead(size_t n) const {
    return pos_ + n < tokens_.size() ? tokens_[pos_ + n] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) pos_++;
  }
  bool Check(Token::Kind kind) const { return Peek().kind == kind; }
  bool CheckIdent(const char* text) const {
    return Peek().kind == Token::Kind::kIdent && Peek().text == text;
  }
  bool CheckPunct(const char* text) const {
    return Peek().kind == Token::Kind::kPunct && Peek().text == text;
  }
  Status ExpectPunct(const char* text) {
    if (!CheckPunct(text)) {
      return Error{std::string("expected '") + text + "', got '" + Peek().text + "'",
                   Peek().line, 1};
    }
    Advance();
    return Status::Ok();
  }
  Error Fail(const std::string& message) const { return Error{message, Peek().line, 1}; }

  Compiler& compiler_;
  std::string_view source_;
  std::string unit_name_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;

  ir::Function function_;
  std::vector<ir::Block> blocks_;
  uint32_t current_block_ = 0;
  Reg next_reg_ = 0;
  struct LoopTargets {
    uint32_t continue_target = 0;
    uint32_t break_target = 0;
  };
  std::vector<LoopTargets> loops_;
  std::unordered_map<std::string, Local> locals_;
  int last_struct_type_ = -1;
};

Status Compiler::AddUnit(std::string_view source, const std::string& unit_name) {
  auto tokens = TokenizeC(source);
  if (!tokens.ok()) {
    return Error{unit_name + ": " + tokens.error().ToString()};
  }
  UnitParser parser(*this, source, unit_name, std::move(tokens.value()));
  if (auto status = parser.Run(); !status.ok()) {
    return Error{unit_name + ": " + status.error().ToString()};
  }
  return Status::Ok();
}

}  // namespace tesla::cfront
