// tesla::ir — a register-based mini-IR.
//
// Stands in for LLVM IR in the TESLA pipeline (paper §4.2): language
// front-ends (cfront) emit it, the instrumenter rewrites it (inserting hook
// instructions at function entries/exits, around call sites, after structure
// field stores and at assertion sites), and the interpreter executes it.
//
// Registers are per-frame and mutable (front-ends need not construct SSA);
// all values are 64-bit integers, with heap addresses represented as slot
// indices into the interpreter's heap.
#ifndef TESLA_IR_IR_H_
#define TESLA_IR_IR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/intern.h"
#include "support/result.h"

namespace tesla::ir {

using Reg = uint32_t;
inline constexpr Reg kNoReg = UINT32_MAX;

enum class Opcode : uint8_t {
  kConst,         // dst = imm
  kMove,          // dst = a
  kBin,           // dst = a <bin> b
  kCall,          // dst = fn(args...)           (direct; fn may be host)
  kCallIndirect,  // dst = (*a)(args...)         (a holds a function symbol)
  kFnAddr,        // dst = symbol-of fn
  kAlloc,         // dst = new <type_id>         (heap object)
  kLoadField,     // dst = [a].field<field_index of type_id>
  kStoreField,    // [a].field<field_index> = b
  kLoad,          // dst = *[a]                  (raw slot load)
  kStore,         // *[a] = b
  kRet,           // return a (or void if a == kNoReg)
  kBr,            // jump then_block
  kCondBr,        // if a jump then_block else else_block
  kHook,          // instrumentation: dispatch (hook_id, args...) to the runtime
};

enum class BinOp : uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kAnd, kOr, kXor, kShl, kShr,
  kEq, kNe, kLt, kLe, kGt, kGe,
};

struct Instr {
  Opcode op = Opcode::kConst;
  BinOp bin = BinOp::kAdd;
  Reg dst = kNoReg;
  Reg a = kNoReg;
  Reg b = kNoReg;
  int64_t imm = 0;
  Symbol fn = kNoSymbol;      // kCall / kFnAddr
  uint32_t type_id = 0;       // kAlloc / kLoadField / kStoreField
  uint32_t field_index = 0;   // kLoadField / kStoreField
  uint32_t hook_id = 0;       // kHook
  uint32_t then_block = 0;    // kBr / kCondBr
  uint32_t else_block = 0;    // kCondBr
  std::vector<Reg> args{};    // kCall / kCallIndirect / kHook
};

struct Block {
  std::vector<Instr> instrs;
};

struct Function {
  Symbol name = kNoSymbol;
  uint32_t param_count = 0;  // params arrive in registers 0..param_count-1
  uint32_t reg_count = 0;
  std::vector<Block> blocks;  // entry is block 0
};

struct StructField {
  std::string name;
  Symbol symbol = kNoSymbol;  // interned field name (instrumentation key)
};

struct StructType {
  std::string name;
  std::vector<StructField> fields;

  int FieldIndex(const std::string& field_name) const {
    for (size_t i = 0; i < fields.size(); i++) {
      if (fields[i].name == field_name) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
};

class Module {
 public:
  // Returns the function or nullptr.
  Function* FindFunction(Symbol name);
  const Function* FindFunction(Symbol name) const;

  Function* AddFunction(Function function);
  uint32_t AddStruct(StructType type);

  const StructType& struct_type(uint32_t id) const { return structs_[id]; }
  int FindStruct(const std::string& name) const;
  size_t struct_count() const { return structs_.size(); }

  std::vector<Function>& functions() { return functions_; }
  const std::vector<Function>& functions() const { return functions_; }

  // Total instruction count (diagnostics, buildsim work accounting).
  size_t InstructionCount() const;

 private:
  std::vector<Function> functions_;
  std::unordered_map<Symbol, size_t> function_index_;
  std::vector<StructType> structs_;
};

// Structural validity check: register bounds, block targets, field indices,
// block termination. Call-target existence is checked at execution time
// (hosts may provide externals).
Status Verify(const Module& module);

const char* OpcodeName(Opcode op);
std::string ToString(const Module& module);

}  // namespace tesla::ir

#endif  // TESLA_IR_IR_H_
