#include "kir/vm_backend.hpp"

#include "vm/lower.hpp"
#include "workloads/shard_layout.hpp"

namespace tc::kir {

namespace {

StatusOr<vm::Opcode> map_alu(Op op) {
  switch (op) {
    case Op::kAdd: return vm::Opcode::kAdd;
    case Op::kSub: return vm::Opcode::kSub;
    case Op::kMul: return vm::Opcode::kMul;
    case Op::kUdiv: return vm::Opcode::kUdiv;
    case Op::kUrem: return vm::Opcode::kUrem;
    case Op::kAnd: return vm::Opcode::kAnd;
    case Op::kOr: return vm::Opcode::kOr;
    case Op::kXor: return vm::Opcode::kXor;
    case Op::kShl: return vm::Opcode::kShl;
    case Op::kShr: return vm::Opcode::kShr;
    case Op::kCeq: return vm::Opcode::kCeq;
    case Op::kCne: return vm::Opcode::kCne;
    case Op::kCult: return vm::Opcode::kCult;
    case Op::kCule: return vm::Opcode::kCule;
    case Op::kFadd: return vm::Opcode::kFadd;
    case Op::kFsub: return vm::Opcode::kFsub;
    case Op::kFmul: return vm::Opcode::kFmul;
    case Op::kFdiv: return vm::Opcode::kFdiv;
    case Op::kFadd32: return vm::Opcode::kFadd32;
    case Op::kFmul32: return vm::Opcode::kFmul32;
    default:
      return internal_error("kir: not an ALU op");
  }
}

}  // namespace

StatusOr<vm::Program> emit_vm(const Def& def) {
  TC_RETURN_IF_ERROR(verify(def));
  vm::Assembler a;
  // One vm label per branch-target instruction index, bound right before
  // that instruction is emitted; the pinned bytes in kir_test depend on
  // this placement.
  std::vector<vm::Assembler::Label> labels(def.code.size(), 0);
  std::vector<bool> is_target(def.code.size(), false);
  for (const Inst& in : def.code) {
    if (in.op == Op::kBr || in.op == Op::kBrz || in.op == Op::kBrnz) {
      is_target[in.imm] = true;
    }
  }
  for (std::size_t i = 0; i < def.code.size(); ++i) {
    if (is_target[i]) labels[i] = a.make_label();
  }
  for (std::size_t i = 0; i < def.code.size(); ++i) {
    if (is_target[i]) a.bind(labels[i]);
    const Inst& in = def.code[i];
    switch (in.op) {
      case Op::kConst:
      case Op::kConstF:
        // Same path for both: the assembler's li() makes the same
        // kLdi-vs-pool choice as its lf(), since lf() always spills (f64
        // bit patterns are never sext32).
        a.li(in.a, in.wide);
        break;
      case Op::kMov:
        a.mov(in.a, in.b);
        break;
      case Op::kLd8:
        a.ld8(in.a, in.b, in.imm);
        break;
      case Op::kLd32:
        a.ld32(in.a, in.b, in.imm);
        break;
      case Op::kLd64:
        a.ld64(in.a, in.b, in.imm);
        break;
      case Op::kSt32:
        a.st32(in.a, in.b, in.imm);
        break;
      case Op::kSt64:
        a.st64(in.a, in.b, in.imm);
        break;
      case Op::kLdPayload:
        a.ld64(in.a, vm::kRegPayload, in.imm);
        break;
      case Op::kStPayload:
        a.st64(in.a, vm::kRegPayload, in.imm);
        break;
      case Op::kLdShardWord:
        a.ld64(in.a, in.b,
               in.imm * static_cast<std::int32_t>(workloads::kShardWordBytes));
        break;
      case Op::kStShardWord:
        a.st64(in.a, in.b,
               in.imm * static_cast<std::int32_t>(workloads::kShardWordBytes));
        break;
      case Op::kBr:
        a.br(labels[in.imm]);
        break;
      case Op::kBrz:
        a.brz(in.a, labels[in.imm]);
        break;
      case Op::kBrnz:
        a.brnz(in.a, labels[in.imm]);
        break;
      case Op::kHook:
        a.hook(in.hook, in.b, in.c);
        break;
      case Op::kForward:
        a.hook(vm::HookId::kForward, in.a, in.c);
        break;
      case Op::kReply:
        a.hook(vm::HookId::kReply, in.a, in.c);
        break;
      case Op::kRet:
        a.ret();
        break;
      case Op::kGuard:
      case Op::kTrace:
        return failed_precondition(
            "kir: " + def.name + " still carries " +
            std::string(op_name(in.op)) +
            " markers — emit from prepared_def(), not the raw def");
      default: {
        TC_ASSIGN_OR_RETURN(vm::Opcode op, map_alu(in.op));
        a.alu(op, in.a, in.b, in.c);
        break;
      }
    }
  }
  return a.finish(def.reg_count);
}

}  // namespace tc::kir
