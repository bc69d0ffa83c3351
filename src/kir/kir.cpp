#include "kir/kir.hpp"

#include <sstream>

namespace tc::kir {

namespace {

bool is_alu(Op op) {
  switch (op) {
    case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kUdiv:
    case Op::kUrem: case Op::kAnd: case Op::kOr: case Op::kXor:
    case Op::kShl: case Op::kShr: case Op::kCeq: case Op::kCne:
    case Op::kCult: case Op::kCule: case Op::kFadd: case Op::kFsub:
    case Op::kFmul: case Op::kFdiv: case Op::kFadd32: case Op::kFmul32:
      return true;
    default:
      return false;
  }
}

bool is_branch(Op op) {
  return op == Op::kBr || op == Op::kBrz || op == Op::kBrnz;
}

/// Ops execution can never fall through past.
bool is_terminator(Op op) { return op == Op::kRet || op == Op::kBr; }

Status err(const Def& def, std::size_t index, const std::string& what) {
  return invalid_argument("kir: " + def.name + " instr " +
                          std::to_string(index) + ": " + what);
}

/// Deletes every instruction matching `victim`, remapping branch targets so
/// a branch that landed on a deleted instruction lands on its successor.
Def erase_op(Def def, Op victim) {
  std::vector<std::int32_t> remap(def.code.size(), 0);
  std::int32_t next = 0;
  for (std::size_t i = 0; i < def.code.size(); ++i) {
    // A deleted instruction maps to the next kept one (deleted markers are
    // never terminal, so a successor always exists).
    remap[i] = next;
    if (def.code[i].op != victim) ++next;
  }
  std::vector<Inst> kept;
  kept.reserve(def.code.size());
  for (const Inst& in : def.code) {
    if (in.op == victim) continue;
    Inst out = in;
    if (is_branch(out.op)) out.imm = remap[out.imm];
    kept.push_back(out);
  }
  def.code = std::move(kept);
  return def;
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kConst: return "const";
    case Op::kConstF: return "constf";
    case Op::kMov: return "mov";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kUdiv: return "udiv";
    case Op::kUrem: return "urem";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kShl: return "shl";
    case Op::kShr: return "shr";
    case Op::kCeq: return "ceq";
    case Op::kCne: return "cne";
    case Op::kCult: return "cult";
    case Op::kCule: return "cule";
    case Op::kFadd: return "fadd";
    case Op::kFsub: return "fsub";
    case Op::kFmul: return "fmul";
    case Op::kFdiv: return "fdiv";
    case Op::kFadd32: return "fadd32";
    case Op::kFmul32: return "fmul32";
    case Op::kLd8: return "ld8";
    case Op::kLd32: return "ld32";
    case Op::kLd64: return "ld64";
    case Op::kSt32: return "st32";
    case Op::kSt64: return "st64";
    case Op::kLdPayload: return "ld.payload";
    case Op::kStPayload: return "st.payload";
    case Op::kLdShardWord: return "ld.shard";
    case Op::kStShardWord: return "st.shard";
    case Op::kBr: return "br";
    case Op::kBrz: return "brz";
    case Op::kBrnz: return "brnz";
    case Op::kHook: return "hook";
    case Op::kForward: return "forward";
    case Op::kReply: return "reply";
    case Op::kGuard: return "guard";
    case Op::kTrace: return "trace";
    case Op::kRet: return "ret";
  }
  return "?";
}

Status verify(const Def& def) {
  if (def.reg_count < 2 || def.reg_count > vm::kMaxRegisters) {
    return invalid_argument("kir: " + def.name + ": register count " +
                            std::to_string(def.reg_count) +
                            " outside [2, " +
                            std::to_string(vm::kMaxRegisters) + "]");
  }
  if (def.code.empty()) {
    return invalid_argument("kir: " + def.name + ": empty definition");
  }
  const std::size_t size = def.code.size();
  auto check_reg = [&](std::size_t i, unsigned r) -> Status {
    if (r >= def.reg_count) {
      return err(def, i, "register r" + std::to_string(r) + " out of range");
    }
    return Status::ok();
  };
  auto check_target = [&](std::size_t i, std::int32_t target) -> Status {
    if (target < 0 || static_cast<std::size_t>(target) >= size) {
      return err(def, i,
                 "branch target " + std::to_string(target) + " out of range");
    }
    return Status::ok();
  };
  // kForward/kReply are terminal sends: the instruction after them must be
  // kRet, so a second send can never execute on the same path by falling
  // through (the double-send lockstep bug the legacy emitters could only
  // catch in review).
  auto check_terminal_send = [&](std::size_t i) -> Status {
    if (i + 1 >= size || def.code[i + 1].op != Op::kRet) {
      const char* what =
          (i + 1 < size && (def.code[i + 1].op == Op::kReply ||
                            def.code[i + 1].op == Op::kForward))
              ? "send after send on the same path (reply/forward must be "
                "immediately followed by ret)"
              : "forward/reply must be immediately followed by ret";
      return err(def, i, what);
    }
    return Status::ok();
  };

  for (std::size_t i = 0; i < size; ++i) {
    const Inst& in = def.code[i];
    if (in.release && in.op != Op::kSt64) {
      return err(def, i, "release ordering applies only to st64");
    }
    if (is_alu(in.op)) {
      TC_RETURN_IF_ERROR(check_reg(i, in.a));
      TC_RETURN_IF_ERROR(check_reg(i, in.b));
      TC_RETURN_IF_ERROR(check_reg(i, in.c));
      continue;
    }
    switch (in.op) {
      case Op::kConst:
      case Op::kConstF:
        TC_RETURN_IF_ERROR(check_reg(i, in.a));
        break;
      case Op::kMov:
        TC_RETURN_IF_ERROR(check_reg(i, in.a));
        TC_RETURN_IF_ERROR(check_reg(i, in.b));
        break;
      case Op::kLd8:
      case Op::kLd32:
      case Op::kLd64:
      case Op::kSt32:
      case Op::kSt64:
        TC_RETURN_IF_ERROR(check_reg(i, in.a));
        TC_RETURN_IF_ERROR(check_reg(i, in.b));
        break;
      case Op::kLdPayload:
      case Op::kStPayload:
        TC_RETURN_IF_ERROR(check_reg(i, in.a));
        if (in.imm < 0) return err(def, i, "negative payload offset");
        if (def.min_payload_bytes != 0 &&
            static_cast<std::uint32_t>(in.imm) + 8 > def.min_payload_bytes) {
          return err(def, i,
                     "payload word at byte " + std::to_string(in.imm) +
                         " exceeds the declared " +
                         std::to_string(def.min_payload_bytes) +
                         "-byte payload floor");
        }
        break;
      case Op::kLdShardWord:
      case Op::kStShardWord:
        TC_RETURN_IF_ERROR(check_reg(i, in.a));
        TC_RETURN_IF_ERROR(check_reg(i, in.b));
        if (in.imm < 0) return err(def, i, "negative shard word index");
        if (def.shard_record_words != 0 &&
            static_cast<std::uint32_t>(in.imm) >= def.shard_record_words) {
          return err(def, i,
                     "shard word " + std::to_string(in.imm) +
                         " out of range for a " +
                         std::to_string(def.shard_record_words) +
                         "-word record");
        }
        break;
      case Op::kBr:
        TC_RETURN_IF_ERROR(check_target(i, in.imm));
        break;
      case Op::kBrz:
      case Op::kBrnz:
        TC_RETURN_IF_ERROR(check_reg(i, in.a));
        TC_RETURN_IF_ERROR(check_target(i, in.imm));
        break;
      case Op::kHook: {
        const auto id = static_cast<std::uint8_t>(in.hook);
        if (id >= vm::kHookCount) {
          return err(def, i, "unknown hook id " + std::to_string(id));
        }
        if (vm::hook_has_result(in.hook)) {
          TC_RETURN_IF_ERROR(
              check_reg(i, in.b + vm::hook_result_span(in.hook) - 1));
        }
        const unsigned arity = vm::hook_arity(in.hook);
        if (arity > 0) TC_RETURN_IF_ERROR(check_reg(i, in.c + arity - 1));
        break;
      }
      case Op::kForward:
        TC_RETURN_IF_ERROR(check_reg(i, in.a));
        TC_RETURN_IF_ERROR(check_reg(i, in.c + 2));
        TC_RETURN_IF_ERROR(check_terminal_send(i));
        break;
      case Op::kReply:
        TC_RETURN_IF_ERROR(check_reg(i, in.a));
        TC_RETURN_IF_ERROR(check_reg(i, in.c + 1));
        TC_RETURN_IF_ERROR(check_terminal_send(i));
        break;
      case Op::kGuard:
      case Op::kTrace:
      case Op::kRet:
        break;
      default:
        return err(def, i, "bad opcode");
    }
  }
  if (!is_terminator(def.code.back().op)) {
    return invalid_argument("kir: " + def.name +
                            ": execution can fall off the end (last "
                            "instruction must be ret or br)");
  }
  return Status::ok();
}

Def resolve_guards(Def def, bool enable) {
  if (!enable) return erase_op(std::move(def), Op::kGuard);
  for (Inst& in : def.code) {
    if (in.op != Op::kGuard) continue;
    in = Inst{};
    in.op = Op::kHook;
    in.hook = vm::HookId::kHllGuard;
  }
  return def;
}

Def strip_traces(Def def) { return erase_op(std::move(def), Op::kTrace); }

std::string dump(const Def& def) {
  std::ostringstream out;
  out << "kernel " << def.name << "  regs=" << def.reg_count;
  if (def.min_payload_bytes != 0) {
    out << "  payload>=" << def.min_payload_bytes << "B";
  }
  if (def.shard_record_words != 0) {
    out << "  record=" << def.shard_record_words << "w";
  }
  out << "\n";
  for (std::size_t i = 0; i < def.code.size(); ++i) {
    const Inst& in = def.code[i];
    out << (i < 10 ? "  " : " ") << i << "  " << op_name(in.op)
        << (in.release ? ".release" : "");
    if (is_alu(in.op)) {
      out << " r" << unsigned(in.a) << ", r" << unsigned(in.b) << ", r"
          << unsigned(in.c);
    } else {
      switch (in.op) {
        case Op::kConst:
          out << " r" << unsigned(in.a) << ", " << in.wide;
          break;
        case Op::kConstF: {
          double v;
          static_assert(sizeof(v) == sizeof(in.wide));
          __builtin_memcpy(&v, &in.wide, sizeof(v));
          out << " r" << unsigned(in.a) << ", " << v;
          break;
        }
        case Op::kMov:
          out << " r" << unsigned(in.a) << ", r" << unsigned(in.b);
          break;
        case Op::kLd8:
        case Op::kLd32:
        case Op::kLd64:
          out << " r" << unsigned(in.a) << ", [r" << unsigned(in.b) << " + "
              << in.imm << "]";
          break;
        case Op::kSt32:
        case Op::kSt64:
          out << " [r" << unsigned(in.b) << " + " << in.imm << "], r"
              << unsigned(in.a);
          break;
        case Op::kLdPayload:
          out << " r" << unsigned(in.a) << ", payload[" << in.imm << "]";
          break;
        case Op::kStPayload:
          out << " payload[" << in.imm << "], r" << unsigned(in.a);
          break;
        case Op::kLdShardWord:
          out << " r" << unsigned(in.a) << ", r" << unsigned(in.b)
              << ".word" << in.imm;
          break;
        case Op::kStShardWord:
          out << " r" << unsigned(in.b) << ".word" << in.imm << ", r"
              << unsigned(in.a);
          break;
        case Op::kBr:
          out << " -> " << in.imm;
          break;
        case Op::kBrz:
        case Op::kBrnz:
          out << " r" << unsigned(in.a) << " -> " << in.imm;
          break;
        case Op::kHook:
          out << " " << vm::hook_name(in.hook) << ", r" << unsigned(in.b)
              << ", args r" << unsigned(in.c);
          break;
        case Op::kForward:
        case Op::kReply:
          out << " rc r" << unsigned(in.a) << ", args r" << unsigned(in.c);
          break;
        case Op::kTrace:
          out << " #" << in.imm;
          break;
        case Op::kGuard:
        case Op::kRet:
          break;
        default:
          break;
      }
    }
    out << "\n";
  }
  return out.str();
}

// --- Builder ------------------------------------------------------------------

void Builder::emit(Op op, std::uint8_t a, std::uint8_t b, std::uint8_t c,
                   std::int32_t imm, std::uint64_t wide, vm::HookId hook) {
  Inst in;
  in.op = op;
  in.a = a;
  in.b = b;
  in.c = c;
  in.imm = imm;
  in.wide = wide;
  in.hook = hook;
  code_.push_back(in);
}

Builder::Label Builder::make_label() {
  labels_.push_back(-1);
  return labels_.size() - 1;
}

void Builder::bind(Label label) {
  labels_[label] = static_cast<std::ptrdiff_t>(code_.size());
}

Builder::Label Builder::loop() {
  const Label head = make_label();
  bind(head);
  open_loops_.push_back(head);
  return head;
}

void Builder::close_loop(Label head) {
  br(head);
  if (!open_loops_.empty() && open_loops_.back() == head) {
    open_loops_.pop_back();
  }
}

void Builder::close_loop_nz(std::uint8_t cond, Label head) {
  brnz(cond, head);
  if (!open_loops_.empty() && open_loops_.back() == head) {
    open_loops_.pop_back();
  }
}

void Builder::iconst(std::uint8_t dst, std::uint64_t value) {
  emit(Op::kConst, dst, 0, 0, 0, value);
}

void Builder::fconst(std::uint8_t dst, double value) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  emit(Op::kConstF, dst, 0, 0, 0, bits);
}

void Builder::mov(std::uint8_t dst, std::uint8_t src) {
  emit(Op::kMov, dst, src);
}

void Builder::alu(Op op, std::uint8_t dst, std::uint8_t lhs,
                  std::uint8_t rhs) {
  emit(op, dst, lhs, rhs);
}

void Builder::ld8(std::uint8_t dst, std::uint8_t base, std::int32_t offset) {
  emit(Op::kLd8, dst, base, 0, offset);
}
void Builder::ld32(std::uint8_t dst, std::uint8_t base, std::int32_t offset) {
  emit(Op::kLd32, dst, base, 0, offset);
}
void Builder::ld64(std::uint8_t dst, std::uint8_t base, std::int32_t offset) {
  emit(Op::kLd64, dst, base, 0, offset);
}
void Builder::st32(std::uint8_t src, std::uint8_t base, std::int32_t offset) {
  emit(Op::kSt32, src, base, 0, offset);
}
void Builder::st64(std::uint8_t src, std::uint8_t base, std::int32_t offset) {
  emit(Op::kSt64, src, base, 0, offset);
}
void Builder::st64_release(std::uint8_t src, std::uint8_t base,
                           std::int32_t offset) {
  st64(src, base, offset);
  code_.back().release = true;
}

void Builder::ld_payload(std::uint8_t dst, std::int32_t byte_offset) {
  emit(Op::kLdPayload, dst, 0, 0, byte_offset);
}
void Builder::st_payload(std::uint8_t src, std::int32_t byte_offset) {
  emit(Op::kStPayload, src, 0, 0, byte_offset);
}
void Builder::ld_shard_word(std::uint8_t dst, std::uint8_t record_base,
                            std::int32_t word) {
  emit(Op::kLdShardWord, dst, record_base, 0, word);
}
void Builder::st_shard_word(std::uint8_t src, std::uint8_t record_base,
                            std::int32_t word) {
  emit(Op::kStShardWord, src, record_base, 0, word);
}

void Builder::br(Label target) {
  fixups_.emplace_back(code_.size(), target);
  emit(Op::kBr);
}
void Builder::brz(std::uint8_t cond, Label target) {
  fixups_.emplace_back(code_.size(), target);
  emit(Op::kBrz, cond);
}
void Builder::brnz(std::uint8_t cond, Label target) {
  fixups_.emplace_back(code_.size(), target);
  emit(Op::kBrnz, cond);
}

void Builder::hook(vm::HookId hook, std::uint8_t dst, std::uint8_t arg_base) {
  emit(Op::kHook, 0, dst, arg_base, 0, 0, hook);
}

void Builder::forward(std::uint8_t rc, std::uint8_t arg_base) {
  emit(Op::kForward, rc, 0, arg_base);
}

void Builder::reply(std::uint8_t rc, std::uint8_t arg_base) {
  emit(Op::kReply, rc, 0, arg_base);
}

void Builder::guard() { emit(Op::kGuard); }

void Builder::trace(std::int32_t tag) { emit(Op::kTrace, 0, 0, 0, tag); }

void Builder::ret() { emit(Op::kRet); }

StatusOr<Def> Builder::finish(std::string name) {
  if (!open_loops_.empty()) {
    return invalid_argument(
        "kir: " + name + ": unterminated loop (" +
        std::to_string(open_loops_.size()) +
        " open loop scope(s) without a close_loop back edge)");
  }
  for (const auto& [at, label] : fixups_) {
    if (labels_[label] < 0) {
      return invalid_argument("kir: " + name + ": unbound label used at instr " +
                              std::to_string(at));
    }
    code_[at].imm = static_cast<std::int32_t>(labels_[label]);
  }
  Def def;
  def.name = std::move(name);
  def.reg_count = reg_count_;
  def.min_payload_bytes = min_payload_bytes_;
  def.shard_record_words = shard_record_words_;
  def.code = std::move(code_);
  TC_RETURN_IF_ERROR(verify(def));
  code_.clear();
  labels_.clear();
  fixups_.clear();
  open_loops_.clear();
  return def;
}

}  // namespace tc::kir
