#include "vm/bytecode.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/hash.hpp"

namespace tc::vm {

namespace {

/// Which operand fields of an instruction name registers. Everything the
/// validator needs to know about an opcode lives in this table.
struct OpTraits {
  bool reg_a = false;
  bool reg_b = false;
  bool reg_c = false;
  bool branch = false;  ///< imm is an instruction index
  bool pool = false;    ///< imm indexes the constant pool
  bool terminator = false;  ///< control never falls through (kBr / kRet)
};

OpTraits traits_of(Opcode op) {
  switch (op) {
    case Opcode::kNop: return {};
    case Opcode::kLdi: return {.reg_a = true};
    case Opcode::kLdk: return {.reg_a = true, .pool = true};
    case Opcode::kMov: return {.reg_a = true, .reg_b = true};
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kUdiv:
    case Opcode::kUrem:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kCeq:
    case Opcode::kCne:
    case Opcode::kCult:
    case Opcode::kCule:
    case Opcode::kFadd:
    case Opcode::kFsub:
    case Opcode::kFmul:
    case Opcode::kFdiv:
    case Opcode::kFadd32:
    case Opcode::kFmul32:
      return {.reg_a = true, .reg_b = true, .reg_c = true};
    case Opcode::kLd8:
    case Opcode::kLd32:
    case Opcode::kLd64:
    case Opcode::kSt32:
    case Opcode::kSt64:
      return {.reg_a = true, .reg_b = true};
    case Opcode::kBr: return {.branch = true, .terminator = true};
    case Opcode::kBrz:
    case Opcode::kBrnz:
      return {.reg_a = true, .branch = true};
    case Opcode::kHook: return {};  // validated specially (arity table)
    case Opcode::kRet: return {.terminator = true};
  }
  return {};
}

}  // namespace

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kNop: return "nop";
    case Opcode::kLdi: return "ldi";
    case Opcode::kLdk: return "ldk";
    case Opcode::kMov: return "mov";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kUdiv: return "udiv";
    case Opcode::kUrem: return "urem";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kShl: return "shl";
    case Opcode::kShr: return "shr";
    case Opcode::kCeq: return "ceq";
    case Opcode::kCne: return "cne";
    case Opcode::kCult: return "cult";
    case Opcode::kCule: return "cule";
    case Opcode::kFadd: return "fadd";
    case Opcode::kFsub: return "fsub";
    case Opcode::kFmul: return "fmul";
    case Opcode::kFdiv: return "fdiv";
    case Opcode::kFadd32: return "fadd32";
    case Opcode::kFmul32: return "fmul32";
    case Opcode::kLd8: return "ld8";
    case Opcode::kLd32: return "ld32";
    case Opcode::kLd64: return "ld64";
    case Opcode::kSt32: return "st32";
    case Opcode::kSt64: return "st64";
    case Opcode::kBr: return "br";
    case Opcode::kBrz: return "brz";
    case Opcode::kBrnz: return "brnz";
    case Opcode::kHook: return "hook";
    case Opcode::kRet: return "ret";
  }
  return "bad";
}

const char* hook_name(HookId hook) {
  switch (hook) {
    case HookId::kTarget: return "target";
    case HookId::kNode: return "node";
    case HookId::kPeerCount: return "peer_count";
    case HookId::kSelfPeer: return "self_peer";
    case HookId::kShardBase: return "shard_base";
    case HookId::kShardSize: return "shard_size";
    case HookId::kForward: return "forward";
    case HookId::kInject: return "inject";
    case HookId::kReply: return "reply";
    case HookId::kRemoteWrite: return "remote_write";
    case HookId::kHllGuard: return "hll_guard";
    case HookId::kSin: return "sin";
    case HookId::kShardInfo: return "shard_info";
  }
  return "bad";
}

unsigned hook_arity(HookId hook) {
  switch (hook) {
    case HookId::kTarget:
    case HookId::kNode:
    case HookId::kPeerCount:
    case HookId::kSelfPeer:
    case HookId::kShardBase:
    case HookId::kShardSize:
    case HookId::kHllGuard:
    case HookId::kShardInfo:
      return 0;
    case HookId::kSin: return 1;
    case HookId::kReply: return 2;
    case HookId::kForward: return 3;
    case HookId::kInject:
    case HookId::kRemoteWrite:
      return 4;
  }
  return 0;
}

bool hook_has_result(HookId hook) { return hook != HookId::kHllGuard; }

unsigned hook_result_span(HookId hook) {
  return hook == HookId::kShardInfo ? 4 : 1;
}

// --- validation ---------------------------------------------------------------

Status Program::validate(std::uint16_t reg_count,
                         const std::vector<Instr>& code,
                         const std::vector<std::uint64_t>& pool) {
  if (reg_count < 2 || reg_count > kMaxRegisters) {
    return invalid_argument("vm: register count " + std::to_string(reg_count) +
                            " outside [2, " + std::to_string(kMaxRegisters) +
                            "]");
  }
  if (code.empty()) return invalid_argument("vm: empty program");

  auto at = [](std::size_t pc) { return "vm: instr " + std::to_string(pc); };
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    const Instr& in = code[pc];
    if (static_cast<std::uint8_t>(in.op) >= kOpcodeCount) {
      return invalid_argument(at(pc) + ": unknown opcode " +
                              std::to_string(static_cast<unsigned>(in.op)));
    }
    if (in.op == Opcode::kHook) {
      if (in.a >= kHookCount) {
        return invalid_argument(at(pc) + ": unknown hook id " +
                                std::to_string(in.a));
      }
      const HookId hook = static_cast<HookId>(in.a);
      if (hook_has_result(hook) &&
          static_cast<unsigned>(in.b) + hook_result_span(hook) > reg_count) {
        return invalid_argument(at(pc) + ": hook result register r" +
                                std::to_string(in.b) + " out of range");
      }
      // The arg-base operand must be a valid register even for arity-0
      // hooks: the interpreter forms &regs[c] before dispatching.
      const unsigned arity = hook_arity(hook);
      if (in.c >= reg_count ||
          static_cast<unsigned>(in.c) + arity > reg_count) {
        return invalid_argument(at(pc) + ": hook arguments r" +
                                std::to_string(in.c) + "..r" +
                                std::to_string(in.c + (arity > 0 ? arity - 1
                                                                 : 0)) +
                                " out of range");
      }
      continue;
    }
    const OpTraits traits = traits_of(in.op);
    if (traits.reg_a && in.a >= reg_count) {
      return invalid_argument(at(pc) + ": register r" + std::to_string(in.a) +
                              " out of range");
    }
    if (traits.reg_b && in.b >= reg_count) {
      return invalid_argument(at(pc) + ": register r" + std::to_string(in.b) +
                              " out of range");
    }
    if (traits.reg_c && in.c >= reg_count) {
      return invalid_argument(at(pc) + ": register r" + std::to_string(in.c) +
                              " out of range");
    }
    if (traits.branch &&
        (in.imm < 0 || static_cast<std::size_t>(in.imm) >= code.size())) {
      return invalid_argument(at(pc) + ": branch target " +
                              std::to_string(in.imm) + " out of range");
    }
    if (traits.pool &&
        (in.imm < 0 || static_cast<std::size_t>(in.imm) >= pool.size())) {
      return invalid_argument(at(pc) + ": pool index " +
                              std::to_string(in.imm) + " out of range");
    }
  }
  // Execution must not fall off the end: the last instruction has to be a
  // terminator (conditional branches fall through when not taken).
  if (!traits_of(code.back().op).terminator) {
    return invalid_argument(
        "vm: program may fall off the end (last instruction is " +
        std::string(opcode_name(code.back().op)) + ", not ret/br)");
  }
  return Status::ok();
}

// --- serialization ------------------------------------------------------------

std::size_t Program::serialized_size() const {
  return 4 + 2 + 2 + 4 + 4 + code_.size() * 8 + pool_.size() * 8 + 8;
}

Bytes Program::serialize() const {
  ByteWriter w;
  w.u32(kProgramMagic);
  w.u16(kProgramVersion);
  w.u16(reg_count_);
  w.u32(static_cast<std::uint32_t>(code_.size()));
  w.u32(static_cast<std::uint32_t>(pool_.size()));
  for (const Instr& in : code_) {
    w.u8(static_cast<std::uint8_t>(in.op));
    w.u8(in.a);
    w.u8(in.b);
    w.u8(in.c);
    w.u32(static_cast<std::uint32_t>(in.imm));
  }
  for (std::uint64_t k : pool_) w.u64(k);
  w.u64(fnv1a64(as_span(w.bytes())));
  return std::move(w).take();
}

StatusOr<Program> Program::deserialize(ByteSpan data) {
  constexpr std::size_t kMinSize = 4 + 2 + 2 + 4 + 4 + 8 + 8;  // 1 instr
  if (data.size() < kMinSize) {
    return data_loss("vm: program too short (" + std::to_string(data.size()) +
                     " bytes)");
  }
  {
    ByteReader tail(data.subspan(data.size() - 8));
    std::uint64_t stored = 0;
    TC_RETURN_IF_ERROR(tail.u64(stored));
    if (stored != fnv1a64(data.subspan(0, data.size() - 8))) {
      return data_loss("vm: program checksum mismatch");
    }
  }
  ByteReader r(data.subspan(0, data.size() - 8));
  std::uint32_t magic = 0, code_count = 0, pool_count = 0;
  std::uint16_t version = 0, reg_count = 0;
  TC_RETURN_IF_ERROR(r.u32(magic));
  if (magic != kProgramMagic) {
    return data_loss("vm: bad program magic " + std::to_string(magic));
  }
  TC_RETURN_IF_ERROR(r.u16(version));
  if (version != kProgramVersion) {
    return data_loss("vm: unsupported program version " +
                     std::to_string(version));
  }
  TC_RETURN_IF_ERROR(r.u16(reg_count));
  TC_RETURN_IF_ERROR(r.u32(code_count));
  TC_RETURN_IF_ERROR(r.u32(pool_count));
  // Counts are attacker-controlled: check against the actual remaining bytes
  // before any allocation sized from them.
  if (r.remaining() !=
      static_cast<std::size_t>(code_count) * 8 +
          static_cast<std::size_t>(pool_count) * 8) {
    return data_loss("vm: section sizes disagree with buffer length");
  }

  Program program;
  program.reg_count_ = reg_count;
  program.code_.reserve(code_count);
  for (std::uint32_t i = 0; i < code_count; ++i) {
    Instr in;
    std::uint8_t op = 0;
    std::uint32_t imm = 0;
    TC_RETURN_IF_ERROR(r.u8(op));
    TC_RETURN_IF_ERROR(r.u8(in.a));
    TC_RETURN_IF_ERROR(r.u8(in.b));
    TC_RETURN_IF_ERROR(r.u8(in.c));
    TC_RETURN_IF_ERROR(r.u32(imm));
    in.op = static_cast<Opcode>(op);
    in.imm = static_cast<std::int32_t>(imm);
    program.code_.push_back(in);
  }
  program.pool_.reserve(pool_count);
  for (std::uint32_t i = 0; i < pool_count; ++i) {
    std::uint64_t k = 0;
    TC_RETURN_IF_ERROR(r.u64(k));
    program.pool_.push_back(k);
  }
  TC_RETURN_IF_ERROR(
      validate(program.reg_count_, program.code_, program.pool_));
  return program;
}

// --- disassembly --------------------------------------------------------------

std::string disassemble(const Program& program) {
  std::string out;
  char line[128];
  std::snprintf(line, sizeof(line), "; portable bytecode: %zu instrs, %u regs, %zu pool\n",
                program.code().size(), program.reg_count(),
                program.pool().size());
  out += line;
  for (std::size_t k = 0; k < program.pool().size(); ++k) {
    std::snprintf(line, sizeof(line), "; k%zu = 0x%016" PRIx64 "\n", k,
                  program.pool()[k]);
    out += line;
  }
  for (std::size_t pc = 0; pc < program.code().size(); ++pc) {
    const Instr& in = program.code()[pc];
    const OpTraits traits = traits_of(in.op);
    const char* name = opcode_name(in.op);
    switch (in.op) {
      case Opcode::kNop:
      case Opcode::kRet:
        std::snprintf(line, sizeof(line), "%04zu: %s\n", pc, name);
        break;
      case Opcode::kLdi:
        std::snprintf(line, sizeof(line), "%04zu: %-6s r%u, %d\n", pc, name,
                      in.a, in.imm);
        break;
      case Opcode::kLdk:
        std::snprintf(line, sizeof(line), "%04zu: %-6s r%u, k%d\n", pc, name,
                      in.a, in.imm);
        break;
      case Opcode::kMov:
        std::snprintf(line, sizeof(line), "%04zu: %-6s r%u, r%u\n", pc, name,
                      in.a, in.b);
        break;
      case Opcode::kLd8:
      case Opcode::kLd32:
      case Opcode::kLd64:
        std::snprintf(line, sizeof(line), "%04zu: %-6s r%u, [r%u%+d]\n", pc,
                      name, in.a, in.b, in.imm);
        break;
      case Opcode::kSt32:
      case Opcode::kSt64:
        std::snprintf(line, sizeof(line), "%04zu: %-6s [r%u%+d], r%u\n", pc,
                      name, in.b, in.imm, in.a);
        break;
      case Opcode::kBr:
        std::snprintf(line, sizeof(line), "%04zu: %-6s %d\n", pc, name,
                      in.imm);
        break;
      case Opcode::kBrz:
      case Opcode::kBrnz:
        std::snprintf(line, sizeof(line), "%04zu: %-6s r%u, %d\n", pc, name,
                      in.a, in.imm);
        break;
      case Opcode::kHook: {
        const HookId hook = static_cast<HookId>(in.a);
        const char* hname = in.a < kHookCount ? hook_name(hook) : "bad";
        if (in.a < kHookCount && hook_arity(hook) > 0) {
          std::snprintf(line, sizeof(line),
                        "%04zu: %-6s %s, r%u, args=r%u..r%u\n", pc, name,
                        hname, in.b, in.c,
                        in.c + hook_arity(hook) - 1);
        } else {
          std::snprintf(line, sizeof(line), "%04zu: %-6s %s, r%u\n", pc, name,
                        hname, in.b);
        }
        break;
      }
      default:
        if (traits.reg_c) {
          std::snprintf(line, sizeof(line), "%04zu: %-6s r%u, r%u, r%u\n", pc,
                        name, in.a, in.b, in.c);
        } else {
          std::snprintf(line, sizeof(line), "%04zu: %-6s r%u, r%u\n", pc,
                        name, in.a, in.b);
        }
        break;
    }
    out += line;
  }
  return out;
}

// --- assembler ----------------------------------------------------------------

Assembler::Label Assembler::make_label() {
  labels_.push_back(-1);
  return labels_.size() - 1;
}

void Assembler::bind(Label label) {
  labels_[label] = static_cast<std::ptrdiff_t>(code_.size());
}

void Assembler::emit(Opcode op, std::uint8_t a, std::uint8_t b,
                     std::uint8_t c, std::int32_t imm) {
  code_.push_back(Instr{op, a, b, c, imm});
}

std::uint32_t Assembler::pool_index(std::uint64_t value) {
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (pool_[i] == value) return static_cast<std::uint32_t>(i);
  }
  pool_.push_back(value);
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Assembler::li(std::uint8_t dst, std::uint64_t value) {
  const auto sext = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(static_cast<std::int32_t>(value)));
  if (sext == value) {
    emit(Opcode::kLdi, dst, 0, 0, static_cast<std::int32_t>(value));
  } else {
    emit(Opcode::kLdk, dst, 0, 0,
         static_cast<std::int32_t>(pool_index(value)));
  }
}

void Assembler::lf(std::uint8_t dst, double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  li(dst, bits);
}

void Assembler::mov(std::uint8_t dst, std::uint8_t src) {
  emit(Opcode::kMov, dst, src);
}

void Assembler::alu(Opcode op, std::uint8_t dst, std::uint8_t lhs,
                    std::uint8_t rhs) {
  emit(op, dst, lhs, rhs);
}

void Assembler::ld8(std::uint8_t dst, std::uint8_t base, std::int32_t offset) {
  emit(Opcode::kLd8, dst, base, 0, offset);
}
void Assembler::ld32(std::uint8_t dst, std::uint8_t base,
                     std::int32_t offset) {
  emit(Opcode::kLd32, dst, base, 0, offset);
}
void Assembler::ld64(std::uint8_t dst, std::uint8_t base,
                     std::int32_t offset) {
  emit(Opcode::kLd64, dst, base, 0, offset);
}
void Assembler::st32(std::uint8_t src, std::uint8_t base,
                     std::int32_t offset) {
  emit(Opcode::kSt32, src, base, 0, offset);
}
void Assembler::st64(std::uint8_t src, std::uint8_t base,
                     std::int32_t offset) {
  emit(Opcode::kSt64, src, base, 0, offset);
}

void Assembler::br(Label target) {
  fixups_.emplace_back(code_.size(), target);
  emit(Opcode::kBr);
}
void Assembler::brz(std::uint8_t cond, Label target) {
  fixups_.emplace_back(code_.size(), target);
  emit(Opcode::kBrz, cond);
}
void Assembler::brnz(std::uint8_t cond, Label target) {
  fixups_.emplace_back(code_.size(), target);
  emit(Opcode::kBrnz, cond);
}

void Assembler::hook(HookId hook, std::uint8_t dst, std::uint8_t arg_base) {
  emit(Opcode::kHook, static_cast<std::uint8_t>(hook), dst, arg_base);
}

void Assembler::ret() { emit(Opcode::kRet); }

StatusOr<Program> Assembler::finish(std::uint16_t reg_count) {
  for (const auto& [pc, label] : fixups_) {
    if (labels_[label] < 0) {
      return internal_error("vm assembler: unbound label " +
                            std::to_string(label));
    }
    code_[pc].imm = static_cast<std::int32_t>(labels_[label]);
  }
  TC_RETURN_IF_ERROR(Program::validate(reg_count, code_, pool_));
  Program program;
  program.reg_count_ = reg_count;
  program.code_ = std::move(code_);
  program.pool_ = std::move(pool_);
  code_.clear();
  pool_.clear();
  labels_.clear();
  fixups_.clear();
  return program;
}

}  // namespace tc::vm
