// Portable bytecode for ifunc kernels — the third code representation of
// this reproduction, next to LLVM bitcode ('TCFB') and AOT objects ('TCFO').
//
// The format is a small register machine over 64-bit registers:
//   * fixed 8-byte instructions: u8 opcode | u8 a | u8 b | u8 c | i32 imm;
//   * a u64 constant pool for immediates wider than 32 bits;
//   * floating point runs on the same registers via IEEE-754 bit patterns
//     (f64 in the full register, f32 in the low 32 bits);
//   * the runtime surface is the exact tc_ctx_* hook ABI of ir/abi.hpp,
//     reached through the kHook instruction.
//
// Programs are ISA-independent: one serialized program executes identically
// on every node through the interpreter (vm/interp.hpp) — the paper's
// cold-start JIT stall (the uncached-vs-cached gap of Tables I-III) is
// replaced by a zero-compile decode of a few hundred bytes.
//
// Entry convention (mirrors `void tc_main(ctx, payload, size)`):
//   r0 = payload pointer, r1 = payload size; ctx is implicit — only kHook
//   instructions can touch the node, through the hook table.
//
// Decoding is fully bounds-checked: register indices, branch targets,
// constant-pool indices and hook arities are validated before a program is
// accepted, so a malformed or truncated buffer is rejected as a Status, and
// an accepted program cannot index out of the register file or jump outside
// its code (no UB from wire input).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace tc::vm {

/// Registers are capped so a register index always fits the u8 operand
/// fields with room to spare; real kernels use ~a dozen.
inline constexpr std::uint16_t kMaxRegisters = 64;

/// First byte of a serialized program ('TCPV' little-endian).
inline constexpr std::uint32_t kProgramMagic = 0x56504354u;
inline constexpr std::uint16_t kProgramVersion = 1;

enum class Opcode : std::uint8_t {
  kNop = 0,
  // --- constants / moves ---------------------------------------------------
  kLdi,   ///< r[a] = sext64(imm)
  kLdk,   ///< r[a] = pool[imm]
  kMov,   ///< r[a] = r[b]
  // --- 64-bit integer ALU (a = dst, b/c = operands) ------------------------
  kAdd,
  kSub,
  kMul,
  kUdiv,  ///< traps (Status error) on zero divisor
  kUrem,  ///< traps (Status error) on zero divisor
  kAnd,
  kOr,
  kXor,
  kShl,   ///< shift amount masked to 6 bits
  kShr,   ///< logical; shift amount masked to 6 bits
  // --- compares: r[a] = (r[b] OP r[c]) ? 1 : 0 -----------------------------
  kCeq,
  kCne,
  kCult,
  kCule,
  // --- IEEE-754 double on full registers -----------------------------------
  kFadd,
  kFsub,
  kFmul,
  kFdiv,
  // --- IEEE-754 float in the low 32 bits (saxpy) ---------------------------
  kFadd32,
  kFmul32,
  // --- memory: address = r[b] + sext64(imm) --------------------------------
  kLd8,   ///< r[a] = zext(*(u8*)addr)
  kLd32,  ///< r[a] = zext(*(u32*)addr)
  kLd64,  ///< r[a] = *(u64*)addr
  kSt32,  ///< *(u32*)addr = low32(r[a])
  kSt64,  ///< *(u64*)addr = r[a]
  // --- control flow: target = imm (instruction index) ----------------------
  kBr,
  kBrz,   ///< branch when r[a] == 0
  kBrnz,  ///< branch when r[a] != 0
  // --- runtime hooks: a = HookId, b = result reg, c = first arg reg --------
  kHook,
  kRet,
};

/// Number of distinct opcodes: the validation bound, and the size of the
/// interpreter's dispatch table.
inline constexpr std::uint8_t kOpcodeCount =
    static_cast<std::uint8_t>(Opcode::kRet) + 1;

const char* opcode_name(Opcode op);

/// The tc_ctx_* hook surface reachable from bytecode, plus the external
/// libm `sin` dependency used by the sin_sum kernel. Ids are wire-stable.
enum class HookId : std::uint8_t {
  kTarget = 0,      ///< r[b] = tc_ctx_target(ctx)
  kNode,            ///< r[b] = tc_ctx_node(ctx)
  kPeerCount,       ///< r[b] = tc_ctx_peer_count(ctx)
  kSelfPeer,        ///< r[b] = tc_ctx_self_peer(ctx)
  kShardBase,       ///< r[b] = tc_ctx_shard_base(ctx)
  kShardSize,       ///< r[b] = tc_ctx_shard_size(ctx)
  kForward,         ///< r[b] = forward(r[c]=peer, r[c+1]=ptr, r[c+2]=size)
  kInject,          ///< r[b] = inject(r[c], r[c+1]=name, r[c+2], r[c+3])
  kReply,           ///< r[b] = reply(r[c]=ptr, r[c+1]=size)
  kRemoteWrite,     ///< r[b] = remote_write(r[c], r[c+1], r[c+2], r[c+3])
  kHllGuard,        ///< tc_hll_guard(ctx); no result
  kSin,             ///< r[b] = f64bits(sin(f64(r[c]))) — libm dependency
  /// r[b..b+3] = shard_size, self_peer, shard_base, peer_count: the whole
  /// shard-arrival preamble in one instruction. Traversal kernels open with
  /// it; the calibrated chaser keeps its original per-value hooks.
  kShardInfo,
};

inline constexpr std::uint8_t kHookCount =
    static_cast<std::uint8_t>(HookId::kShardInfo) + 1;

/// Number of consecutive result registers r[b]... a hook writes (most
/// write one; kShardInfo writes four).
unsigned hook_result_span(HookId hook);

const char* hook_name(HookId hook);
/// Number of argument registers r[c]..r[c+arity-1] the hook consumes.
unsigned hook_arity(HookId hook);
/// Whether the hook writes a result into r[b].
bool hook_has_result(HookId hook);

struct Instr {
  Opcode op = Opcode::kNop;
  std::uint8_t a = 0;
  std::uint8_t b = 0;
  std::uint8_t c = 0;
  std::int32_t imm = 0;
};

/// A validated portable-bytecode program.
class Program {
 public:
  std::uint16_t reg_count() const { return reg_count_; }
  const std::vector<Instr>& code() const { return code_; }
  const std::vector<std::uint64_t>& pool() const { return pool_; }

  /// Wire size of the serialized form.
  std::size_t serialized_size() const;

  Bytes serialize() const;

  /// Decodes and fully validates a serialized program. Every structural
  /// property the interpreter relies on is checked here: magic, version,
  /// checksum, exact length, register/branch/pool/hook operand ranges, and
  /// that execution cannot fall off the end of the code.
  static StatusOr<Program> deserialize(ByteSpan data);

  /// Validates an in-memory program (used by the assembler; deserialize
  /// applies the same rules).
  static Status validate(std::uint16_t reg_count,
                         const std::vector<Instr>& code,
                         const std::vector<std::uint64_t>& pool);

 private:
  friend class Assembler;
  std::uint16_t reg_count_ = 0;
  std::vector<Instr> code_;
  std::vector<std::uint64_t> pool_;
};

/// Renders a program as readable mnemonics, one instruction per line
/// (tc_inspect's portable-archive disassembly).
std::string disassemble(const Program& program);

/// Small label-fixup assembler used by the kernel lowerer and by tests.
class Assembler {
 public:
  using Label = std::size_t;

  /// Creates an unbound label.
  Label make_label();
  /// Binds `label` to the next emitted instruction.
  void bind(Label label);

  // Constants. li() picks kLdi for values representable as sext32 and
  // spills everything else to the constant pool.
  void li(std::uint8_t dst, std::uint64_t value);
  void lf(std::uint8_t dst, double value);  ///< f64 bit-pattern constant

  void mov(std::uint8_t dst, std::uint8_t src);
  void alu(Opcode op, std::uint8_t dst, std::uint8_t lhs, std::uint8_t rhs);

  void ld8(std::uint8_t dst, std::uint8_t base, std::int32_t offset = 0);
  void ld32(std::uint8_t dst, std::uint8_t base, std::int32_t offset = 0);
  void ld64(std::uint8_t dst, std::uint8_t base, std::int32_t offset = 0);
  void st32(std::uint8_t src, std::uint8_t base, std::int32_t offset = 0);
  void st64(std::uint8_t src, std::uint8_t base, std::int32_t offset = 0);

  void br(Label target);
  void brz(std::uint8_t cond, Label target);
  void brnz(std::uint8_t cond, Label target);

  void hook(HookId hook, std::uint8_t dst, std::uint8_t arg_base = 0);
  void ret();

  /// Resolves labels and validates; the assembler is left empty on success.
  StatusOr<Program> finish(std::uint16_t reg_count);

 private:
  void emit(Opcode op, std::uint8_t a = 0, std::uint8_t b = 0,
            std::uint8_t c = 0, std::int32_t imm = 0);
  std::uint32_t pool_index(std::uint64_t value);

  std::vector<Instr> code_;
  std::vector<std::uint64_t> pool_;
  std::vector<std::ptrdiff_t> labels_;  ///< -1 = unbound
  std::vector<std::pair<std::size_t, Label>> fixups_;
};

}  // namespace tc::vm
