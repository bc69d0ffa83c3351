// KIR: the single-source kernel IR of the catalogue.
//
// One KIR definition per kernel generates the code representations this
// reproduction ships — the portable bytecode (kir→vm, src/kir/vm_backend),
// which the predeployed Active-Message handlers interpret too
// (src/kir/am_backend), and the LLVM bitcode and objects of the JIT/AOT
// tiers (kir→llvm, src/kir/llvm_backend, compiled out under
// TC_WITH_LLVM=OFF) — replacing the hand-synchronized emitters the legacy
// kernels kept in lockstep by review.
//
// The IR is deliberately tiny: SSA-free and register-oriented, mirroring
// the portable-bytecode machine one to one so that the vm backend is a
// transcription, not a compilation. Registers are 64-bit; r0/r1 carry the
// `tc_main(ctx, payload, size)` entry ABI (r0 = payload pointer, r1 =
// payload size, exactly vm::kRegPayload / vm::kRegSize); the hosting node
// is reachable only through hooks (vm::HookId — the tc_ctx_* ABI of
// ir/abi.hpp). Floating point rides the integer registers as IEEE-754 bit
// patterns, like the bytecode machine.
//
// On top of the raw machine the IR adds what the verifier needs to reject
// the lockstep bugs the legacy emitters could only catch in review:
//
//  * typed payload access (kLdPayload/kStPayload: static byte offset,
//    bounds-checked against the def's declared payload floor);
//  * typed shard-record access (kLdShardWord/kStShardWord: static word
//    index into a record whose base address sits in a register, checked
//    against the def's declared record width — the shared layouts of
//    workloads/shard_layout.hpp);
//  * terminal-send discipline: kForward/kReply must be immediately
//    followed by kRet (a reply emitted on a fallthrough path after a
//    forward — the classic double-send bug — is a verifier error);
//  * structured loops: the Builder tracks loop scopes and refuses to
//    finish() a def whose loop was never closed with a back edge;
//  * kGuard markers: the HLL frontend's dynamic-dispatch guard points are
//    part of the definition; a *pass* (resolve_guards) turns them into
//    tc_hll_guard hooks or deletes them, instead of the legacy scheme of
//    two parallel emission variants;
//  * kTrace annotation points, kept in dumps and stripped by backends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "vm/bytecode.hpp"

namespace tc::kir {

enum class Op : std::uint8_t {
  // --- constants / moves (wide carries the 64-bit value) -------------------
  kConst,   ///< r[a] = wide
  kConstF,  ///< r[a] = f64 bit pattern of wide
  kMov,     ///< r[a] = r[b]
  // --- 64-bit integer ALU (a = dst, b/c = operands) ------------------------
  kAdd, kSub, kMul, kUdiv, kUrem, kAnd, kOr, kXor, kShl, kShr,
  // --- compares: r[a] = (r[b] OP r[c]) ? 1 : 0 -----------------------------
  kCeq, kCne, kCult, kCule,
  // --- IEEE-754 double on full registers, float in the low 32 bits ---------
  kFadd, kFsub, kFmul, kFdiv, kFadd32, kFmul32,
  // --- raw memory: address = r[b] + imm ------------------------------------
  kLd8, kLd32, kLd64, kSt32, kSt64,
  // --- typed payload words: address = payload + imm (bounds-checked) -------
  kLdPayload,  ///< r[a] = *(u64*)(payload + imm)
  kStPayload,  ///< *(u64*)(payload + imm) = r[a]
  // --- typed shard-record words: address = r[b] + 8 * imm ------------------
  kLdShardWord,  ///< r[a] = record r[b]'s word imm
  kStShardWord,  ///< record r[b]'s word imm = r[a]
  // --- control flow: imm = target instruction index ------------------------
  kBr,
  kBrz,   ///< branch when r[a] == 0
  kBrnz,  ///< branch when r[a] != 0
  // --- runtime surface -----------------------------------------------------
  kHook,     ///< hook `hook`; b = result reg, c = first arg reg
  kForward,  ///< self-forward: args r[c]=peer, r[c+1]=ptr, r[c+2]=size; rc in r[a]
  kReply,    ///< reply to origin: args r[c]=ptr, r[c+1]=size; rc in r[a]
  kGuard,    ///< HLL dynamic-dispatch guard marker (see resolve_guards)
  kTrace,    ///< annotation-only trace point (imm = tag); backends strip it
  kRet,
};

const char* op_name(Op op);

struct Inst {
  Op op = Op::kRet;
  std::uint8_t a = 0;
  std::uint8_t b = 0;
  std::uint8_t c = 0;
  /// Branch target (instruction index), memory byte offset, shard word
  /// index, or trace tag, depending on op.
  std::int32_t imm = 0;
  /// kConst/kConstF payload.
  std::uint64_t wide = 0;
  /// kHook only.
  vm::HookId hook = vm::HookId::kTarget;
  /// kSt64 only: publish the word with release ordering. Only kir→llvm
  /// reads it (an atomic release store); kir→vm emits the same st64, which
  /// the interpreter already releases on aligned words.
  bool release = false;
};

/// A verified kernel definition. Branch imms are final instruction indices
/// (the Builder resolves labels in finish()).
struct Def {
  std::string name;
  std::uint16_t reg_count = 0;
  /// Declared payload ABI floor in bytes; kLdPayload/kStPayload offsets are
  /// verified against it (0 = unchecked: the kernel guards sizes itself).
  std::uint32_t min_payload_bytes = 0;
  /// Declared shard record width in words; kLdShardWord/kStShardWord
  /// indices are verified against it (0 = the kernel takes no typed shard
  /// access). Use the kHash*/kIndex*/kCsr* constants of
  /// workloads/shard_layout.hpp.
  std::uint32_t shard_record_words = 0;
  std::vector<Inst> code;
};

/// Structural verification; Builder::finish() runs it, and backends may
/// re-run it on defs from other sources. Checks register ranges, branch
/// targets, hook ids and arg/result windows, typed payload/shard bounds,
/// terminal-send discipline (kForward/kReply immediately followed by kRet)
/// and that execution cannot fall off the end.
Status verify(const Def& def);

/// The HLL-guard pass: with `enable`, every kGuard marker becomes a
/// tc_hll_guard hook; without, markers are deleted (branch targets are
/// remapped, so a branch that landed on a guard lands on its successor —
/// exactly the legacy emitters' conditional-guard behavior).
Def resolve_guards(Def def, bool enable);

/// Deletes kTrace annotations (branch targets remapped). Backends require
/// trace-free input; dumps keep them.
Def strip_traces(Def def);

/// Human-readable listing (tc_inspect `kir` subcommand and test failures).
std::string dump(const Def& def);

/// Builder: the staged-emitter frontend for writing defs by hand. Mirrors
/// vm::Assembler (labels + fixups) and adds the loop discipline and typed
/// accessors the verifier checks.
class Builder {
 public:
  using Label = std::size_t;

  explicit Builder(std::uint16_t reg_count = 16) : reg_count_(reg_count) {}

  /// Declares the payload ABI floor / shard record width (see Def).
  void set_min_payload_bytes(std::uint32_t bytes) {
    min_payload_bytes_ = bytes;
  }
  void set_shard_record_words(std::uint32_t words) {
    shard_record_words_ = words;
  }

  Label make_label();
  void bind(Label label);

  /// Opens a loop scope: makes and binds the head label. Every loop() must
  /// be closed with close_loop()/close_loop_nz() before finish(), which is
  /// how "I wrote the exit branch but forgot the back edge" becomes a
  /// build-time error instead of a runaway kernel.
  Label loop();
  /// Emits the unconditional back edge `br head` and closes the scope.
  void close_loop(Label head);
  /// Emits the conditional back edge `brnz cond, head` (execution falls
  /// through when the loop drains) and closes the scope.
  void close_loop_nz(std::uint8_t cond, Label head);

  void iconst(std::uint8_t dst, std::uint64_t value);
  void fconst(std::uint8_t dst, double value);
  void mov(std::uint8_t dst, std::uint8_t src);
  void alu(Op op, std::uint8_t dst, std::uint8_t lhs, std::uint8_t rhs);

  void ld8(std::uint8_t dst, std::uint8_t base, std::int32_t offset = 0);
  void ld32(std::uint8_t dst, std::uint8_t base, std::int32_t offset = 0);
  void ld64(std::uint8_t dst, std::uint8_t base, std::int32_t offset = 0);
  void st32(std::uint8_t src, std::uint8_t base, std::int32_t offset = 0);
  void st64(std::uint8_t src, std::uint8_t base, std::int32_t offset = 0);
  /// st64 with release ordering (Inst::release): for a word that another
  /// thread polls, so that it becomes visible only after the stores before it.
  void st64_release(std::uint8_t src, std::uint8_t base,
                    std::int32_t offset = 0);

  void ld_payload(std::uint8_t dst, std::int32_t byte_offset);
  void st_payload(std::uint8_t src, std::int32_t byte_offset);
  void ld_shard_word(std::uint8_t dst, std::uint8_t record_base,
                     std::int32_t word);
  void st_shard_word(std::uint8_t src, std::uint8_t record_base,
                     std::int32_t word);

  void br(Label target);
  void brz(std::uint8_t cond, Label target);
  void brnz(std::uint8_t cond, Label target);

  void hook(vm::HookId hook, std::uint8_t dst, std::uint8_t arg_base = 0);
  void forward(std::uint8_t rc, std::uint8_t arg_base);
  void reply(std::uint8_t rc, std::uint8_t arg_base);
  void guard();
  void trace(std::int32_t tag);
  void ret();

  /// Resolves labels, checks the loop discipline, and verifies. The builder
  /// is left empty on success.
  StatusOr<Def> finish(std::string name);

 private:
  void emit(Op op, std::uint8_t a = 0, std::uint8_t b = 0, std::uint8_t c = 0,
            std::int32_t imm = 0, std::uint64_t wide = 0,
            vm::HookId hook = vm::HookId::kTarget);

  std::uint16_t reg_count_;
  std::uint32_t min_payload_bytes_ = 0;
  std::uint32_t shard_record_words_ = 0;
  std::vector<Inst> code_;
  std::vector<std::ptrdiff_t> labels_;  ///< -1 = unbound
  std::vector<std::pair<std::size_t, Label>> fixups_;
  std::vector<Label> open_loops_;
};

}  // namespace tc::kir
