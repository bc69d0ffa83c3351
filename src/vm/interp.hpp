// The portable-bytecode interpreter — the zero-compile execution tier.
//
// execute() runs a validated Program against the same `tc_main(ctx,
// payload, size)` contract the JIT'd representations implement: the payload
// is mutated in place, and every interaction with the hosting node goes
// through a HookTable whose entries are exactly the tc_ctx_* hook functions
// of ir/abi.hpp (the runtime fills the table with the very same extern "C"
// symbols ORC resolves for JIT'd code, so the two tiers observe identical
// runtime behavior).
//
// The interpreter executes exactly the instructions that arrived on the
// wire and counts them; hetsim charges virtual time per executed
// instruction (core::RuntimeOptions::interp_op_ns), which is how the tier
// slots into the paper's cost model.
#pragma once

#include <cstdint>

#include "common/status.hpp"
#include "vm/bytecode.hpp"

namespace tc::vm {

/// Dispatch table for the kHook instruction. Signatures mirror the hook ABI
/// in ir/abi.hpp one to one; `ctx` is the opaque per-invocation context
/// passed to every hook (the runtime's ExecContext).
struct HookTable {
  void* ctx = nullptr;
  void* (*target)(void*) = nullptr;
  std::uint64_t (*node)(void*) = nullptr;
  std::uint64_t (*peer_count)(void*) = nullptr;
  std::uint64_t (*self_peer)(void*) = nullptr;
  std::uint64_t* (*shard_base)(void*) = nullptr;
  std::uint64_t (*shard_size)(void*) = nullptr;
  std::int32_t (*forward)(void*, std::uint64_t, const std::uint8_t*,
                          std::uint64_t) = nullptr;
  std::int32_t (*inject)(void*, std::uint64_t, const char*,
                         const std::uint8_t*, std::uint64_t) = nullptr;
  std::int32_t (*reply)(void*, const std::uint8_t*, std::uint64_t) = nullptr;
  std::int32_t (*remote_write)(void*, std::uint64_t, std::uint64_t,
                               const std::uint8_t*, std::uint64_t) = nullptr;
  void (*hll_guard)(void*) = nullptr;
  /// The libm dependency of the sin_sum kernel (deps manifest: libm.so.6).
  double (*sin_fn)(double) = nullptr;
};

/// Interpreter dispatch strategy. The execution semantics are identical in
/// every mode (the differential suite asserts it); only the inner-loop
/// mechanics differ.
enum class Dispatch : std::uint8_t {
  /// Threaded when the build supports it, otherwise switch.
  kDefault = 0,
  /// The classic while/switch loop — the portable fallback, always built.
  kSwitch,
  /// Computed-goto (&&label) dispatch: one indirect jump per instruction
  /// from a per-opcode table, so the branch predictor keys on the *current*
  /// opcode instead of a single shared dispatch branch. Falls back to
  /// kSwitch on compilers without the extension or when the build forces
  /// TC_VM_SWITCH_DISPATCH.
  kThreaded,
};

/// Whether this build contains the computed-goto dispatch loop.
bool threaded_dispatch_available();

struct InterpOptions {
  /// Fuel limit: executing more instructions than this fails with
  /// kResourceExhausted instead of hanging the node on a looping program.
  /// The check rides the branch handlers (straight-line code cannot loop),
  /// so a program may overshoot by at most its code length.
  std::uint64_t max_ops = 1ull << 30;
  Dispatch dispatch = Dispatch::kDefault;
};

struct InterpResult {
  /// Bytecode instructions executed: the fuel count, and the base of the
  /// virtual-time charge. Identical across dispatch modes.
  std::uint64_t instrs = 0;
};

/// Interprets `program` over a mutable payload. The program must have come
/// out of Program::deserialize()/Assembler::finish() (i.e. be validated);
/// runtime faults that static validation cannot rule out — division by
/// zero, a missing hook implementation, fuel exhaustion — surface as error
/// Statuses, never as UB or crashes.
StatusOr<InterpResult> execute(const Program& program, const HookTable& hooks,
                               std::uint8_t* payload,
                               std::uint64_t payload_size,
                               const InterpOptions& options = {});

}  // namespace tc::vm
