// Lowering of the stock kernel catalogue to portable bytecode.
//
// Kernels with a KIR definition (kir::has_kernel_def) lower through
// kir::emit_vm; the other ten keep a hand-written lowering in lower.cpp,
// the LLVM-free twin of their IRBuilder emitter (same loads, same operation
// order, same hook calls). Either way the interpreter tier produces
// bit-identical results to the JIT tiers — the property the VM↔JIT
// mode-equivalence tests pin down — and tests/kir_test.cpp pins the size
// and fnv1a64 of every program served here. Because this path needs no
// LLVM, it is also what makes TC_WITH_LLVM=OFF builds able to ship and
// execute ifuncs at all.
#pragma once

#include "common/status.hpp"
#include "ir/fat_bitcode.hpp"
#include "ir/kernels.hpp"
#include "vm/bytecode.hpp"

namespace tc::vm {

// Register conventions shared by every kernel frontend — the hand
// lowerings in lower.cpp, the IRBuilder emitters, and the KIR definitions
// (src/kir/), whose registers map one to one onto bytecode registers.
// r0/r1 are fixed by the `tc_main(ctx, payload, size)` entry ABI; kernels
// allocate upwards from r2 and marshal hook arguments into the consecutive
// scratch window starting at kRegArg0.
inline constexpr std::uint8_t kRegPayload = 0;  ///< payload pointer
inline constexpr std::uint8_t kRegSize = 1;     ///< payload size
inline constexpr std::uint8_t kRegArg0 = 12;
inline constexpr std::uint8_t kRegArg1 = 13;
inline constexpr std::uint8_t kRegArg2 = 14;
inline constexpr std::uint8_t kRegArg3 = 15;
/// Register file size every stock kernel is finished with.
inline constexpr std::uint16_t kKernelRegCount = 16;

/// Lowers one stock kernel to a validated portable program: through its
/// KIR definition when kir::has_kernel_def(kind), else through the hand
/// lowering. Options that name no variant of `kind` are an
/// invalid_argument (ir::check_kernel_options).
StatusOr<Program> lower_kernel(ir::KernelKind kind,
                               const ir::KernelOptions& options = {});

/// Packs the lowered kernel into a portable ('TCFP') archive holding a
/// single ISA-independent entry.
StatusOr<ir::FatBitcode> build_portable_kernel(
    ir::KernelKind kind, const ir::KernelOptions& options = {});

}  // namespace tc::vm
