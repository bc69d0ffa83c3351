// Lowering of the stock kernel catalogue to portable bytecode.
//
// Every kernel has one KIR definition (src/kir/kernels.cpp); lowering is
// kir::emit_vm over the prepared def. The interpreter tier produces
// bit-identical results to the JIT tiers — the property the VM↔JIT
// mode-equivalence tests pin down — and the predeployed AM handlers
// interpret this bytecode too. tests/kir_test.cpp pins the size and fnv1a64
// of every program served here. Because this path needs no LLVM, it is
// also what makes TC_WITH_LLVM=OFF builds able to ship and execute ifuncs
// at all.
#pragma once

#include "common/status.hpp"
#include "ir/fat_bitcode.hpp"
#include "ir/kernels.hpp"
#include "vm/bytecode.hpp"

namespace tc::vm {

// Register conventions of the KIR definitions (src/kir/), whose registers
// map one to one onto bytecode registers.
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

/// Lowers one stock kernel to a validated portable program through its KIR
/// definition. Options that name no variant of `kind` are an
/// invalid_argument (kir::kernel_def).
StatusOr<Program> lower_kernel(ir::KernelKind kind,
                               const ir::KernelOptions& options = {});

/// Packs the lowered kernel into a portable ('TCFP') archive holding a
/// single ISA-independent entry.
StatusOr<ir::FatBitcode> build_portable_kernel(
    ir::KernelKind kind, const ir::KernelOptions& options = {});

}  // namespace tc::vm
