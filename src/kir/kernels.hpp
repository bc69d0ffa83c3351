// The KIR kernel catalogue: single-source definitions for the ported slice
// of the stock kernels (has_kernel_def()).
//
// Each definition here is the one description all three backends consume:
// kir→vm (vm_backend.hpp) emits the portable bytecode, kir→llvm
// (llvm_backend.hpp, TC_WITH_LLVM only) emits the JIT/AOT IR, and kir→am
// (am_backend.hpp) runs the def directly as the predeployed AM handler.
//
// The defs are hand-scheduled — including the hash probe's dead copies —
// because the bytecode they emit is what ships: the interpreter tier
// charges virtual time per shipped instruction (fig5–fig12), so a schedule
// change moves calibrated numbers. tests/kir_test.cpp pins the serialized
// size and fnv1a64 of every emitted program.
#pragma once

#include "common/status.hpp"
#include "ir/kernels.hpp"
#include "kir/kir.hpp"

namespace tc::kir {

/// True when `kind` has a KIR definition — the one registry of ported
/// kernels. vm::lower_kernel routes on it; every other kind keeps its hand
/// lowering in vm/lower.cpp.
bool has_kernel_def(ir::KernelKind kind);

/// The *raw* definition: kGuard markers and kTrace annotations still
/// present (what tc_inspect dumps). Only options.chaser_tagged is consulted
/// here — guard emission is a pass, not an emission variant.
StatusOr<Def> kernel_def(ir::KernelKind kind, const ir::KernelOptions& options);

/// The backend-ready definition: guards resolved per options.hll_guards and
/// traces stripped. This is what vm::lower_kernel, the AM wrappers and the
/// LLVM backend consume.
StatusOr<Def> prepared_def(ir::KernelKind kind,
                           const ir::KernelOptions& options);

}  // namespace tc::kir
