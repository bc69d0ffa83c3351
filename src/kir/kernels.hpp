// The KIR kernel catalogue: single-source definitions for the ported slice
// of the stock kernels (ir::kernel_source() == KernelSource::kKir).
//
// Each definition here is the one description all three backends consume:
// kir→vm (vm_backend.hpp) emits the portable bytecode, kir→llvm
// (llvm_backend.hpp, TC_WITH_LLVM only) emits the JIT/AOT IR, and kir→am
// (am_backend.hpp) runs the def directly as the predeployed AM handler.
//
// The defs are transcriptions of the hand-scheduled legacy lowerings
// (vm/lower.cpp) — including the hash probe's schedule, dead copies and
// all — so the vm backend reproduces the legacy bytecode *byte for byte*;
// tests/kir_test.cpp pins that, which is what keeps the interpreter tier's
// per-instruction virtual-time charging (fig5–fig12) untouched by the
// port.
#pragma once

#include "common/status.hpp"
#include "ir/kernels.hpp"
#include "kir/kir.hpp"

namespace tc::kir {

/// True when `kind` has a KIR definition (a superset check: every kind
/// whose ir::kernel_source() is kKir must have one, and the catalogue
/// completeness test asserts it).
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
