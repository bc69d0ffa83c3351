// The KIR kernel catalogue: the one definition of every stock kernel.
//
// Each definition here is the one description the backends consume:
// kir→vm (vm_backend.hpp) emits the portable bytecode that ships and that
// the predeployed AM handlers interpret (am_backend.hpp), and kir→llvm
// (llvm_backend.hpp, TC_WITH_LLVM only) emits the bitcode and object
// archives that ship, which the JIT differential also runs against the
// evaluator (eval.hpp).
//
// The defs are hand-scheduled — including the hash probe's and ordered
// search's dead copies — because the bytecode they emit is what ships: the
// interpreter tier charges virtual time per shipped instruction
// (fig5–fig12), so a schedule change moves calibrated numbers.
// tests/kir_test.cpp pins the serialized size and fnv1a64 of every emitted
// program.
#pragma once

#include "common/status.hpp"
#include "ir/kernels.hpp"
#include "kir/kir.hpp"

namespace tc::kir {

/// The *raw* definition: kGuard markers and kTrace annotations still
/// present (what tc_inspect dumps). Only options.chaser_tagged is consulted
/// here — guard emission is a pass, not an emission variant. Options that
/// name no variant of `kind` (chaser_tagged on any other kernel) are an
/// invalid_argument, so no builder downstream can ship untagged code under
/// a tagged (`_w`) wire name.
StatusOr<Def> kernel_def(ir::KernelKind kind, const ir::KernelOptions& options);

/// The backend-ready definition: guards resolved per options.hll_guards and
/// traces stripped. This is what vm::lower_kernel and the LLVM backend
/// consume; it refuses the options kernel_def refuses.
StatusOr<Def> prepared_def(ir::KernelKind kind,
                           const ir::KernelOptions& options);

}  // namespace tc::kir
