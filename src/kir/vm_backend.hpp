// kir→vm: emits portable bytecode from a KIR definition.
//
// By construction a transcription, not a compilation: after the guard and
// trace passes, every remaining KIR instruction maps to exactly one
// bytecode instruction, so the def's schedule — instruction order, branch
// targets, the li/pool-spill choices — is the shipped bytecode. This is the
// production lowering of every kernel (vm::lower_kernel);
// tests/kir_test.cpp pins the serialized bytes of each program.
#pragma once

#include "common/status.hpp"
#include "kir/kir.hpp"
#include "vm/bytecode.hpp"

namespace tc::kir {

/// Emits the bytecode program for a *prepared* def (guards resolved, traces
/// stripped — see prepared_def()); a def still carrying kGuard/kTrace
/// markers is a failed_precondition.
StatusOr<vm::Program> emit_vm(const Def& def);

}  // namespace tc::kir
