// Ahead-of-time compilation of ifunc bitcode to relocatable objects — the
// *binary* code representation (paper §III-B reimplemented on LLVM):
// machine code is produced at the source, shipped, and only *linked* on the
// target, skipping the JIT compile entirely.
//
// Because LLVM is natively a cross-compiler, objects can be produced for any
// registered target (e.g. AArch64 objects from an x86_64 source node), which
// is how binary fat archives for heterogeneous clusters are assembled.
#pragma once

#include <llvm/IR/Module.h>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "ir/fat_bitcode.hpp"
#include "ir/target_info.hpp"
#include "jit/optimizer.hpp"

namespace tc::jit {

/// Optimizes (at `level`, tuned for `target`) and codegens `module` into a
/// relocatable ELF object. The module's triple must match `target`.
StatusOr<Bytes> compile_to_object(llvm::Module& module,
                                  const ir::TargetDescriptor& target,
                                  OptLevel level = OptLevel::kO2);

/// Compiles every entry of a *bitcode* archive into an *object* archive with
/// the same targets and dependencies.
StatusOr<ir::FatBitcode> compile_archive_to_objects(
    const ir::FatBitcode& bitcode_archive, OptLevel level = OptLevel::kO2);

}  // namespace tc::jit
