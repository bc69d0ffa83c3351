// kir→llvm: the one LLVM emitter. Every bitcode and object archive that
// ships is built here from the KIR definitions (kir/kernels.hpp).
// Compiled out (not in TC_SOURCES) under TC_WITH_LLVM=OFF.
//
// The paper builds ifunc libraries by compiling C (or lowering Julia via
// GPUCompiler.jl) to per-triple LLVM bitcode with clang. This environment
// has LLVM but no clang binary, so the equivalent frontend is an in-process
// IR generator: each kernel's KIR definition is translated with IRBuilder,
// once per target triple, and packed into a fat-bitcode archive. The
// shipped artifact — per-ISA bitcode + deps manifest — is identical in kind
// to the paper's. Every module implements the entry ABI in ir/abi.hpp and
// interacts with the target node only through the tc_ctx_* hooks.
//
// The emission is a direct register-machine translation: one i64 alloca
// per KIR register, one basic block per leader, hooks as calls to the
// tc_ctx_* ABI symbols with i32 results sign-extended; mem2reg and the ORC
// pipeline promote the slots on the target. Memory accesses are plain loads
// and stores, except a st64 marked release (kir::Inst::release), which
// becomes `store atomic ... release, align 8`: the broadcast kernels publish
// their {value, arrivals} words that way to a poller on another thread.
// Alignment is not known statically, so no other word access is atomic.
#pragma once

#include <memory>
#include <span>

#include <llvm/IR/LLVMContext.h>
#include <llvm/IR/Module.h>

#include "common/status.hpp"
#include "ir/fat_bitcode.hpp"
#include "ir/kernels.hpp"
#include "ir/target_info.hpp"
#include "kir/kir.hpp"

namespace tc::kir {

/// Builds one *prepared* def (guards resolved, traces stripped) as an LLVM
/// module implementing the `tc_main` entry ABI for the given target.
StatusOr<std::unique_ptr<llvm::Module>> build_kir_module(
    llvm::LLVMContext& context, const Def& def,
    const ir::TargetDescriptor& target);

/// Builds stock kernel `kind` from prepared_def(kind, options) as one
/// module. Options that name no variant of `kind` are an invalid_argument.
StatusOr<std::unique_ptr<llvm::Module>> build_kir_module(
    llvm::LLVMContext& context, ir::KernelKind kind,
    const ir::TargetDescriptor& target, const ir::KernelOptions& options = {});

/// Builds the kernel for every target and packs a fat-bitcode archive (no
/// deps manifest: core::IfuncLibrary::from_stock_kernel declares it).
StatusOr<ir::FatBitcode> build_kir_fat_kernel(
    ir::KernelKind kind, std::span<const ir::TargetDescriptor> targets,
    const ir::KernelOptions& options = {});

/// Convenience: fat archive for default_fat_targets().
StatusOr<ir::FatBitcode> build_default_kir_fat_kernel(
    ir::KernelKind kind, const ir::KernelOptions& options = {});

}  // namespace tc::kir
