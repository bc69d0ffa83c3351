// KernelBuilder: the ifunc "toolchain" of this reproduction.
//
// The paper builds ifunc libraries by compiling C (or lowering Julia via
// GPUCompiler.jl) to per-triple LLVM bitcode with clang. This environment
// has LLVM but no clang binary, so the equivalent frontend is an in-process
// IR generator: each kernel below is constructed directly with IRBuilder,
// once per target triple, and packed into a fat-bitcode archive. The shipped
// artifact — per-ISA bitcode + deps manifest — is identical in kind to the
// paper's.
//
// Every kernel implements the entry ABI in ir/abi.hpp and interacts with the
// target node only through the tc_ctx_* hooks.
#pragma once

#include <memory>
#include <span>

#include <llvm/IR/LLVMContext.h>
#include <llvm/IR/Module.h>

#include "common/status.hpp"
#include "ir/fat_bitcode.hpp"
#include "ir/kernels.hpp"
#include "ir/target_info.hpp"

namespace tc::ir {

/// Builds one kernel as an LLVM module for the given target. Options that
/// name no variant of `kind` are an invalid_argument (check_kernel_options).
StatusOr<std::unique_ptr<llvm::Module>> build_kernel(
    llvm::LLVMContext& context, KernelKind kind,
    const TargetDescriptor& target, const KernelOptions& options = {});

/// Builds the kernel for every target and packs a fat-bitcode archive.
StatusOr<FatBitcode> build_fat_kernel(
    KernelKind kind, std::span<const TargetDescriptor> targets,
    const KernelOptions& options = {});

/// Convenience: fat archive for default_fat_targets().
StatusOr<FatBitcode> build_default_fat_kernel(KernelKind kind,
                                              const KernelOptions& options = {});

}  // namespace tc::ir
