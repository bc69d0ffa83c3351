// High-level-language frontend — the Julia-integration analogue.
//
// The paper lowers Julia functions to LLVM IR with GPUCompiler.jl and ships
// that IR as ifuncs; the observed cost signature is "same workflow, IR with
// extra dynamic-language overhead" (Fig. 8/12), plus a second mode where a
// Julia *client* drives ifuncs whose IR came from C ("excellent
// performance"). There is no Julia toolchain in this build, so
// this module reproduces exactly that distinction:
//
//  * build_library(kind)                — kernels emitted with per-iteration
//    tc_hll_guard dynamic-dispatch guards (the type-instability tax);
//  * build_library(kind, /*drive_with_c=*/true) — the plain C-frontend
//    kernel under an HLL-owned name, modeling "HLL driving C ifuncs".
//
// Both are the stock bitcode library (core::IfuncLibrary::from_stock_kernel,
// with its deps manifest) under an `hll_…` name; the guards are the KIR
// definitions' kGuard markers, resolved by kir::prepared_def.
#pragma once

#include "common/status.hpp"
#include "core/ifunc.hpp"

namespace tc::hll {

/// Builds an ifunc library through the HLL frontend, named
/// `hll_<kernel>[_c][_w]`. With drive_with_c the code itself is the
/// C-frontend emission (no guards) — only the client-side integration is
/// "high-level". `tagged` builds the async-window chaser variant (see
/// xrdma::build_chaser_library) and is only valid with KernelKind::kChaser —
/// any other kind returns an invalid-argument Status (kir::kernel_def).
StatusOr<core::IfuncLibrary> build_library(ir::KernelKind kind,
                                           bool drive_with_c = false,
                                           bool tagged = false);

/// Counts tc_hll_guard call sites in a bitcode module — test/diagnostic
/// helper proving the frontend actually emitted its guards.
StatusOr<unsigned> count_guard_calls(ByteSpan bitcode);

}  // namespace tc::hll
