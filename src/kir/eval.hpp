// A direct evaluator over KIR definitions: the reference semantics of the
// kernel IR.
//
// The def is walked instruction by instruction against the same
// vm::HookTable surface the bytecode interpreter uses, with identical
// semantics — sign-extended i32 hook results, IEEE bit-pattern floats,
// trapping unsigned division, tear-free aligned word accesses, a fuel
// limit. Nothing in production runs it: the predeployed AM handlers
// interpret the bytecode (am_backend.hpp). It is what the differentials in
// tests/kir_test.cpp compare against — the interpreter on the emitted
// bytecode, and the kir→llvm module JIT'd through ORC — asserting identical
// payload/target/traffic outcomes.
//
// Unlike the backends, the evaluator also accepts *raw* defs: a kGuard
// marker calls the hll_guard hook when one is installed and is a no-op
// otherwise, and kTrace is always a no-op.
#pragma once

#include "common/status.hpp"
#include "kir/kir.hpp"
#include "vm/interp.hpp"

namespace tc::kir {

struct EvalOptions {
  /// Fuel limit, counted per executed instruction; exceeding it fails with
  /// kResourceExhausted instead of hanging the node on a looping def.
  std::uint64_t max_ops = 1ull << 30;
};

struct EvalResult {
  /// Executed KIR instructions (kGuard/kTrace markers included).
  std::uint64_t ops = 0;
};

/// Evaluates `def` over a mutable payload. Runtime faults — division by
/// zero, a missing hook, fuel exhaustion — surface as error Statuses.
StatusOr<EvalResult> evaluate(const Def& def, const vm::HookTable& hooks,
                              std::uint8_t* payload,
                              std::uint64_t payload_size,
                              const EvalOptions& options = {});

}  // namespace tc::kir
