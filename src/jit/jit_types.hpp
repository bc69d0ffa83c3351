// LLVM-free value types shared between the JIT layer and the rest of the
// runtime. Everything here must compile in TC_WITH_LLVM=OFF builds: the
// Runtime's registry and options surface and the hetsim cost model all
// speak these types even when the ORC engine itself is compiled out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tc::jit {

enum class OptLevel : std::uint8_t { kO0 = 0, kO1 = 1, kO2 = 2, kO3 = 3 };

/// Per-addition compile statistics (feeds the overhead-breakdown tables).
struct CompileStats {
  std::int64_t parse_ns = 0;     ///< bitcode -> module (0 for objects)
  std::int64_t optimize_ns = 0;  ///< IR pipeline (0 for objects)
  std::int64_t compile_ns = 0;   ///< ORC materialization + link
  std::size_t code_bytes = 0;    ///< input representation size
};

struct EngineOptions {
  OptLevel opt_level = OptLevel::kO2;
  /// Tune codegen for the host µarch (CPU name + features), the paper's
  /// "emit machine code specialized for the CPU it is running on".
  bool tune_for_host = true;
  /// Host symbols injected into every ifunc dylib as absolute definitions
  /// (the tc_ctx_* runtime hooks). Entries are (symbol name, address).
  /// Explicit definitions keep the link independent of whether the hosting
  /// executable exported its symbols dynamically (-rdynamic).
  std::vector<std::pair<std::string, void*>> extra_symbols;
};

/// Execution tier of a materialized ifunc. Tiered execution runs portable
/// bytecode through the interpreter immediately on first arrival (zero
/// compile stall) and promotes hot ifuncs to JIT-compiled native code once
/// they cross the runtime's invocation threshold.
enum class Tier : std::uint8_t {
  kInterpreted = 0,  ///< portable bytecode in the vm interpreter
  kJit = 1,          ///< ORC-JIT compiled from shipped bitcode
  kLinked = 2,       ///< pre-compiled object, link-only deployment
};

inline const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kInterpreted: return "interpreted";
    case Tier::kJit: return "jit";
    case Tier::kLinked: return "linked";
  }
  return "unknown";
}

}  // namespace tc::jit
