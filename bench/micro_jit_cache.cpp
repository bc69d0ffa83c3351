// Micro/ablation benchmarks for the JIT layer (google-benchmark): the
// one-time bitcode JIT cost vs the binary (object) link-only deployment vs
// a cache hit — the §V-A "JIT compilation incurs an expensive one-time
// cost" result, measured for real on this host.
#include <benchmark/benchmark.h>

#include "core/context.hpp"
#include "ir/bitcode.hpp"
#include "jit/compiler.hpp"
#include "jit/engine.hpp"
#include "kir/llvm_backend.hpp"

namespace {

using namespace tc;

Bytes tsi_bitcode() {
  llvm::LLVMContext context;
  auto module = kir::build_kir_module(
      context, ir::KernelKind::kTargetSideIncrement, ir::host_descriptor());
  return ir::module_to_bitcode(**module);
}

Bytes tsi_object() {
  llvm::LLVMContext context;
  auto module = kir::build_kir_module(
      context, ir::KernelKind::kTargetSideIncrement, ir::host_descriptor());
  auto object = jit::compile_to_object(**module, ir::host_descriptor());
  return std::move(object).value();
}

jit::EngineOptions hook_options() {
  jit::EngineOptions options;
  options.extra_symbols = core::runtime_hook_symbols();
  return options;
}

// Full bitcode deployment: parse + optimize + codegen + link. The paper's
// JIT row (6.59 ms A64FX / 4.50 ms BF2 / 0.83 ms Xeon).
void BM_JitDeployBitcode(benchmark::State& state) {
  const Bytes bitcode = tsi_bitcode();
  int n = 0;
  for (auto _ : state) {
    auto engine = jit::OrcEngine::create(hook_options());
    auto entry = (*engine)->add_ifunc_bitcode("tsi" + std::to_string(n++),
                                              as_span(bitcode), {});
    benchmark::DoNotOptimize(entry);
  }
}
BENCHMARK(BM_JitDeployBitcode)->Unit(benchmark::kMillisecond);

// Binary deployment ablation: link-only, no IR work.
void BM_JitDeployObject(benchmark::State& state) {
  const Bytes object = tsi_object();
  int n = 0;
  for (auto _ : state) {
    auto engine = jit::OrcEngine::create(hook_options());
    auto entry = (*engine)->add_ifunc_object("tsi" + std::to_string(n++),
                                             as_span(object), {});
    benchmark::DoNotOptimize(entry);
  }
}
BENCHMARK(BM_JitDeployObject)->Unit(benchmark::kMillisecond);

// Cached invocation: the code is resident; cost is one indirect call.
void BM_CachedInvocation(benchmark::State& state) {
  auto engine = jit::OrcEngine::create(hook_options());
  auto entry =
      (*engine)->add_ifunc_bitcode("tsi", as_span(tsi_bitcode()), {});
  std::uint64_t counter = 0;
  core::ExecContext ctx;
  ctx.target_ptr = &counter;
  std::uint8_t payload = 0;
  for (auto _ : state) {
    (*entry)(&ctx, &payload, 1);
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_CachedInvocation);

// Optimization-level ablation for the deploy cost.
void BM_JitDeployByOptLevel(benchmark::State& state) {
  const Bytes bitcode = tsi_bitcode();
  jit::EngineOptions options = hook_options();
  options.opt_level = static_cast<jit::OptLevel>(state.range(0));
  int n = 0;
  for (auto _ : state) {
    auto engine = jit::OrcEngine::create(options);
    auto entry = (*engine)->add_ifunc_bitcode("tsi" + std::to_string(n++),
                                              as_span(bitcode), {});
    benchmark::DoNotOptimize(entry);
  }
}
BENCHMARK(BM_JitDeployByOptLevel)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

// Chaser (a larger kernel with control flow) deploy cost, both paths.
void BM_JitDeployChaserBitcode(benchmark::State& state) {
  llvm::LLVMContext context;
  auto module = kir::build_kir_module(context, ir::KernelKind::kChaser,
                                      ir::host_descriptor());
  const Bytes bitcode = ir::module_to_bitcode(**module);
  int n = 0;
  for (auto _ : state) {
    auto engine = jit::OrcEngine::create(hook_options());
    auto entry = (*engine)->add_ifunc_bitcode("ch" + std::to_string(n++),
                                              as_span(bitcode), {});
    benchmark::DoNotOptimize(entry);
  }
}
BENCHMARK(BM_JitDeployChaserBitcode)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
