// Micro-benchmarks for tiered ifunc execution (google-benchmark): the
// *first-invocation* latency of each code representation, measured for real
// on this host. This is the cold-path story of the tiered design — the
// interpreter executes a freshly arrived portable ifunc in microseconds
// while the bitcode representation first pays the one-time JIT compile
// (the paper's uncached-row stall: 0.83-6.59 ms depending on platform),
// and the AOT object representation pays a link.
//
// Builds with or without LLVM; without it only the interpreter tier and its
// steady-state cost are reported.
//
// The Dispatch section runs the three traversal kernels the workload suite
// ships (hash-probe chain walk, skip-list descent, BFS frontier expansion)
// through the {switch, threaded} dispatch loops, against self-contained
// hook environments so the numbers isolate the interpreter inner loop. The
// `bytecode_instrs` counter is the executed-instruction rate — the
// quantity hetsim charges virtual time for.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "ir/kernels.hpp"
#include "vm/bytecode.hpp"
#include "vm/interp.hpp"
#include "vm/lower.hpp"

#if TC_WITH_LLVM
#include "ir/bitcode.hpp"
#include "jit/compiler.hpp"
#include "jit/engine.hpp"
#include "kir/llvm_backend.hpp"
#endif

namespace {

using namespace tc;

core::ExecContext make_ctx(std::uint64_t* counter) {
  core::ExecContext ctx;
  ctx.target_ptr = counter;
  return ctx;
}

Bytes portable_tsi_wire() {
  auto program = vm::lower_kernel(ir::KernelKind::kTargetSideIncrement);
  return program->serialize();
}

// First invocation, interpreter tier: decode + validate + run. No compile.
void BM_FirstInvocation_Interpreter(benchmark::State& state) {
  const Bytes wire = portable_tsi_wire();
  std::uint64_t counter = 0;
  std::uint8_t payload = 0;
  for (auto _ : state) {
    auto program = vm::Program::deserialize(as_span(wire));
    core::ExecContext ctx = make_ctx(&counter);
    vm::HookTable hooks = core::runtime_vm_hooks(ctx);
    auto r = vm::execute(*program, hooks, &payload, 1);
    benchmark::DoNotOptimize(r);
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_FirstInvocation_Interpreter)->Unit(benchmark::kMicrosecond);

// Steady state, interpreter tier: the per-invocation dispatch tax.
void BM_SteadyState_Interpreter(benchmark::State& state) {
  auto program = vm::lower_kernel(ir::KernelKind::kPayloadSum);
  Bytes payload(static_cast<std::size_t>(state.range(0)), 3);
  std::uint64_t sum = 0;
  core::ExecContext ctx = make_ctx(&sum);
  vm::HookTable hooks = core::runtime_vm_hooks(ctx);
  for (auto _ : state) {
    auto r = vm::execute(*program, hooks, payload.data(), payload.size());
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SteadyState_Interpreter)->Arg(64)->Arg(4096);

// --- dispatch modes on the traversal kernels -----------------------------------

/// Minimal hook environment for the workload kernels: counters instead of
/// vectors so the hooks cost nothing in steady state, single peer so the
/// traversal never leaves the node and the whole walk runs in one
/// invocation.
struct ShardEnv {
  std::uint64_t* shard = nullptr;
  std::uint64_t shard_size = 0;  // words
  std::uint64_t* cell = nullptr;
  std::uint64_t forwards = 0;
  std::uint64_t replies = 0;
};

vm::HookTable shard_hooks(ShardEnv& env) {
  vm::HookTable h;
  h.ctx = &env;
  h.target = [](void* c) -> void* {
    return static_cast<ShardEnv*>(c)->cell;
  };
  h.node = [](void*) -> std::uint64_t { return 0; };
  h.peer_count = [](void*) -> std::uint64_t { return 1; };
  h.self_peer = [](void*) -> std::uint64_t { return 0; };
  h.shard_base = [](void* c) -> std::uint64_t* {
    return static_cast<ShardEnv*>(c)->shard;
  };
  h.shard_size = [](void* c) -> std::uint64_t {
    return static_cast<ShardEnv*>(c)->shard_size;
  };
  h.forward = [](void* c, std::uint64_t, const std::uint8_t*,
                 std::uint64_t) -> std::int32_t {
    ++static_cast<ShardEnv*>(c)->forwards;
    return 0;
  };
  h.reply = [](void* c, const std::uint8_t*, std::uint64_t) -> std::int32_t {
    ++static_cast<ShardEnv*>(c)->replies;
    return 0;
  };
  return h;
}

void put_u64(Bytes& bytes, std::size_t offset, std::uint64_t value) {
  std::memcpy(bytes.data() + offset, &value, 8);
}

Bytes u64_payload(std::initializer_list<std::uint64_t> words) {
  Bytes bytes(8 * words.size());
  std::size_t i = 0;
  for (std::uint64_t w : words) put_u64(bytes, 8 * i++, w);
  return bytes;
}

/// One workload scenario: a program, an environment, a payload template,
/// and a per-iteration reset.
struct Scenario {
  vm::Program program;
  ShardEnv env;
  Bytes payload;
  std::vector<std::uint64_t> shard;
  std::vector<std::uint64_t> cell, bitmap, worklist;
  bool needs_reset = false;

  void reset() {
    if (!needs_reset) return;
    std::fill(bitmap.begin(), bitmap.end(), 0);
    cell[0] = 0;  // visited count
    cell[3] = cell[4] = cell[5] = 0;  // engagement words
  }
};

vm::Program lowered_or_die(ir::KernelKind kind) {
  auto program = vm::lower_kernel(kind);
  if (!program.is_ok()) std::abort();
  return std::move(program).value();
}

/// Hash-probe chain walk: 512 buckets, all local; the probed key sits 32
/// slots past its start bucket behind mismatching non-empty buckets.
Scenario hash_probe_scenario() {
  Scenario s{lowered_or_die(ir::KernelKind::kHashProbe)};
  const std::size_t buckets = 512, chain = 32;
  s.shard.assign(2 * buckets, 0);
  for (std::size_t b = 0; b < chain; ++b) {
    s.shard[2 * b] = 1000 + b;  // decoys: non-empty, never the target
    s.shard[2 * b + 1] = b;
  }
  s.shard[2 * chain] = 7;        // the target key
  s.shard[2 * chain + 1] = 777;
  s.env.shard = s.shard.data();
  s.env.shard_size = s.shard.size();
  s.payload = u64_payload({7, 0, buckets, 0xC0});  // key, slot, probes, tag
  return s;
}

/// Skip-list descent: 256 ten-word records, level-l fingers skipping 4^l
/// nodes; the search target is the last node's key.
Scenario ordered_search_scenario() {
  Scenario s{lowered_or_die(ir::KernelKind::kOrderedSearch)};
  const std::size_t nodes = 256;
  s.shard.assign(10 * nodes, 0);
  for (std::size_t i = 0; i < nodes; ++i) {
    std::uint64_t* rec = s.shard.data() + 10 * i;
    rec[0] = 10 * i;       // key
    rec[1] = 10 * i + 1;   // value
    for (std::size_t l = 0; l < 4; ++l) {
      const std::size_t skip = 1ull << (2 * l);  // 1, 4, 16, 64
      const std::size_t next = i + skip;
      rec[2 + 2 * l] = next < nodes ? next : ~0ull;
      rec[3 + 2 * l] = next < nodes ? 10 * next : 0;
    }
  }
  s.env.shard = s.shard.data();
  s.env.shard_size = s.shard.size();
  s.payload = u64_payload({10 * (nodes - 1), 0, 3, 0xC1});
  return s;
}

/// BFS frontier expansion: a 256-vertex line graph, fully local, visited in
/// one invocation through the worklist; bitmap and cell reset per iteration.
Scenario bfs_scenario() {
  Scenario s{lowered_or_die(ir::KernelKind::kBfsFrontier)};
  const std::size_t n = 256;
  s.shard.assign(1 + (n + 1) + (n - 1), 0);
  s.shard[0] = n;  // vertices per shard
  for (std::size_t v = 0; v <= n; ++v) {
    s.shard[1 + v] = v < n - 1 ? v : n - 1;  // row offsets: one edge each
  }
  for (std::size_t v = 0; v + 1 < n; ++v) {
    s.shard[1 + n + 1 + v] = v + 1;  // cols: v -> v+1
  }
  s.cell.assign(8, 0);
  s.bitmap.assign((n + 63) / 64, 0);
  s.worklist.assign(n, 0);
  s.cell[1] = reinterpret_cast<std::uint64_t>(s.bitmap.data());
  s.cell[2] = reinterpret_cast<std::uint64_t>(s.worklist.data());
  s.env.shard = s.shard.data();
  s.env.shard_size = s.shard.size();
  s.env.cell = s.cell.data();
  s.payload = u64_payload({0, 0, 0, ~0ull});  // visit v0 from the origin
  s.needs_reset = true;
  return s;
}

void run_dispatch(benchmark::State& state, Scenario scenario) {
  const bool want_threaded = state.range(0) != 0;
  vm::InterpOptions options;
  options.dispatch =
      want_threaded ? vm::Dispatch::kThreaded : vm::Dispatch::kSwitch;
  vm::HookTable hooks = shard_hooks(scenario.env);
  Bytes payload = scenario.payload;
  std::uint64_t total_instrs = 0;
  for (auto _ : state) {
    scenario.reset();
    std::memcpy(payload.data(), scenario.payload.data(), payload.size());
    auto r = vm::execute(scenario.program, hooks, payload.data(),
                         payload.size(), options);
    if (!r.is_ok()) {
      state.SkipWithError(r.status().to_string().c_str());
      break;
    }
    total_instrs += r->instrs;
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["bytecode_instrs"] = benchmark::Counter(
      static_cast<double>(total_instrs), benchmark::Counter::kIsRate);
  if (want_threaded && !vm::threaded_dispatch_available()) {
    state.SetLabel("threaded unavailable: ran switch dispatch");
  }
}

void BM_Dispatch_HashProbe(benchmark::State& state) {
  run_dispatch(state, hash_probe_scenario());
}
void BM_Dispatch_OrderedSearch(benchmark::State& state) {
  run_dispatch(state, ordered_search_scenario());
}
void BM_Dispatch_Bfs(benchmark::State& state) {
  run_dispatch(state, bfs_scenario());
}
// Arg: threaded (1) or switch (0) dispatch; reports render it as goto:Y.
BENCHMARK(BM_Dispatch_HashProbe)->ArgName("goto")->Arg(0)->Arg(1);
BENCHMARK(BM_Dispatch_OrderedSearch)->ArgName("goto")->Arg(0)->Arg(1);
BENCHMARK(BM_Dispatch_Bfs)->ArgName("goto")->Arg(0)->Arg(1);

#if TC_WITH_LLVM

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

// First invocation, bitcode tier: parse + optimize + codegen + link + run —
// the stall the interpreter tier removes from the cold path.
void BM_FirstInvocation_BitcodeJit(benchmark::State& state) {
  const Bytes bitcode = tsi_bitcode();
  std::uint64_t counter = 0;
  std::uint8_t payload = 0;
  int n = 0;
  for (auto _ : state) {
    auto engine = jit::OrcEngine::create(hook_options());
    auto entry = (*engine)->add_ifunc_bitcode("tsi" + std::to_string(n++),
                                              as_span(bitcode), {});
    core::ExecContext ctx = make_ctx(&counter);
    (*entry)(&ctx, &payload, 1);
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_FirstInvocation_BitcodeJit)->Unit(benchmark::kMicrosecond);

// First invocation, binary tier: link only + run.
void BM_FirstInvocation_ObjectLink(benchmark::State& state) {
  const Bytes object = tsi_object();
  std::uint64_t counter = 0;
  std::uint8_t payload = 0;
  int n = 0;
  for (auto _ : state) {
    auto engine = jit::OrcEngine::create(hook_options());
    auto entry = (*engine)->add_ifunc_object("tsi" + std::to_string(n++),
                                             as_span(object), {});
    core::ExecContext ctx = make_ctx(&counter);
    (*entry)(&ctx, &payload, 1);
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_FirstInvocation_ObjectLink)->Unit(benchmark::kMicrosecond);

// Steady state, JIT tier: what promotion buys once the ifunc is hot.
void BM_SteadyState_Jit(benchmark::State& state) {
  llvm::LLVMContext context;
  auto module = kir::build_kir_module(context, ir::KernelKind::kPayloadSum,
                                      ir::host_descriptor());
  auto engine = jit::OrcEngine::create(hook_options());
  auto entry = (*engine)->add_ifunc_bitcode(
      "payload_sum", as_span(ir::module_to_bitcode(**module)), {});
  Bytes payload(static_cast<std::size_t>(state.range(0)), 3);
  std::uint64_t sum = 0;
  for (auto _ : state) {
    core::ExecContext ctx = make_ctx(&sum);
    (*entry)(&ctx, payload.data(), payload.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SteadyState_Jit)->Arg(64)->Arg(4096);

#endif  // TC_WITH_LLVM

}  // namespace

BENCHMARK_MAIN();
