// Tests for the JIT layer: ORC engine, real kernel execution through the
// hook ABI, the binary-object path, cross-ISA AOT compilation, optimizer
// levels, and the code cache.
#include <gtest/gtest.h>

#include <cstring>

#include "core/context.hpp"
#include "ir/bitcode.hpp"
#include "jit/compiler.hpp"
#include "jit/engine.hpp"
#include "kir/llvm_backend.hpp"

namespace tc::jit {
namespace {

using ir::KernelKind;

/// Engine with the runtime hooks wired, as the real runtime configures it.
std::unique_ptr<OrcEngine> make_engine(OptLevel level = OptLevel::kO2) {
  EngineOptions options;
  options.opt_level = level;
  options.extra_symbols = core::runtime_hook_symbols();
  auto engine = OrcEngine::create(options);
  EXPECT_TRUE(engine.is_ok()) << engine.status().to_string();
  return std::move(engine).value();
}

Bytes host_kernel_bitcode(KernelKind kind, bool hll = false) {
  llvm::LLVMContext context;
  ir::KernelOptions options;
  options.hll_guards = hll;
  auto module = kir::build_kir_module(context, kind, ir::host_descriptor(),
                                      options);
  EXPECT_TRUE(module.is_ok()) << module.status().to_string();
  return ir::module_to_bitcode(**module);
}

TEST(OrcEngine, CreateReportsHostTriple) {
  auto engine = make_engine();
  EXPECT_TRUE(ir::triple_is_host_compatible(engine->triple()));
  EXPECT_EQ(engine->library_count(), 0u);
}

TEST(OrcEngine, TsiKernelIncrementsCounter) {
  auto engine = make_engine();
  CompileStats stats;
  auto entry = engine->add_ifunc_bitcode(
      "tsi", as_span(host_kernel_bitcode(KernelKind::kTargetSideIncrement)),
      {}, &stats);
  ASSERT_TRUE(entry.is_ok()) << entry.status().to_string();
  EXPECT_GT(stats.compile_ns, 0);
  EXPECT_GT(stats.code_bytes, 0u);

  std::uint64_t counter = 41;
  core::ExecContext ctx;
  ctx.target_ptr = &counter;
  std::uint8_t payload[1] = {0};
  (*entry)(&ctx, payload, sizeof(payload));
  EXPECT_EQ(counter, 42u);
  (*entry)(&ctx, payload, sizeof(payload));
  EXPECT_EQ(counter, 43u);
  EXPECT_EQ(engine->library_count(), 1u);
}

TEST(OrcEngine, PayloadSumComputesCorrectly) {
  auto engine = make_engine();
  auto entry = engine->add_ifunc_bitcode(
      "sum", as_span(host_kernel_bitcode(KernelKind::kPayloadSum)), {});
  ASSERT_TRUE(entry.is_ok());

  Bytes payload = {1, 2, 3, 250, 4};
  std::uint64_t out = 0;
  core::ExecContext ctx;
  ctx.target_ptr = &out;
  (*entry)(&ctx, payload.data(), payload.size());
  EXPECT_EQ(out, 260u);
}

TEST(OrcEngine, SaxpyMatchesReference) {
  auto engine = make_engine(OptLevel::kO3);
  auto entry = engine->add_ifunc_bitcode(
      "saxpy", as_span(host_kernel_bitcode(KernelKind::kSaxpy)), {});
  ASSERT_TRUE(entry.is_ok());

  constexpr std::uint64_t n = 257;  // odd size exercises vector tails
  const float a = 2.5f;
  ByteWriter w;
  w.u64(n);
  w.raw(ByteSpan(reinterpret_cast<const std::uint8_t*>(&a), 4));
  std::vector<float> x(n), y(n), out(n, 0.0f);
  for (std::uint64_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(i) * 0.5f;
    y[i] = static_cast<float>(n - i);
  }
  w.raw(ByteSpan(reinterpret_cast<const std::uint8_t*>(x.data()), 4 * n));
  w.raw(ByteSpan(reinterpret_cast<const std::uint8_t*>(y.data()), 4 * n));
  Bytes payload = std::move(w).take();

  core::ExecContext ctx;
  ctx.target_ptr = out.data();
  (*entry)(&ctx, payload.data(), payload.size());
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(out[i], a * x[i] + y[i]) << i;
  }
}

TEST(OrcEngine, VecReduceSumsDoubles) {
  auto engine = make_engine();
  auto entry = engine->add_ifunc_bitcode(
      "reduce", as_span(host_kernel_bitcode(KernelKind::kVecReduce)), {});
  ASSERT_TRUE(entry.is_ok());

  constexpr std::uint64_t n = 1000;
  ByteWriter w;
  w.u64(n);
  double expected = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const double v = 0.25 * static_cast<double>(i);
    expected += v;
    w.f64(v);
  }
  Bytes payload = std::move(w).take();
  double out = 0;
  core::ExecContext ctx;
  ctx.target_ptr = &out;
  (*entry)(&ctx, payload.data(), payload.size());
  EXPECT_DOUBLE_EQ(out, expected);
}

TEST(OrcEngine, TwoLibrariesWithSameEntryNameCoexist) {
  auto engine = make_engine();
  auto tsi = engine->add_ifunc_bitcode(
      "a", as_span(host_kernel_bitcode(KernelKind::kTargetSideIncrement)), {});
  auto sum = engine->add_ifunc_bitcode(
      "b", as_span(host_kernel_bitcode(KernelKind::kPayloadSum)), {});
  ASSERT_TRUE(tsi.is_ok());
  ASSERT_TRUE(sum.is_ok());
  EXPECT_NE(*tsi, *sum);
  EXPECT_EQ(engine->library_count(), 2u);
}

TEST(OrcEngine, ForeignIsaBitcodeRejected) {
  auto engine = make_engine();
  llvm::LLVMContext context;
  const char* foreign = ir::triple_is_host_compatible(ir::kTripleX86)
                            ? ir::kTripleAArch64
                            : ir::kTripleX86;
  auto module = kir::build_kir_module(
      context, KernelKind::kTargetSideIncrement, {foreign, "", ""});
  ASSERT_TRUE(module.is_ok());
  auto entry = engine->add_ifunc_bitcode(
      "foreign", as_span(ir::module_to_bitcode(**module)), {});
  EXPECT_EQ(entry.status().code(), ErrorCode::kBadBitcode);
}

TEST(OrcEngine, GarbageBitcodeRejected) {
  auto engine = make_engine();
  Bytes junk(128, 0x7f);
  auto entry = engine->add_ifunc_bitcode("junk", as_span(junk), {});
  EXPECT_EQ(entry.status().code(), ErrorCode::kBadBitcode);
}

TEST(OrcEngine, MissingDependencyFails) {
  auto engine = make_engine();
  auto entry = engine->add_ifunc_bitcode(
      "needy", as_span(host_kernel_bitcode(KernelKind::kTargetSideIncrement)),
      {"libtotally_missing_xyz.so"});
  EXPECT_EQ(entry.status().code(), ErrorCode::kNotFound);
}

TEST(OrcEngine, RealSharedLibraryDependencyLoads) {
  auto engine = make_engine();
  auto entry = engine->add_ifunc_bitcode(
      "with_libm",
      as_span(host_kernel_bitcode(KernelKind::kTargetSideIncrement)),
      {"libm.so.6"});
  ASSERT_TRUE(entry.is_ok()) << entry.status().to_string();
}

TEST(OrcEngine, LookupSymbolInLibrary) {
  auto engine = make_engine();
  ASSERT_TRUE(engine
                  ->add_ifunc_bitcode(
                      "lk",
                      as_span(host_kernel_bitcode(
                          KernelKind::kTargetSideIncrement)),
                      {})
                  .is_ok());
  auto addr = engine->lookup("lk", "tc_main");
  ASSERT_TRUE(addr.is_ok());
  EXPECT_NE(*addr, 0u);
  EXPECT_EQ(engine->lookup("lk", "no_such_symbol").status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(engine->lookup("no_such_lib", "tc_main").status().code(),
            ErrorCode::kNotFound);
}

// --- AOT compiler (binary representation) ----------------------------------------

TEST(Compiler, HostObjectCompilesAndLinks) {
  llvm::LLVMContext context;
  auto module = kir::build_kir_module(
      context, KernelKind::kTargetSideIncrement, ir::host_descriptor());
  ASSERT_TRUE(module.is_ok());
  auto object = compile_to_object(**module, ir::host_descriptor());
  ASSERT_TRUE(object.is_ok()) << object.status().to_string();
  // ELF magic.
  ASSERT_GE(object->size(), 4u);
  EXPECT_EQ((*object)[0], 0x7f);
  EXPECT_EQ((*object)[1], 'E');

  auto engine = make_engine();
  CompileStats stats;
  auto entry = engine->add_ifunc_object("tsi_bin", as_span(*object), {},
                                        &stats);
  ASSERT_TRUE(entry.is_ok()) << entry.status().to_string();
  EXPECT_EQ(stats.parse_ns, 0);
  EXPECT_EQ(stats.optimize_ns, 0);

  std::uint64_t counter = 0;
  core::ExecContext ctx;
  ctx.target_ptr = &counter;
  std::uint8_t payload = 0;
  (*entry)(&ctx, &payload, 1);
  EXPECT_EQ(counter, 1u);
}

TEST(Compiler, CrossIsaObjectEmitted) {
  // LLVM is natively a cross-compiler: an x86 host can emit AArch64 ELF
  // objects for the DPU side of a binary fat archive (and vice versa).
  const char* foreign = ir::triple_is_host_compatible(ir::kTripleX86)
                            ? ir::kTripleAArch64
                            : ir::kTripleX86;
  llvm::LLVMContext context;
  auto module = kir::build_kir_module(context, KernelKind::kChaser,
                                      {foreign, "", ""});
  ASSERT_TRUE(module.is_ok());
  auto object = compile_to_object(**module, {foreign, "", ""});
  ASSERT_TRUE(object.is_ok()) << object.status().to_string();
  EXPECT_GT(object->size(), 256u);
  EXPECT_EQ((*object)[0], 0x7f);
}

TEST(Compiler, TripleMismatchRejected) {
  llvm::LLVMContext context;
  auto module = kir::build_kir_module(
      context, KernelKind::kTargetSideIncrement, {ir::kTripleX86, "", ""});
  ASSERT_TRUE(module.is_ok());
  auto object = compile_to_object(**module, {ir::kTripleAArch64, "", ""});
  EXPECT_EQ(object.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Compiler, ArchiveToObjectsKeepsTargetsAndDeps) {
  auto bitcode =
      kir::build_default_kir_fat_kernel(KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(bitcode.is_ok());
  bitcode->add_dependency("libm.so.6");
  auto objects = compile_archive_to_objects(*bitcode);
  ASSERT_TRUE(objects.is_ok()) << objects.status().to_string();
  EXPECT_EQ(objects->repr(), ir::CodeRepr::kObject);
  EXPECT_EQ(objects->entries().size(), bitcode->entries().size());
  EXPECT_EQ(objects->dependencies(), bitcode->dependencies());
  // Objects are native code: entry selection by host triple must work.
  ASSERT_TRUE(objects->select(ir::host_triple()).is_ok());
}

TEST(Compiler, ObjectArchiveInputRejected) {
  ir::FatBitcode objects(ir::CodeRepr::kObject);
  ASSERT_TRUE(objects.add_entry({ir::kTripleX86, "", ""}, Bytes{1}).is_ok());
  EXPECT_EQ(compile_archive_to_objects(objects).status().code(),
            ErrorCode::kInvalidArgument);
}

// --- optimizer levels -----------------------------------------------------------------

class OptLevelP : public ::testing::TestWithParam<OptLevel> {};

TEST_P(OptLevelP, KernelRunsCorrectAtEveryLevel) {
  auto engine = make_engine(GetParam());
  auto entry = engine->add_ifunc_bitcode(
      "sum", as_span(host_kernel_bitcode(KernelKind::kPayloadSum)), {});
  ASSERT_TRUE(entry.is_ok());
  Bytes payload(512);
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
    expected += payload[i];
  }
  std::uint64_t out = 0;
  core::ExecContext ctx;
  ctx.target_ptr = &out;
  (*entry)(&ctx, payload.data(), payload.size());
  EXPECT_EQ(out, expected);
}

INSTANTIATE_TEST_SUITE_P(Levels, OptLevelP,
                         ::testing::Values(OptLevel::kO0, OptLevel::kO1,
                                           OptLevel::kO2, OptLevel::kO3));

}  // namespace
}  // namespace tc::jit
