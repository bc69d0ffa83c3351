// Tests for the textual-IR (.ll) ifunc frontend and new kernel behaviours:
// user-authored assembly end to end, the Welford statistics kernel, and
// bitcode disassembly.
#include <gtest/gtest.h>

#include <cmath>

#include "core/runtime.hpp"
#include "ir/bitcode.hpp"
#include "ir/textual.hpp"
#include "kir/llvm_backend.hpp"

namespace tc::ir {
namespace {

// A hand-written ifunc: stores 42 + payload[0] into the 64-bit target.
constexpr const char* kCustomLl = R"(
declare i8* @tc_ctx_target(i8*)

define void @tc_main(i8* %ctx, i8* %payload, i64 %size) {
entry:
  %raw = call i8* @tc_ctx_target(i8* %ctx)
  %out = bitcast i8* %raw to i64*
  %byte = load i8, i8* %payload
  %wide = zext i8 %byte to i64
  %value = add i64 %wide, 42
  store i64 %value, i64* %out
  ret void
}
)";

TEST(TextualIr, ArchiveFromLlSpansDefaultTargets) {
  auto archive = archive_from_ll(kCustomLl);
  ASSERT_TRUE(archive.is_ok()) << archive.status().to_string();
  EXPECT_EQ(archive->entries().size(), 2u);
  for (const ArchiveEntry& entry : archive->entries()) {
    auto probe = bitcode_triple(as_span(entry.code));
    ASSERT_TRUE(probe.is_ok());
    EXPECT_EQ(normalize_triple(*probe), normalize_triple(entry.target.triple));
  }
}

TEST(TextualIr, SyntaxErrorRejected) {
  auto archive = archive_from_ll("define broken {");
  EXPECT_EQ(archive.status().code(), ErrorCode::kBadBitcode);
}

TEST(TextualIr, MissingEntryRejected) {
  auto archive = archive_from_ll(
      "define void @not_main(i8* %a, i8* %b, i64 %c) { ret void }");
  EXPECT_EQ(archive.status().code(), ErrorCode::kBadBitcode);
}

TEST(TextualIr, NoTargetsRejected) {
  auto archive =
      archive_from_ll(kCustomLl, std::span<const TargetDescriptor>{});
  EXPECT_EQ(archive.status().code(), ErrorCode::kInvalidArgument);
}

TEST(TextualIr, HandWrittenIfuncRunsEndToEnd) {
  fabric::Fabric fabric;
  fabric.set_default_link(fabric::instant_link());
  const auto a = fabric.add_node("a");
  const auto b = fabric.add_node("b");
  auto rt_a = core::Runtime::create(fabric, a);
  auto rt_b = core::Runtime::create(fabric, b);
  ASSERT_TRUE(rt_a.is_ok());
  ASSERT_TRUE(rt_b.is_ok());

  auto archive = archive_from_ll(kCustomLl);
  ASSERT_TRUE(archive.is_ok());
  auto lib = core::IfuncLibrary::from_archive("custom_ll", std::move(*archive));
  ASSERT_TRUE(lib.is_ok());
  auto id = (*rt_a)->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  std::uint64_t out = 0;
  (*rt_b)->set_target_ptr(&out);
  Bytes payload{7};
  ASSERT_TRUE((*rt_a)->send_ifunc(b, *id, as_span(payload)).is_ok());
  fabric.run_until_idle();
  EXPECT_EQ(out, 49u);
}

TEST(TextualIr, DisassemblyRoundTrip) {
  llvm::LLVMContext context;
  auto module = kir::build_kir_module(
      context, KernelKind::kTargetSideIncrement, {kTripleX86, "", ""});
  ASSERT_TRUE(module.is_ok());
  auto text = bitcode_to_ll(as_span(module_to_bitcode(**module)));
  ASSERT_TRUE(text.is_ok());
  EXPECT_NE(text->find("define void @tc_main"), std::string::npos);
  EXPECT_NE(text->find("tc_ctx_target"), std::string::npos);
  // The disassembly is itself valid input for the .ll frontend.
  auto archive = archive_from_ll(*text);
  ASSERT_TRUE(archive.is_ok()) << archive.status().to_string();
}

TEST(StatsKernel, WelfordMatchesReference) {
  fabric::Fabric fabric;
  fabric.set_default_link(fabric::instant_link());
  const auto a = fabric.add_node("a");
  const auto b = fabric.add_node("b");
  auto rt_a = core::Runtime::create(fabric, a);
  auto rt_b = core::Runtime::create(fabric, b);
  ASSERT_TRUE(rt_a.is_ok());
  ASSERT_TRUE(rt_b.is_ok());

  auto lib = core::IfuncLibrary::from_kernel(KernelKind::kStatsSummary);
  ASSERT_TRUE(lib.is_ok());
  auto id = (*rt_a)->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  double state[3] = {0, 0, 0};  // count, mean, M2
  (*rt_b)->set_target_ptr(state);

  // Two batches — the "online" property: state accumulates across messages.
  double reference_sum = 0, reference_sq = 0;
  std::uint64_t total = 0;
  for (int batch = 0; batch < 2; ++batch) {
    constexpr std::uint64_t n = 100;
    ByteWriter w;
    w.u64(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const double x = 0.25 * static_cast<double>(i) - 10.0 * batch;
      reference_sum += x;
      reference_sq += x * x;
      ++total;
      w.f64(x);
    }
    ASSERT_TRUE((*rt_a)->send_ifunc(b, *id, as_span(w.bytes())).is_ok());
    fabric.run_until_idle();
  }

  const double mean = reference_sum / static_cast<double>(total);
  const double variance =
      reference_sq / static_cast<double>(total) - mean * mean;
  EXPECT_DOUBLE_EQ(state[0], static_cast<double>(total));
  EXPECT_NEAR(state[1], mean, 1e-9);
  EXPECT_NEAR(state[2] / state[0], variance, 1e-6);
}

}  // namespace
}  // namespace tc::ir
