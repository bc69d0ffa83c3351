// Tests for the high-level-language frontend (the Julia-integration
// analogue): guard emission, naming, correctness, and the virtual-time cost
// signature the paper observed.
#include <gtest/gtest.h>

#include "core/runtime.hpp"
#include "hll/frontend.hpp"

namespace tc::hll {
namespace {

TEST(HllFrontend, GuardsEmittedOnlyInHllMode) {
  auto hll_lib = build_library(ir::KernelKind::kPayloadSum);
  auto c_lib = build_library(ir::KernelKind::kPayloadSum, /*drive_with_c=*/true);
  ASSERT_TRUE(hll_lib.is_ok());
  ASSERT_TRUE(c_lib.is_ok());

  auto hll_guards =
      count_guard_calls(as_span(hll_lib->archive().entries()[0].code));
  auto c_guards =
      count_guard_calls(as_span(c_lib->archive().entries()[0].code));
  ASSERT_TRUE(hll_guards.is_ok());
  ASSERT_TRUE(c_guards.is_ok());
  EXPECT_GT(*hll_guards, 0u);
  EXPECT_EQ(*c_guards, 0u);
}

TEST(HllFrontend, NamesDistinguishFrontends) {
  auto hll_lib = build_library(ir::KernelKind::kChaser);
  auto c_lib = build_library(ir::KernelKind::kChaser, true);
  ASSERT_TRUE(hll_lib.is_ok());
  ASSERT_TRUE(c_lib.is_ok());
  EXPECT_EQ(hll_lib->name(), "hll_dapc_chaser");
  EXPECT_EQ(c_lib->name(), "hll_dapc_chaser_c");
  EXPECT_NE(hll_lib->id(), c_lib->id());
}

TEST(HllFrontend, ArchivesStayMultiIsa) {
  auto lib = build_library(ir::KernelKind::kVecReduce);
  ASSERT_TRUE(lib.is_ok());
  EXPECT_EQ(lib->archive().entries().size(), 2u);
}

TEST(HllFrontend, SinSumLibrariesDeclareLibm) {
  // The HLL archive is the stock one under another name, deps manifest
  // included: the target dlopens libm before it links `sin`.
  for (bool drive_with_c : {false, true}) {
    auto lib = build_library(ir::KernelKind::kSinSum, drive_with_c);
    ASSERT_TRUE(lib.is_ok()) << lib.status().to_string();
    EXPECT_EQ(lib->archive().dependencies(),
              std::vector<std::string>{"libm.so.6"})
        << lib->name();
  }
}

TEST(HllFrontend, GuardCountScalesWithLoopKernels) {
  // Loop kernels guard each iteration site; straight-line TSI only the
  // entry — the HLL tax is proportional to dynamic dispatch sites.
  auto tsi = build_library(ir::KernelKind::kTargetSideIncrement);
  auto sum = build_library(ir::KernelKind::kPayloadSum);
  ASSERT_TRUE(tsi.is_ok());
  ASSERT_TRUE(sum.is_ok());
  auto tsi_guards =
      count_guard_calls(as_span(tsi->archive().entries()[0].code));
  auto sum_guards =
      count_guard_calls(as_span(sum->archive().entries()[0].code));
  ASSERT_TRUE(tsi_guards.is_ok());
  ASSERT_TRUE(sum_guards.is_ok());
  EXPECT_GE(*tsi_guards, 1u);
  EXPECT_GE(*sum_guards, 1u);
}

class HllExecution : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_.set_default_link(fabric::instant_link());
    a_ = fabric_.add_node("a");
    b_ = fabric_.add_node("b");
    auto rt_a = core::Runtime::create(fabric_, a_);
    ASSERT_TRUE(rt_a.is_ok());
    rt_a_ = std::move(rt_a).value();
    core::RuntimeOptions options;
    options.hll_guard_cost_ns = 500;
    options.lookup_exec_cost_ns = 10;
    auto rt_b = core::Runtime::create(fabric_, b_, options);
    ASSERT_TRUE(rt_b.is_ok());
    rt_b_ = std::move(rt_b).value();
  }

  fabric::Fabric fabric_;
  fabric::NodeId a_ = 0, b_ = 0;
  std::unique_ptr<core::Runtime> rt_a_, rt_b_;
};

TEST_F(HllExecution, HllKernelComputesSameResultButSlower) {
  auto hll_lib = build_library(ir::KernelKind::kVecReduce);
  auto c_lib = build_library(ir::KernelKind::kVecReduce, true);
  ASSERT_TRUE(hll_lib.is_ok());
  ASSERT_TRUE(c_lib.is_ok());
  auto hll_id = rt_a_->register_ifunc(std::move(*hll_lib));
  auto c_id = rt_a_->register_ifunc(std::move(*c_lib));
  ASSERT_TRUE(hll_id.is_ok());
  ASSERT_TRUE(c_id.is_ok());

  constexpr std::uint64_t n = 64;
  ByteWriter w;
  w.u64(n);
  double expected = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    w.f64(0.5 * static_cast<double>(i));
    expected += 0.5 * static_cast<double>(i);
  }
  const Bytes payload = std::move(w).take();

  double out = 0;
  rt_b_->set_target_ptr(&out);

  // Warm both code paths (pay JIT once), then measure virtual time.
  for (auto id : {*c_id, *hll_id}) {
    ASSERT_TRUE(rt_a_->send_ifunc(b_, id, as_span(payload)).is_ok());
    fabric_.run_until_idle();
    EXPECT_DOUBLE_EQ(out, expected);
    out = 0;
  }

  const auto t0 = fabric_.now();
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *c_id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  const auto c_ns = fabric_.now() - t0;
  EXPECT_DOUBLE_EQ(out, expected);
  out = 0;

  const auto t1 = fabric_.now();
  ASSERT_TRUE(rt_a_->send_ifunc(b_, *hll_id, as_span(payload)).is_ok());
  fabric_.run_until_idle();
  const auto hll_ns = fabric_.now() - t1;
  EXPECT_DOUBLE_EQ(out, expected);

  // 64 iterations × 500 ns of guard cost dominate the HLL run.
  EXPECT_GT(hll_ns, c_ns + 30'000);
}

}  // namespace
}  // namespace tc::hll
