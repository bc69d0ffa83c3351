// Tests for the IR layer: kernel construction (every kernel × every target
// triple), bitcode round-trips, and the fat-bitcode archive format.
#include <gtest/gtest.h>

#include <llvm/IR/LLVMContext.h>

#include "common/rng.hpp"
#include "ir/abi.hpp"
#include "ir/bitcode.hpp"
#include "ir/fat_bitcode.hpp"
#include "ir/target_info.hpp"
#include "kir/llvm_backend.hpp"

namespace tc::ir {
namespace {

// --- target info -----------------------------------------------------------------

TEST(TargetInfo, HostTripleDetected) {
  const std::string triple = host_triple();
  EXPECT_FALSE(triple.empty());
  EXPECT_TRUE(triple_is_host_compatible(triple));
}

TEST(TargetInfo, DefaultFatTargetsSpanTwoIsas) {
  const auto targets = default_fat_targets();
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(normalize_triple(targets[0].triple), host_triple());
  EXPECT_FALSE(triple_is_host_compatible(targets[1].triple));
}

TEST(TargetInfo, TargetMachineForBothMajorIsas) {
  for (const char* triple : {kTripleX86, kTripleAArch64}) {
    auto machine = make_target_machine({triple, "", ""});
    ASSERT_TRUE(machine.is_ok()) << triple;
    EXPECT_EQ(normalize_triple((*machine)->getTargetTriple().str()),
              normalize_triple(triple));
  }
}

TEST(TargetInfo, BogusTripleFails) {
  auto machine = make_target_machine({"zz80-unknown-none", "", ""});
  EXPECT_EQ(machine.status().code(), ErrorCode::kBadBitcode);
}

TEST(TargetInfo, HostDescriptorHasCpu) {
  const TargetDescriptor desc = host_descriptor();
  EXPECT_FALSE(desc.cpu.empty());
  EXPECT_EQ(desc.triple, host_triple());
}

// --- kernel builder ---------------------------------------------------------------

constexpr KernelKind kAllKernels[] = {
    KernelKind::kTargetSideIncrement, KernelKind::kPayloadSum,
    KernelKind::kSaxpy,               KernelKind::kVecReduce,
    KernelKind::kChaser,              KernelKind::kRingHop,
    KernelKind::kSpawner,             KernelKind::kSinSum,
    KernelKind::kRemoteStore,         KernelKind::kStatsSummary,
    KernelKind::kTreeBroadcast,       KernelKind::kCollectiveBroadcast,
    KernelKind::kCollectiveReduce,    KernelKind::kHashProbe,
    KernelKind::kOrderedSearch,       KernelKind::kBfsFrontier,
};
static_assert(std::size(kAllKernels) == kKernelKindCount,
              "keep the test catalogue in lockstep with KernelKind");

// The triple is a std::string, not a const char*: gtest prints a pointer's
// ASLR-randomized address, and gtest_discover_tests copies the printed
// parameter into the ctest name.
class KernelBuildP
    : public ::testing::TestWithParam<std::tuple<KernelKind, std::string>> {};

TEST_P(KernelBuildP, BuildsVerifiedModuleWithEntry) {
  const auto [kind, triple] = GetParam();
  llvm::LLVMContext context;
  auto module = kir::build_kir_module(context, kind, {triple, "", ""});
  ASSERT_TRUE(module.is_ok()) << module.status().to_string();
  EXPECT_TRUE(verify_module(**module).is_ok());

  const llvm::Function* entry = (*module)->getFunction(abi::kEntryName);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->isDeclaration());
  EXPECT_EQ(entry->arg_size(), 3u);
  EXPECT_EQ(normalize_triple((*module)->getTargetTriple()),
            normalize_triple(triple));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsBothIsas, KernelBuildP,
    ::testing::Combine(::testing::ValuesIn(kAllKernels),
                       ::testing::Values(std::string(kTripleX86),
                                         std::string(kTripleAArch64))));

TEST(KernelBuilder, NamesAreStableAndUnique) {
  std::set<std::string> names;
  for (KernelKind kind : kAllKernels) {
    names.insert(kernel_name(kind));
    EXPECT_STRNE(kernel_description(kind), "");
  }
  EXPECT_EQ(names.size(), std::size(kAllKernels));
}

TEST(KernelBuilder, HllGuardsChangeEmission) {
  llvm::LLVMContext context;
  KernelOptions plain, hll;
  hll.hll_guards = true;
  auto a = kir::build_kir_module(context, KernelKind::kChaser,
                                 {kTripleX86, "", ""}, plain);
  auto b = kir::build_kir_module(context, KernelKind::kChaser,
                                 {kTripleX86, "", ""}, hll);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ((*a)->getFunction(abi::kHookHllGuard), nullptr);
  EXPECT_NE((*b)->getFunction(abi::kHookHllGuard), nullptr);
}

TEST(KernelBuilder, WorkloadKernelsReferenceTheirHooks) {
  llvm::LLVMContext context;
  // The lookup kernels route by shard ownership and answer the origin.
  for (KernelKind kind :
       {KernelKind::kHashProbe, KernelKind::kOrderedSearch}) {
    auto module = kir::build_kir_module(context, kind, {kTripleX86, "", ""});
    ASSERT_TRUE(module.is_ok()) << kernel_name(kind);
    for (const char* hook : {abi::kHookShardBase, abi::kHookShardSize,
                             abi::kHookSelfPeer, abi::kHookPeerCount,
                             abi::kHookForward, abi::kHookReply}) {
      if (kind == KernelKind::kOrderedSearch &&
          std::string(hook) == abi::kHookPeerCount) {
        continue;  // the index derives ownership from shard size alone
      }
      EXPECT_NE((*module)->getFunction(hook), nullptr)
          << kernel_name(kind) << " " << hook;
    }
  }
  // BFS additionally lands per-lane state through the target pointer.
  auto bfs = kir::build_kir_module(context, KernelKind::kBfsFrontier,
                                   {kTripleX86, "", ""});
  ASSERT_TRUE(bfs.is_ok());
  for (const char* hook : {abi::kHookTarget, abi::kHookShardBase,
                           abi::kHookSelfPeer, abi::kHookForward,
                           abi::kHookReply}) {
    EXPECT_NE((*bfs)->getFunction(hook), nullptr) << hook;
  }
}

TEST(KernelBuilder, ChaserReferencesAllChaseHooks) {
  llvm::LLVMContext context;
  auto module =
      kir::build_kir_module(context, KernelKind::kChaser, {kTripleX86, "", ""});
  ASSERT_TRUE(module.is_ok());
  for (const char* hook : {abi::kHookShardBase, abi::kHookShardSize,
                           abi::kHookSelfPeer, abi::kHookForward,
                           abi::kHookReply}) {
    EXPECT_NE((*module)->getFunction(hook), nullptr) << hook;
  }
}

// --- bitcode ---------------------------------------------------------------------

TEST(Bitcode, RoundTripPreservesEntry) {
  llvm::LLVMContext context;
  auto module = kir::build_kir_module(
      context, KernelKind::kTargetSideIncrement, {kTripleX86, "", ""});
  ASSERT_TRUE(module.is_ok());
  const Bytes bitcode = module_to_bitcode(**module);
  EXPECT_GT(bitcode.size(), 100u);

  llvm::LLVMContext context2;
  auto restored = bitcode_to_module(as_span(bitcode), context2);
  ASSERT_TRUE(restored.is_ok());
  EXPECT_NE((*restored)->getFunction(abi::kEntryName), nullptr);
  EXPECT_TRUE(verify_module(**restored).is_ok());
}

TEST(Bitcode, TripleProbeWithoutMaterialization) {
  llvm::LLVMContext context;
  auto module =
      kir::build_kir_module(context, KernelKind::kPayloadSum,
                            {kTripleAArch64, "", ""});
  ASSERT_TRUE(module.is_ok());
  auto triple = bitcode_triple(as_span(module_to_bitcode(**module)));
  ASSERT_TRUE(triple.is_ok());
  EXPECT_EQ(normalize_triple(*triple), normalize_triple(kTripleAArch64));
}

TEST(Bitcode, GarbageRejected) {
  Bytes junk(64, 0x5a);
  llvm::LLVMContext context;
  EXPECT_EQ(bitcode_to_module(as_span(junk), context).status().code(),
            ErrorCode::kBadBitcode);
}

// --- fat-bitcode archive ------------------------------------------------------------

FatBitcode make_test_archive(int entries, int deps = 0) {
  FatBitcode archive(CodeRepr::kBitcode);
  Xoshiro256 rng(entries * 131 + deps);
  for (int i = 0; i < entries; ++i) {
    TargetDescriptor target;
    target.triple = i == 0 ? kTripleX86 : kTripleAArch64;
    if (i > 1) target.triple = "riscv64-unknown-linux-gnu";
    target.cpu = "cpu" + std::to_string(i);
    Bytes code(16 + rng.below(64));
    for (auto& b : code) b = static_cast<std::uint8_t>(rng());
    EXPECT_TRUE(archive.add_entry(target, code).is_ok());
  }
  for (int i = 0; i < deps; ++i) {
    archive.add_dependency("libdep" + std::to_string(i) + ".so");
  }
  return archive;
}

TEST(FatBitcode, SerializeDeserializeRoundTrip) {
  FatBitcode archive = make_test_archive(2, 3);
  const Bytes wire = archive.serialize();
  auto restored = FatBitcode::deserialize(as_span(wire));
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored->repr(), CodeRepr::kBitcode);
  ASSERT_EQ(restored->entries().size(), 2u);
  EXPECT_EQ(restored->entries()[0].code, archive.entries()[0].code);
  EXPECT_EQ(restored->entries()[1].target.cpu, "cpu1");
  EXPECT_EQ(restored->dependencies(), archive.dependencies());
}

TEST(FatBitcode, DuplicateTripleRejected) {
  FatBitcode archive;
  ASSERT_TRUE(archive.add_entry({kTripleX86, "", ""}, Bytes{1}).is_ok());
  EXPECT_EQ(archive.add_entry({kTripleX86, "other", ""}, Bytes{2}).code(),
            ErrorCode::kAlreadyExists);
}

TEST(FatBitcode, EmptyCodeRejected) {
  FatBitcode archive;
  EXPECT_EQ(archive.add_entry({kTripleX86, "", ""}, Bytes{}).code(),
            ErrorCode::kInvalidArgument);
}

TEST(FatBitcode, DependencyDeduplicated) {
  FatBitcode archive;
  archive.add_dependency("libm.so.6");
  archive.add_dependency("libm.so.6");
  EXPECT_EQ(archive.dependencies().size(), 1u);
}

TEST(FatBitcode, SelectExactAndArchMatch) {
  FatBitcode archive = make_test_archive(2);
  auto exact = archive.select(kTripleX86);
  ASSERT_TRUE(exact.is_ok());
  EXPECT_EQ(normalize_triple((*exact)->target.triple),
            normalize_triple(kTripleX86));
  // Same arch+OS, different vendor spelling.
  auto fuzzy = archive.select("aarch64-none-linux-gnu");
  ASSERT_TRUE(fuzzy.is_ok());
  EXPECT_EQ(normalize_triple((*fuzzy)->target.triple),
            normalize_triple(kTripleAArch64));
}

TEST(FatBitcode, SelectMissingTripleFails) {
  FatBitcode archive = make_test_archive(1);
  EXPECT_EQ(archive.select("powerpc64le-unknown-linux-gnu").status().code(),
            ErrorCode::kNotFound);
}

TEST(FatBitcode, ChecksumDetectsCorruption) {
  const Bytes wire = make_test_archive(2, 1).serialize();
  for (std::size_t pos : {std::size_t{4}, wire.size() / 2, wire.size() - 9}) {
    Bytes corrupted = wire;
    corrupted[pos] ^= 0x40;
    auto restored = FatBitcode::deserialize(as_span(corrupted));
    EXPECT_FALSE(restored.is_ok()) << "flip at " << pos;
  }
}

TEST(FatBitcode, TruncationDetected) {
  const Bytes wire = make_test_archive(2).serialize();
  auto restored =
      FatBitcode::deserialize(ByteSpan(wire.data(), wire.size() - 4));
  EXPECT_FALSE(restored.is_ok());
}

TEST(FatBitcode, ObjectReprPreserved) {
  FatBitcode archive(CodeRepr::kObject);
  ASSERT_TRUE(archive.add_entry({kTripleX86, "", ""}, Bytes{1, 2, 3}).is_ok());
  auto restored = FatBitcode::deserialize(as_span(archive.serialize()));
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(restored->repr(), CodeRepr::kObject);
}

class FatBitcodeSweepP
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FatBitcodeSweepP, RoundTripAcrossShapes) {
  const auto [entries, deps] = GetParam();
  FatBitcode archive = make_test_archive(entries, deps);
  auto restored = FatBitcode::deserialize(as_span(archive.serialize()));
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(restored->entries().size(), static_cast<std::size_t>(entries));
  EXPECT_EQ(restored->dependencies().size(), static_cast<std::size_t>(deps));
  EXPECT_EQ(restored->code_size(), archive.code_size());
  for (std::size_t i = 0; i < archive.entries().size(); ++i) {
    EXPECT_EQ(restored->entries()[i].code, archive.entries()[i].code);
    EXPECT_EQ(restored->entries()[i].target, archive.entries()[i].target);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FatBitcodeSweepP,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0, 1, 4, 16)));

TEST(FatBitcode, DefaultKernelArchiveIsMultiIsa) {
  auto archive =
      kir::build_default_kir_fat_kernel(KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(archive.is_ok()) << archive.status().to_string();
  EXPECT_EQ(archive->entries().size(), 2u);
  // Paper §IV-B: the TSI fat-bitcode is ~5 KiB for two ISAs.
  EXPECT_GT(archive->code_size(), 1000u);
  EXPECT_LT(archive->code_size(), 50000u);
  ASSERT_TRUE(archive->select(host_triple()).is_ok());
}

TEST(FatBitcode, EveryEntryCarriesItsOwnTriple) {
  auto archive = kir::build_default_kir_fat_kernel(KernelKind::kChaser);
  ASSERT_TRUE(archive.is_ok());
  for (const ArchiveEntry& entry : archive->entries()) {
    auto probe = bitcode_triple(as_span(entry.code));
    ASSERT_TRUE(probe.is_ok());
    EXPECT_EQ(normalize_triple(*probe), normalize_triple(entry.target.triple));
  }
}

}  // namespace
}  // namespace tc::ir
