// Tests for the X-RDMA layer: pointer-table invariants, the Chaser payload
// codec, and — the strongest system property — DAPC result equivalence
// across every execution mode (AM, GET, bitcode, binary, HLL).
#include <gtest/gtest.h>

#include <numeric>

#include "xrdma/chaser.hpp"
#include "xrdma/dapc.hpp"
#include "xrdma/pointer_table.hpp"

namespace tc::xrdma {
namespace {

// --- pointer table --------------------------------------------------------------

class TableShapeP
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {
};

TEST_P(TableShapeP, EntriesFormOnePermutationCycle) {
  const auto [shards, per_shard] = GetParam();
  PointerTableConfig config;
  config.shard_count = shards;
  config.entries_per_shard = per_shard;
  auto table = DistributedPointerTable::build(config);
  ASSERT_TRUE(table.is_ok());
  const std::uint64_t total = shards * per_shard;
  EXPECT_EQ(table->total_entries(), total);

  // Permutation: every address appears exactly once as a value.
  std::vector<bool> seen(total, false);
  for (std::uint64_t addr = 0; addr < total; ++addr) {
    const std::uint64_t value = table->lookup(addr);
    ASSERT_LT(value, total);
    ASSERT_FALSE(seen[value]) << "duplicate value " << value;
    seen[value] = true;
  }

  // Single cycle: walking from 0 returns to 0 after exactly `total` steps.
  std::uint64_t cursor = 0;
  for (std::uint64_t i = 0; i < total; ++i) cursor = table->lookup(cursor);
  EXPECT_EQ(cursor, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TableShapeP,
    ::testing::Combine(::testing::Values(1, 2, 3, 8, 16),
                       ::testing::Values(2, 16, 256)));

TEST(PointerTable, ServerMajorAddressing) {
  PointerTableConfig config;
  config.shard_count = 4;
  config.entries_per_shard = 100;
  auto table = DistributedPointerTable::build(config);
  ASSERT_TRUE(table.is_ok());
  EXPECT_EQ(table->owner_of(0), 0u);
  EXPECT_EQ(table->owner_of(99), 0u);
  EXPECT_EQ(table->owner_of(100), 1u);
  EXPECT_EQ(table->owner_of(399), 3u);
  EXPECT_EQ(table->slot_of(250), 50u);
}

TEST(PointerTable, DeterministicPerSeed) {
  PointerTableConfig config;
  config.shard_count = 2;
  config.entries_per_shard = 64;
  auto a = DistributedPointerTable::build(config);
  auto b = DistributedPointerTable::build(config);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  for (std::uint64_t i = 0; i < a->total_entries(); ++i) {
    EXPECT_EQ(a->lookup(i), b->lookup(i));
  }
  config.seed ^= 1;
  auto c = DistributedPointerTable::build(config);
  ASSERT_TRUE(c.is_ok());
  std::uint64_t diffs = 0;
  for (std::uint64_t i = 0; i < a->total_entries(); ++i) {
    if (a->lookup(i) != c->lookup(i)) ++diffs;
  }
  EXPECT_GT(diffs, a->total_entries() / 2);
}

TEST(PointerTable, RemoteFractionGrowsWithServers) {
  // Paper §IV-E: "the partitioning is refined as the number of servers
  // increases, thus the fraction of cross-server communication rises."
  double previous = 0.0;
  for (std::uint64_t shards : {2, 4, 8, 16}) {
    PointerTableConfig config;
    config.shard_count = shards;
    config.entries_per_shard = 512;
    auto table = DistributedPointerTable::build(config);
    ASSERT_TRUE(table.is_ok());
    const double fraction = table->remote_fraction();
    EXPECT_GT(fraction, previous);
    // Random permutation: expected remote fraction ≈ 1 - 1/shards.
    EXPECT_NEAR(fraction, 1.0 - 1.0 / static_cast<double>(shards), 0.05);
    previous = fraction;
  }
}

TEST(PointerTable, ChaseExpectedMatchesManualWalk) {
  PointerTableConfig config;
  config.shard_count = 3;
  config.entries_per_shard = 32;
  auto table = DistributedPointerTable::build(config);
  ASSERT_TRUE(table.is_ok());
  std::uint64_t cursor = 17;
  for (int d = 1; d <= 10; ++d) {
    cursor = table->lookup(cursor);
    EXPECT_EQ(table->chase_expected(17, d), cursor);
  }
}

TEST(PointerTable, InvalidConfigRejected) {
  PointerTableConfig config;
  config.shard_count = 0;
  EXPECT_FALSE(DistributedPointerTable::build(config).is_ok());
  config.shard_count = 1;
  config.entries_per_shard = 0;
  EXPECT_FALSE(DistributedPointerTable::build(config).is_ok());
}

// --- chaser codec ----------------------------------------------------------------

TEST(ChaserCodec, PayloadRoundTrip) {
  const ChaseRequest request{0xABCD, 4096};
  Bytes wire = encode_chase_payload(request);
  EXPECT_EQ(wire.size(), 16u);
  auto decoded = decode_chase_payload(as_span(wire));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->address, request.address);
  EXPECT_EQ(decoded->depth, request.depth);
}

TEST(ChaserCodec, ShortPayloadRejected) {
  Bytes tiny(7, 0);
  EXPECT_FALSE(decode_chase_payload(as_span(tiny)).is_ok());
}

TEST(ChaserCodec, LibraryNamesEncodeVariant) {
  // Every stock library is named `<kernel>[_vm][_hll][_bin][_w]`; the name
  // hashes to the wire ifunc id, so none of these may move.
  using K = ir::KernelKind;
  EXPECT_EQ(core::stock_library_name(K::kChaser, ir::CodeRepr::kObject,
                                     {.hll_guards = true,
                                      .chaser_tagged = true}),
            "dapc_chaser_hll_bin_w");
  EXPECT_EQ(core::stock_library_name(K::kChaser, ir::CodeRepr::kPortable,
                                     {.hll_guards = true,
                                      .chaser_tagged = true}),
            "dapc_chaser_vm_hll_w");
  EXPECT_EQ(core::stock_library_name(K::kCollectiveReduce,
                                     ir::CodeRepr::kObject),
            "coll_reduce_bin");
  EXPECT_EQ(core::stock_library_name(K::kOrderedSearch,
                                     ir::CodeRepr::kPortable),
            "ordered_search_vm");
  EXPECT_EQ(core::stock_library_name(K::kBfsFrontier, ir::CodeRepr::kBitcode,
                                     {.hll_guards = true}),
            "bfs_frontier_hll");
  auto portable = build_chaser_library(ir::CodeRepr::kPortable, false);
  ASSERT_TRUE(portable.is_ok());
  EXPECT_EQ(portable->name(), "dapc_chaser_vm");
  EXPECT_EQ(portable->repr(), ir::CodeRepr::kPortable);
#if TC_WITH_LLVM
  auto bitcode = build_chaser_library(ir::CodeRepr::kBitcode, false);
  auto binary = build_chaser_library(ir::CodeRepr::kObject, false);
  auto hll = build_chaser_library(ir::CodeRepr::kBitcode, true);
  ASSERT_TRUE(bitcode.is_ok());
  ASSERT_TRUE(binary.is_ok());
  ASSERT_TRUE(hll.is_ok());
  EXPECT_EQ(bitcode->name(), "dapc_chaser");
  EXPECT_EQ(binary->name(), "dapc_chaser_bin");
  EXPECT_EQ(hll->name(), "dapc_chaser_hll");
  EXPECT_EQ(binary->repr(), ir::CodeRepr::kObject);
  // Distinct names → distinct wire identities → independent caching.
  EXPECT_NE(bitcode->id(), binary->id());
  EXPECT_NE(bitcode->id(), hll->id());
  EXPECT_NE(bitcode->id(), portable->id());
#else
  // Bitcode/object representations need LLVM.
  EXPECT_FALSE(build_chaser_library(ir::CodeRepr::kBitcode, false).is_ok());
  EXPECT_FALSE(build_chaser_library(ir::CodeRepr::kObject, false).is_ok());
#endif
}

// --- DAPC drivers -----------------------------------------------------------------

constexpr ChaseMode kAllModes[] = {
    ChaseMode::kActiveMessage, ChaseMode::kGet, ChaseMode::kInterpreted,
#if TC_WITH_LLVM
    ChaseMode::kCachedBitcode, ChaseMode::kCachedBinary,
    ChaseMode::kHllBitcode,    ChaseMode::kHllDrivesC,
#endif
};

std::unique_ptr<hetsim::Cluster> small_cluster(std::size_t servers) {
  hetsim::ClusterConfig config;
  config.platform = hetsim::Platform::kThorXeon;
  config.server_count = servers;
  auto cluster = hetsim::Cluster::create(config);
  EXPECT_TRUE(cluster.is_ok());
  return std::move(cluster).value();
}

DapcConfig small_config() {
  DapcConfig config;
  config.depth = 32;
  config.chases = 4;
  config.entries_per_shard = 128;
  return config;
}

class DapcModeP : public ::testing::TestWithParam<ChaseMode> {};

TEST_P(DapcModeP, AllResultsCorrect) {
  auto cluster = small_cluster(3);
  auto driver = DapcDriver::create(*cluster, GetParam(), small_config());
  ASSERT_TRUE(driver.is_ok()) << driver.status().to_string();
  auto result = (*driver)->run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->completed, 4u);
  EXPECT_EQ(result->correct, 4u);
  EXPECT_GT(result->chases_per_second, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllModes, DapcModeP, ::testing::ValuesIn(kAllModes),
                         [](const auto& info) {
                           return chase_mode_name(info.param);
                         });

TEST(DapcEquivalence, EveryModeObservesIdenticalValues) {
  // The strongest property in the system: six completely different
  // execution pipelines (predeployed AM handler, client-driven GETs, JIT'd
  // bitcode, linked objects, HLL-guarded bitcode) must produce the same
  // value sequence for the same seed.
  std::vector<std::uint64_t> reference;
  for (ChaseMode mode : kAllModes) {
    auto cluster = small_cluster(4);
    auto driver = DapcDriver::create(*cluster, mode, small_config());
    ASSERT_TRUE(driver.is_ok()) << chase_mode_name(mode);
    auto result = (*driver)->run();
    ASSERT_TRUE(result.is_ok())
        << chase_mode_name(mode) << ": " << result.status().to_string();
    EXPECT_EQ(result->correct, result->completed) << chase_mode_name(mode);
    if (reference.empty()) {
      reference = result->values;
    } else {
      EXPECT_EQ(result->values, reference) << chase_mode_name(mode);
    }
  }
}

TEST(DapcEquivalence, WindowedModesObserveIdenticalValues) {
  // The async-pipeline extension of the above: W = 4 in-flight tagged
  // chases (with sender-side frame batching on the ifunc modes) must still
  // produce the synchronous value sequence in every execution pipeline,
  // even though completions now arrive out of order.
  std::vector<std::uint64_t> reference;
  {
    auto cluster = small_cluster(4);
    auto driver = DapcDriver::create(*cluster, ChaseMode::kActiveMessage,
                                     small_config());
    ASSERT_TRUE(driver.is_ok());
    auto result = (*driver)->run();
    ASSERT_TRUE(result.is_ok());
    reference = result->values;
  }
  DapcConfig windowed = small_config();
  windowed.window = 4;
  windowed.batch_frames = 4;
  for (ChaseMode mode : kAllModes) {
    auto cluster = small_cluster(4);
    auto driver = DapcDriver::create(*cluster, mode, windowed);
    ASSERT_TRUE(driver.is_ok()) << chase_mode_name(mode);
    auto result = (*driver)->run();
    ASSERT_TRUE(result.is_ok())
        << chase_mode_name(mode) << ": " << result.status().to_string();
    EXPECT_EQ(result->correct, result->completed) << chase_mode_name(mode);
    EXPECT_EQ(result->values, reference) << chase_mode_name(mode);
  }
}

std::unique_ptr<hetsim::Cluster> small_wall_cluster(
    hetsim::Backend backend, std::size_t servers, std::size_t clients = 1) {
  hetsim::ClusterConfig config;
  config.platform = hetsim::Platform::kThorXeon;
  config.backend = backend;
  config.server_count = servers;
  config.client_count = clients;
  auto cluster = hetsim::Cluster::create(config);
  EXPECT_TRUE(cluster.is_ok());
  return std::move(cluster).value();
}

std::unique_ptr<hetsim::Cluster> small_shm_cluster(std::size_t servers,
                                                   std::size_t clients = 1) {
  return small_wall_cluster(hetsim::Backend::kShm, servers, clients);
}

TEST(DapcBackendEquivalence, EveryModeObservesIdenticalValuesOnWallClock) {
  // The pluggable-transport acceptance property: all chase modes walk the
  // identical address/value sequence whether the fabric is the calibrated
  // virtual-time simulation, real threads over shared-memory rings, or
  // real threads over stream sockets.
  for (ChaseMode mode : kAllModes) {
    std::vector<std::uint64_t> reference;
    {
      auto sim_cluster = small_cluster(3);
      auto driver = DapcDriver::create(*sim_cluster, mode, small_config());
      ASSERT_TRUE(driver.is_ok()) << chase_mode_name(mode);
      auto result = (*driver)->run();
      ASSERT_TRUE(result.is_ok())
          << chase_mode_name(mode) << ": " << result.status().to_string();
      EXPECT_FALSE(result->wall_clock);
      reference = result->values;
    }
    for (hetsim::Backend backend :
         {hetsim::Backend::kShm, hetsim::Backend::kSocket}) {
      auto wall_cluster = small_wall_cluster(backend, 3);
      auto driver = DapcDriver::create(*wall_cluster, mode, small_config());
      ASSERT_TRUE(driver.is_ok()) << chase_mode_name(mode);
      auto result = (*driver)->run();
      ASSERT_TRUE(result.is_ok())
          << chase_mode_name(mode) << " on " << hetsim::backend_name(backend)
          << ": " << result.status().to_string();
      EXPECT_TRUE(result->wall_clock);
      EXPECT_EQ(result->correct, result->completed) << chase_mode_name(mode);
      EXPECT_EQ(result->values, reference) << chase_mode_name(mode);
      EXPECT_GT(result->chases_per_second, 0.0) << chase_mode_name(mode);
    }
  }
}

TEST(DapcBackendEquivalence, MultiInitiatorWindowedMatchesAcrossBackends) {
  // M = 2 initiators × W = 2 in-flight tagged chases: virtual-time
  // interleaving and real concurrent client threads must converge on the
  // same per-initiator value sequences.
  DapcConfig config = small_config();
  config.window = 2;
  config.initiators = 2;
  std::vector<std::uint64_t> reference;
  {
    hetsim::ClusterConfig sim_config;
    sim_config.platform = hetsim::Platform::kThorXeon;
    sim_config.server_count = 3;
    sim_config.client_count = 2;
    auto sim_cluster = hetsim::Cluster::create(sim_config);
    ASSERT_TRUE(sim_cluster.is_ok());
    auto driver = DapcDriver::create(**sim_cluster,
                                     ChaseMode::kInterpreted, config);
    ASSERT_TRUE(driver.is_ok()) << driver.status().to_string();
    auto result = (*driver)->run();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->completed, 2 * config.chases);
    EXPECT_EQ(result->correct, result->completed);
    reference = result->values;
  }
  auto shm_cluster = small_shm_cluster(3, /*clients=*/2);
  auto driver =
      DapcDriver::create(*shm_cluster, ChaseMode::kInterpreted, config);
  ASSERT_TRUE(driver.is_ok()) << driver.status().to_string();
  auto result = (*driver)->run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->completed, 2 * config.chases);
  EXPECT_EQ(result->correct, result->completed);
  EXPECT_EQ(result->values, reference);
}

TEST(DapcMultiInitiator, SimStaysDeterministicWithConcurrentInitiators) {
  // M > 1 on the simulated backend interleaves in virtual time; two runs
  // must agree on every value *and* on the virtual-time clock.
  DapcConfig config = small_config();
  config.initiators = 3;
  config.window = 2;
  std::vector<std::uint64_t> values;
  std::int64_t virtual_ns = 0;
  for (int round = 0; round < 2; ++round) {
    hetsim::ClusterConfig cluster_config;
    cluster_config.platform = hetsim::Platform::kThorXeon;
    cluster_config.server_count = 2;
    cluster_config.client_count = 3;
    auto cluster = hetsim::Cluster::create(cluster_config);
    ASSERT_TRUE(cluster.is_ok());
    auto driver =
        DapcDriver::create(**cluster, ChaseMode::kInterpreted, config);
    ASSERT_TRUE(driver.is_ok());
    auto result = (*driver)->run();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->correct, result->completed);
    if (round == 0) {
      values = result->values;
      virtual_ns = result->virtual_ns;
    } else {
      EXPECT_EQ(result->values, values);
      EXPECT_EQ(result->virtual_ns, virtual_ns);
    }
  }
}

// The simulated timeline, pinned: exact virtual completion times of the
// chase modes that ship no LLVM output (AM, GET, interpreted), so every
// build flavour must reproduce them. Any change to event order, injection
// accounting or compute charging on the sim backend moves one of these.
struct TimelineCase {
  hetsim::Platform platform;
  ChaseMode mode;
  std::uint64_t window;  ///< > 1 also coalesces that many frames per send
  std::int64_t virtual_ns;
};

constexpr TimelineCase kTimeline[] = {
    {hetsim::Platform::kOokami, ChaseMode::kActiveMessage, 1, 363682},
    {hetsim::Platform::kOokami, ChaseMode::kActiveMessage, 4, 121499},
    {hetsim::Platform::kOokami, ChaseMode::kGet, 1, 667264},
    {hetsim::Platform::kOokami, ChaseMode::kGet, 4, 168571},
    {hetsim::Platform::kOokami, ChaseMode::kInterpreted, 1, 424054},
    {hetsim::Platform::kOokami, ChaseMode::kInterpreted, 4, 174780},
    {hetsim::Platform::kThorBF2, ChaseMode::kActiveMessage, 1, 269454},
    {hetsim::Platform::kThorBF2, ChaseMode::kActiveMessage, 4, 92852},
    {hetsim::Platform::kThorBF2, ChaseMode::kGet, 1, 471296},
    {hetsim::Platform::kThorBF2, ChaseMode::kGet, 4, 120089},
    {hetsim::Platform::kThorBF2, ChaseMode::kInterpreted, 1, 355868},
    {hetsim::Platform::kThorBF2, ChaseMode::kInterpreted, 4, 163453},
    {hetsim::Platform::kThorXeon, ChaseMode::kActiveMessage, 1, 153056},
    {hetsim::Platform::kThorXeon, ChaseMode::kActiveMessage, 4, 45461},
    {hetsim::Platform::kThorXeon, ChaseMode::kGet, 1, 384384},
    {hetsim::Platform::kThorXeon, ChaseMode::kGet, 4, 96471},
    {hetsim::Platform::kThorXeon, ChaseMode::kInterpreted, 1, 175788},
    {hetsim::Platform::kThorXeon, ChaseMode::kInterpreted, 4, 54531},
};

class DapcTimelineP : public ::testing::TestWithParam<TimelineCase> {};

TEST_P(DapcTimelineP, VirtualTimeIsPinned) {
  const TimelineCase& c = GetParam();
  hetsim::ClusterConfig cluster_config;
  cluster_config.platform = c.platform;
  cluster_config.server_count = 3;
  cluster_config.client_count = 2;
  auto cluster = hetsim::Cluster::create(cluster_config);
  ASSERT_TRUE(cluster.is_ok());
  DapcConfig config = small_config();
  config.initiators = 2;
  config.window = c.window;
  config.batch_frames = c.window;
  auto driver = DapcDriver::create(**cluster, c.mode, config);
  ASSERT_TRUE(driver.is_ok()) << driver.status().to_string();
  auto result = (*driver)->run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->correct, 2 * config.chases);
  EXPECT_FALSE(result->wall_clock);
  EXPECT_EQ(result->virtual_ns, c.virtual_ns);
}

INSTANTIATE_TEST_SUITE_P(
    Sim, DapcTimelineP, ::testing::ValuesIn(kTimeline), [](const auto& info) {
      return std::string(hetsim::platform_name(info.param.platform)) + "_" +
             chase_mode_name(info.param.mode) + "_W" +
             std::to_string(info.param.window);
    });

TEST(DapcMultiInitiator, RejectsMoreInitiatorsThanClientNodes) {
  auto cluster = small_cluster(2);  // one client node
  DapcConfig config = small_config();
  config.initiators = 2;
  auto driver =
      DapcDriver::create(*cluster, ChaseMode::kInterpreted, config);
  EXPECT_FALSE(driver.is_ok());
  EXPECT_EQ(driver.status().code(), ErrorCode::kInvalidArgument);
}

class DapcShapeP : public ::testing::TestWithParam<
                       std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(DapcShapeP, IfuncModesCorrectAcrossShapes) {
  const auto [depth, servers] = GetParam();
#if TC_WITH_LLVM
  const ChaseMode mode = ChaseMode::kCachedBitcode;
#else
  const ChaseMode mode = ChaseMode::kInterpreted;
#endif
  auto cluster = small_cluster(servers);
  DapcConfig config = small_config();
  config.depth = depth;
  config.chases = 3;
  auto driver = DapcDriver::create(*cluster, mode, config);
  ASSERT_TRUE(driver.is_ok());
  auto result = (*driver)->run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->correct, 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DapcShapeP,
    ::testing::Combine(::testing::Values(1, 2, 16, 128),
                       ::testing::Values(1, 2, 5, 8)));

TEST(DapcPerformance, GetIsSlowerThanInterpretedAtDepth) {
  // The interpreter pays a per-op dispatch tax but still walks local
  // entries without touching the network, so it beats GBPC exactly like
  // the JIT'd chaser does.
  auto config = small_config();
  config.depth = 128;
  config.chases = 2;

  auto cluster_get = small_cluster(4);
  auto get = DapcDriver::create(*cluster_get, ChaseMode::kGet, config);
  ASSERT_TRUE(get.is_ok());
  auto get_result = (*get)->run();
  ASSERT_TRUE(get_result.is_ok());

  auto cluster_vm = small_cluster(4);
  auto interp =
      DapcDriver::create(*cluster_vm, ChaseMode::kInterpreted, config);
  ASSERT_TRUE(interp.is_ok());
  auto vm_result = (*interp)->run();
  ASSERT_TRUE(vm_result.is_ok());

  EXPECT_GT(vm_result->chases_per_second, get_result->chases_per_second);
}

TEST(DapcInterpreted, VmOnlyRunCompletesWithZeroJitCompiles) {
  // Acceptance: a VM-tier DAPC run never touches the JIT — the servers
  // execute the shipped portable bytecode as-is.
  auto cluster = small_cluster(3);
  auto driver =
      DapcDriver::create(*cluster, ChaseMode::kInterpreted, small_config());
  ASSERT_TRUE(driver.is_ok()) << driver.status().to_string();
  auto result = (*driver)->run();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->correct, result->completed);
  std::uint64_t interp_total = 0;
  for (fabric::NodeId node = 0; node < cluster->fabric().node_count();
       ++node) {
    const auto& stats = cluster->runtime(node).stats();
    EXPECT_EQ(stats.jit_compiles, 0u) << "node " << node;
    EXPECT_EQ(stats.object_links, 0u) << "node " << node;
    interp_total += stats.interp_executions;
  }
  EXPECT_GT(interp_total, 0u);
}

#if TC_WITH_LLVM
TEST(DapcPerformance, GetIsSlowerThanIfuncAtDepth) {
  // Paper Figs. 5-7: the chaser beats GBPC because only cross-shard hops
  // touch the network, while GBPC pays a full round trip per lookup.
  auto config = small_config();
  config.depth = 128;
  config.chases = 2;

  auto cluster_get = small_cluster(4);
  auto get = DapcDriver::create(*cluster_get, ChaseMode::kGet, config);
  ASSERT_TRUE(get.is_ok());
  auto get_result = (*get)->run();
  ASSERT_TRUE(get_result.is_ok());

  auto cluster_bc = small_cluster(4);
  auto bitcode =
      DapcDriver::create(*cluster_bc, ChaseMode::kCachedBitcode, config);
  ASSERT_TRUE(bitcode.is_ok());
  auto bc_result = (*bitcode)->run();
  ASSERT_TRUE(bc_result.is_ok());

  EXPECT_GT(bc_result->chases_per_second, get_result->chases_per_second);
}

TEST(DapcPerformance, AmAndBitcodeWithinFewPercent) {
  // Paper §V-D: AM performs between 3% and 7% better than cached bitcode.
  auto config = small_config();
  config.depth = 256;
  config.chases = 2;

  auto cluster_am = small_cluster(4);
  auto am = DapcDriver::create(*cluster_am, ChaseMode::kActiveMessage, config);
  ASSERT_TRUE(am.is_ok());
  auto am_result = (*am)->run();
  ASSERT_TRUE(am_result.is_ok());

  auto cluster_bc = small_cluster(4);
  auto bitcode =
      DapcDriver::create(*cluster_bc, ChaseMode::kCachedBitcode, config);
  ASSERT_TRUE(bitcode.is_ok());
  auto bc_result = (*bitcode)->run();
  ASSERT_TRUE(bc_result.is_ok());

  const double ratio =
      am_result->chases_per_second / bc_result->chases_per_second;
  EXPECT_GT(ratio, 0.90);
  EXPECT_LT(ratio, 1.15);
}
#endif  // TC_WITH_LLVM

TEST(DapcDriver, InvalidConfigRejected) {
  auto cluster = small_cluster(2);
  DapcConfig config = small_config();
  config.depth = 0;
  EXPECT_FALSE(
      DapcDriver::create(*cluster, ChaseMode::kGet, config).is_ok());
  config = small_config();
  config.chases = 0;
  EXPECT_FALSE(
      DapcDriver::create(*cluster, ChaseMode::kGet, config).is_ok());
}

TEST(DapcDriver, ColdRunStillCorrect) {
#if TC_WITH_LLVM
  const ChaseMode mode = ChaseMode::kCachedBitcode;
#else
  const ChaseMode mode = ChaseMode::kInterpreted;
#endif
  auto cluster = small_cluster(2);
  DapcConfig config = small_config();
  config.warmup = false;
  auto driver = DapcDriver::create(*cluster, mode, config);
  ASSERT_TRUE(driver.is_ok());
  auto result = (*driver)->run();
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->correct, result->completed);
}

}  // namespace
}  // namespace tc::xrdma
