// Tests for the hardware-profile calibration and the virtual-cluster
// builder, including TSI latency relationships the paper reports.
// Also pins the rule by which a cluster drives its initiators.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/ifunc.hpp"
#include "hetsim/cluster.hpp"
#include "hetsim/profiles.hpp"

namespace tc::hetsim {
// Prints the backend's name: gtest_discover_tests copies the printed
// parameter into the ctest name.
void PrintTo(Backend backend, std::ostream* os) {
  *os << backend_name(backend);
}

namespace {

constexpr Platform kAll[] = {Platform::kOokami, Platform::kThorBF2,
                             Platform::kThorXeon};

class ProfileP : public ::testing::TestWithParam<Platform> {};

TEST_P(ProfileP, SanityOfConstants) {
  const HwProfile& p = profile_for(GetParam());
  EXPECT_FALSE(p.name.empty());
  EXPECT_GT(p.link.latency_ns, 0);
  EXPECT_GT(p.link.ns_per_byte, 0.0);
  EXPECT_GT(p.jit_cost_ns, 100'000);  // JIT is always ≥ 0.1 ms
  EXPECT_LT(p.link_cost_ns, p.jit_cost_ns);  // binary deploy beats JIT
  EXPECT_GT(p.ifunc_exec_ns, 0);
  EXPECT_GE(p.server_compute_scale, 1.0);
}

TEST_P(ProfileP, CachedSendBeatsAmOnOccupancy) {
  // Tables IV-VI: cached ifuncs achieve a higher message rate than AM.
  const HwProfile& p = profile_for(GetParam());
  const auto send_gap = p.link.occupancy_ns(31, fabric::OpClass::kSend);
  const auto am_gap = p.link.occupancy_ns(33, fabric::OpClass::kAm);
  EXPECT_LT(send_gap, am_gap);
}

TEST_P(ProfileP, UncachedTransmissionRoughlyDoublesCached) {
  // Tables I-III: uncached bitcode transmission is ~86%-135% slower.
  const HwProfile& p = profile_for(GetParam());
  const double cached = static_cast<double>(p.link.transmit_ns(31));
  const double uncached = static_cast<double>(p.link.transmit_ns(31 + 5159));
  const double ratio = uncached / cached;
  EXPECT_GT(ratio, 1.5) << p.name;
  EXPECT_LT(ratio, 3.0) << p.name;
}

INSTANTIATE_TEST_SUITE_P(AllPlatforms, ProfileP, ::testing::ValuesIn(kAll));

TEST(Profiles, JitCostOrderingMatchesPaper) {
  // 6.59 ms (A64FX) > 4.50 ms (BF2) > 0.83 ms (Xeon).
  EXPECT_GT(profile_for(Platform::kOokami).jit_cost_ns,
            profile_for(Platform::kThorBF2).jit_cost_ns);
  EXPECT_GT(profile_for(Platform::kThorBF2).jit_cost_ns,
            profile_for(Platform::kThorXeon).jit_cost_ns);
}

TEST(Profiles, XeonIsTheFastestFabric) {
  const auto& xeon = profile_for(Platform::kThorXeon).link;
  const auto& ookami = profile_for(Platform::kOokami).link;
  const auto& bf2 = profile_for(Platform::kThorBF2).link;
  EXPECT_LT(xeon.transmit_ns(31), bf2.transmit_ns(31));
  EXPECT_LT(bf2.transmit_ns(31), ookami.transmit_ns(31));
}

TEST(Profiles, Bf2ServersAreSlowCores) {
  EXPECT_GT(profile_for(Platform::kThorBF2).server_compute_scale, 1.5);
  EXPECT_EQ(profile_for(Platform::kThorXeon).server_compute_scale, 1.0);
}

// --- cluster builder ---------------------------------------------------------------

TEST(Cluster, TopologyAndRuntimes) {
  ClusterConfig config;
  config.platform = Platform::kThorXeon;
  config.server_count = 4;
  auto cluster = Cluster::create(config);
  ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
  EXPECT_EQ((*cluster)->fabric().node_count(), 5u);
  EXPECT_EQ((*cluster)->server_nodes().size(), 4u);
  EXPECT_EQ((*cluster)->client_node(), 0u);
  // Every node carries both runtimes.
  for (fabric::NodeId node = 0; node < (*cluster)->node_count(); ++node) {
    EXPECT_EQ((*cluster)->runtime(node).node_id(), node);
    EXPECT_EQ((*cluster)->am_runtime(node).node_id(), node);
  }
  // Every server runtime knows the peer table.
  for (auto node : (*cluster)->server_nodes()) {
    EXPECT_EQ(&(*cluster)->runtime(node), &(*cluster)->runtime(node));
  }
}

TEST(Cluster, ZeroServersRejected) {
  ClusterConfig config;
  config.server_count = 0;
  EXPECT_EQ(Cluster::create(config).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(Cluster, ComputeScaleAppliedToServers) {
  ClusterConfig config;
  config.platform = Platform::kThorBF2;
  config.server_count = 2;
  auto cluster = Cluster::create(config);
  ASSERT_TRUE(cluster.is_ok());
  const double scale = profile_for(Platform::kThorBF2).server_compute_scale;
  for (auto node : (*cluster)->server_nodes()) {
    EXPECT_DOUBLE_EQ((*cluster)->fabric().node(node).compute_scale, scale);
  }
  EXPECT_DOUBLE_EQ(
      (*cluster)->fabric().node((*cluster)->client_node()).compute_scale,
      1.0);
}

// --- the initiator rule ----------------------------------------------------------

class InitiatorRuleP : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<Cluster> make_cluster(std::size_t clients) {
    ClusterConfig config;
    config.backend = GetParam();
    config.server_count = 1;
    config.client_count = clients;
    // Initiators run one after another never finish the concurrency test
    // below; the watchdog ends such a run in seconds.
    config.shm_run_until_timeout_ms = 10'000;
    auto cluster = Cluster::create(config);
    EXPECT_TRUE(cluster.is_ok()) << cluster.status().to_string();
    return cluster.is_ok() ? std::move(*cluster) : nullptr;
  }
  bool wall_clock() const { return GetParam() != Backend::kSim; }
};

TEST_P(InitiatorRuleP, OneInitiatorStartsOnTheCallingThread) {
  auto cluster = make_cluster(1);
  ASSERT_NE(cluster, nullptr);
  std::thread::id started;
  bool issued = false;
  ASSERT_TRUE(cluster
                  ->drive_initiators(
                      cluster->client_nodes(),
                      [&](std::size_t) {
                        started = std::this_thread::get_id();
                        issued = true;
                        return Status::ok();
                      },
                      [&](std::size_t) { return issued; },
                      [](std::size_t) { return false; })
                  .is_ok());
  EXPECT_EQ(started, std::this_thread::get_id());
}

TEST_P(InitiatorRuleP, ThreeInitiatorsFollowTheBackendRule) {
  auto cluster = make_cluster(3);
  ASSERT_NE(cluster, nullptr);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::thread::id>> starts;
  std::atomic<std::size_t> started{0};
  // No initiator is done until all three have started: on a wall-clock
  // backend that holds only if they run at the same time.
  ASSERT_TRUE(cluster
                  ->drive_initiators(
                      cluster->client_nodes(),
                      [&](std::size_t i) {
                        {
                          std::lock_guard lock(mu);
                          starts.emplace_back(i, std::this_thread::get_id());
                        }
                        started.fetch_add(1);
                        return Status::ok();
                      },
                      [&](std::size_t) { return started.load() == 3; },
                      [](std::size_t) { return false; })
                  .is_ok());
  ASSERT_EQ(starts.size(), 3u);
  const std::thread::id caller = std::this_thread::get_id();
  if (!wall_clock()) {
    for (std::size_t k = 0; k < starts.size(); ++k) {
      EXPECT_EQ(starts[k].first, k);
      EXPECT_EQ(starts[k].second, caller);
    }
    return;
  }
  std::set<std::thread::id> threads;
  for (const auto& [index, id] : starts) {
    EXPECT_NE(id, caller) << "initiator " << index;
    threads.insert(id);
  }
  EXPECT_EQ(threads.size(), 3u);
}

TEST_P(InitiatorRuleP, StartErrorIsReturnedAfterTheOtherInitiatorsFinish) {
  auto cluster = make_cluster(3);
  ASSERT_NE(cluster, nullptr);
  using Clock = std::chrono::steady_clock;
  // Each entry is touched only by its initiator's progress context, and
  // read here after the call returns.
  std::array<Clock::time_point, 3> started_at{};
  std::array<bool, 3> started{};
  std::array<bool, 3> finished{};
  const Status status = cluster->drive_initiators(
      cluster->client_nodes(),
      [&](std::size_t i) {
        if (i == 1) return internal_error("initiator 1 cannot start");
        started_at[i] = Clock::now();
        started[i] = true;
        return Status::ok();
      },
      // The healthy initiators outlast the failed start, so a call that
      // returned on the first error would find them unfinished.
      [&](std::size_t i) {
        if (!started[i] ||
            Clock::now() - started_at[i] < std::chrono::milliseconds(50)) {
          return false;
        }
        finished[i] = true;
        return true;
      },
      [](std::size_t) { return false; });
  EXPECT_EQ(status.code(), ErrorCode::kInternal);
  EXPECT_EQ(status.message(), "initiator 1 cannot start");
  if (wall_clock()) {
    EXPECT_TRUE(finished[0]);
    EXPECT_TRUE(finished[2]);
  } else {
    // One thread starts the initiators in order and stops at the failure.
    EXPECT_TRUE(started[0]);
    EXPECT_FALSE(started[2]);
    EXPECT_FALSE(finished[0]);
  }
}

TEST(Cluster, DriveInitiatorsNeedsAnInitiator) {
  auto cluster = Cluster::create(ClusterConfig{});
  ASSERT_TRUE(cluster.is_ok());
  const Status status = (*cluster)->drive_initiators(
      {}, [](std::size_t) { return Status::ok(); },
      [](std::size_t) { return true; }, [](std::size_t) { return false; });
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(Backends, InitiatorRuleP,
                         ::testing::Values(Backend::kSim, Backend::kShm,
                                           Backend::kSocket),
                         ::testing::PrintToStringParamName());

TEST_P(ProfileP, InterpreterTierConstantsCalibrated) {
  const HwProfile& p = profile_for(GetParam());
  // A per-op dispatch exists and is cheap relative to everything else.
  EXPECT_GT(p.interp_op_ns, 0);
  EXPECT_LT(p.interp_op_ns, p.hll_guard_ns);
  // Loading a portable program is µs-scale — orders of magnitude under the
  // JIT compile it replaces on the cold path.
  EXPECT_GT(p.vm_load_ns, 0);
  EXPECT_LT(p.vm_load_ns * 50, p.jit_cost_ns);
}

TEST_P(ProfileP, RuntimeOptionsCarryProfileCharges) {
  // runtime_options_for is the one place a profile's calibrated costs reach
  // the runtimes a Cluster builds; every charge must come through it.
  const HwProfile& p = profile_for(GetParam());
  const core::RuntimeOptions o = runtime_options_for(p);
  EXPECT_EQ(o.jit_cost_ns, p.jit_cost_ns);
  EXPECT_EQ(o.link_cost_ns, p.link_cost_ns);
  EXPECT_EQ(o.lookup_exec_cost_ns, p.ifunc_exec_ns);
  EXPECT_EQ(o.hll_guard_cost_ns, p.hll_guard_ns);
  EXPECT_EQ(o.interp_op_ns, p.interp_op_ns);
  EXPECT_EQ(o.portable_load_cost_ns, p.vm_load_ns);
  EXPECT_EQ(o.batch_unpack_cost_ns, p.batch_unpack_ns);
  // Pinned, not measured: the sim charge is deterministic on every profile.
  EXPECT_GE(o.interp_op_ns, 0);
  EXPECT_GE(o.portable_load_cost_ns, 0);
}

#if TC_WITH_LLVM
class TsiLatencyP : public ::testing::TestWithParam<Platform> {};

TEST_P(TsiLatencyP, CachedVsUncachedVsSecondSend) {
  // Reproduces the relationship of Tables I-III in virtual time: the first
  // (uncached) ifunc pays transmission of the fat archive plus the JIT;
  // subsequent (cached) sends take roughly the AM-scale latency.
  ClusterConfig config;
  config.platform = GetParam();
  config.server_count = 1;
  auto cluster_or = Cluster::create(config);
  ASSERT_TRUE(cluster_or.is_ok());
  Cluster& cluster = **cluster_or;

  auto lib = core::IfuncLibrary::from_kernel(
      ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(lib.is_ok());
  auto id = cluster.client_runtime().register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  const auto server = cluster.server_nodes()[0];
  std::uint64_t counter = 0;
  cluster.runtime(server).set_target_ptr(&counter);
  auto& fabric = cluster.fabric();

  Bytes payload{0};
  const auto t0 = fabric.now();
  ASSERT_TRUE(cluster.client_runtime()
                  .send_ifunc(server, *id, as_span(payload))
                  .is_ok());
  ASSERT_TRUE(fabric.run_until([&] { return counter == 1; }).is_ok());
  const auto uncached_ns = fabric.now() - t0;

  const auto t1 = fabric.now();
  ASSERT_TRUE(cluster.client_runtime()
                  .send_ifunc(server, *id, as_span(payload))
                  .is_ok());
  ASSERT_TRUE(fabric.run_until([&] { return counter == 2; }).is_ok());
  const auto cached_ns = fabric.now() - t1;

  const HwProfile& profile = profile_for(GetParam());
  // Uncached pays the one-time JIT (ms scale on every platform).
  EXPECT_GT(uncached_ns, profile.jit_cost_ns);
  // Cached latency is µs scale: within 3x of the bare AM wire time.
  EXPECT_LT(cached_ns, 3 * profile.link.transmit_ns(33));
  // And the cached/uncached gap is at least 100x (ms vs µs).
  EXPECT_GT(uncached_ns / std::max<std::int64_t>(cached_ns, 1), 100);
}

INSTANTIATE_TEST_SUITE_P(AllPlatforms, TsiLatencyP, ::testing::ValuesIn(kAll));
#endif  // TC_WITH_LLVM

class VmTierLatencyP : public ::testing::TestWithParam<Platform> {};

TEST_P(VmTierLatencyP, PortableFirstSendAvoidsTheJitStall) {
  // The tentpole property in virtual time: the first invocation of a
  // portable ifunc costs µs (wire + decode + interpret), not the ms-scale
  // JIT compile the bitcode representation pays on the same platform.
  ClusterConfig config;
  config.platform = GetParam();
  config.server_count = 1;
  auto cluster_or = Cluster::create(config);
  ASSERT_TRUE(cluster_or.is_ok());
  Cluster& cluster = **cluster_or;

  auto lib = core::IfuncLibrary::from_portable_kernel(
      ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(lib.is_ok()) << lib.status().to_string();
  auto id = cluster.client_runtime().register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  const auto server = cluster.server_nodes()[0];
  std::uint64_t counter = 0;
  cluster.runtime(server).set_target_ptr(&counter);
  auto& fabric = cluster.fabric();

  Bytes payload{0};
  const auto t0 = fabric.now();
  ASSERT_TRUE(cluster.client_runtime()
                  .send_ifunc(server, *id, as_span(payload))
                  .is_ok());
  ASSERT_TRUE(fabric.run_until([&] { return counter == 1; }).is_ok());
  const auto first_ns = fabric.now() - t0;

  const HwProfile& profile = profile_for(GetParam());
  // No JIT on the cold path: the entire first invocation is far below the
  // platform's one-time compile cost.
  EXPECT_LT(first_ns, profile.jit_cost_ns / 10);
  EXPECT_EQ(cluster.runtime(server).stats().jit_compiles, 0u);
  EXPECT_EQ(cluster.runtime(server).stats().portable_loads, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllPlatforms, VmTierLatencyP,
                         ::testing::ValuesIn(kAll));

}  // namespace
}  // namespace tc::hetsim
