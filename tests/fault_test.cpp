// Chaos conformance harness: the protocol stack under real loss.
//
// Three layers of coverage, all driven by fabric::FaultyTransport:
//
//  1. Shim mechanics — each fault kind does exactly what it claims at the
//     frame boundary (drop fails the completion and nothing arrives,
//     duplicates surface exactly once, truncated frames are discarded
//     before the runtime, delays reorder but deliver), per-link schedules
//     replay bit-for-bit from the seed, and a zero-fault shim is a strict
//     pass-through.
//  2. Runtime recovery — the wire-send retry budget turns the transport's
//     at-least-once completions plus the shim's receive-side dedup into
//     exactly-once frame delivery (counters execute once, budgets bound
//     the retries, exhaustion is observable).
//  3. End-to-end conformance — the remote-data-structure workloads, the
//     collective suite and windowed/batched DAPC produce bit-exact results
//     under a 10%-per-link fault mix on both backends and every available
//     code representation, with Dijkstra-Scholten termination (BFS) and
//     non-idempotent folds (reduce-sum) as the double-execution detectors.
//
// Failing chaos tests dump their injection schedule (see
// tests/chaos_util.hpp); TC_CHAOS_SEED replays a CI seed locally.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chaos_util.hpp"
#include "core/frame.hpp"
#include "core/ifunc.hpp"
#include "core/runtime.hpp"
#include "fabric/fabric.hpp"
#include "fabric/faulty_transport.hpp"
#include "fabric/shm_transport.hpp"
#include "fabric/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads/workload_engine.hpp"
#include "xrdma/collectives.hpp"
#include "xrdma/dapc.hpp"

namespace tc {
namespace {

using fabric::FaultConfig;
using fabric::FaultKind;
using fabric::FaultRates;
using fabric::FaultyTransport;
using fabric::InjectionEvent;

std::string backend_param_name(
    const ::testing::TestParamInfo<hetsim::Backend>& info) {
  return hetsim::backend_name(info.param);
}

// --- layer 1: shim mechanics over both raw backends --------------------------

class FaultyShimTest : public ::testing::TestWithParam<hetsim::Backend> {
 protected:
  static constexpr std::size_t kNodes = 3;

  void make(FaultConfig config) {
    if (GetParam() == hetsim::Backend::kSim) {
      fabric_ = std::make_unique<fabric::Fabric>();
      fabric_->set_default_link(fabric::instant_link());
      for (std::size_t i = 0; i < kNodes; ++i) {
        fabric_->add_node("n" + std::to_string(i));
      }
      shim_ = std::make_unique<FaultyTransport>(*fabric_, config);
    } else if (GetParam() == hetsim::Backend::kShm) {
      shm_ = std::make_unique<fabric::ShmTransport>(kNodes);
      shim_ = std::make_unique<FaultyTransport>(*shm_, config);
    } else {
      auto socket = fabric::SocketTransport::create_threaded(kNodes);
      ASSERT_TRUE(socket.is_ok()) << socket.status().to_string();
      socket_ = std::move(*socket);
      shim_ = std::make_unique<FaultyTransport>(*socket_, config);
    }
  }

  /// Pumps every node's progress from this thread until `pred` holds —
  /// valid on both backends, and it keeps the shm per-node timers (drop
  /// detection, duplicate copies, delays) firing.
  void drive_until(const std::function<bool()>& pred) {
    for (int spin = 0; spin < 1'000'000; ++spin) {
      if (pred()) return;
      for (fabric::NodeId n = 0; n < shim_->node_count(); ++n) {
        (void)shim_->progress(n);
      }
    }
    FAIL() << "drive_until: predicate not reached on "
           << hetsim::backend_name(GetParam());
  }

  std::unique_ptr<fabric::Fabric> fabric_;
  std::unique_ptr<fabric::ShmTransport> shm_;
  std::unique_ptr<fabric::SocketTransport> socket_;
  std::unique_ptr<FaultyTransport> shim_;
};

TEST_P(FaultyShimTest, DisabledShimForwardsVerbatim) {
  make(FaultConfig{});  // all rates zero: enabled() == false
  const Bytes msg{1, 2, 3, 4, 5};
  bool completed = false;
  Status status = internal_error("never fired");
  shim_->post_send(0, 1, as_span(msg), 1, [&](Status s) {
    completed = true;
    status = std::move(s);
  });
  std::optional<fabric::ReceivedMessage> received;
  drive_until([&] {
    if (!received.has_value()) received = shim_->try_recv(1);
    return completed && received.has_value();
  });
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  // Byte-identical to the bare backend: no shim header, no bookkeeping.
  EXPECT_EQ(received->data, msg);
  EXPECT_EQ(received->source, 0u);
  EXPECT_EQ(shim_->stats().frames_intercepted, 0u);
  EXPECT_TRUE(shim_->injection_log().empty());
}

TEST_P(FaultyShimTest, DropFailsCompletionAndFrameNeverArrives) {
  FaultConfig config;
  config.rates.drop = 1.0;
  make(config);
  constexpr std::size_t kFrames = 4;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    Bytes msg{static_cast<std::uint8_t>(i)};
    shim_->post_send(0, 1, as_span(msg), 1, [&](Status s) {
      EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
      ++failed;
    });
  }
  drive_until([&] { return failed == kFrames; });
  EXPECT_FALSE(shim_->try_recv(1).has_value());
  const auto stats = shim_->stats();
  EXPECT_EQ(stats.frames_intercepted, kFrames);
  EXPECT_EQ(stats.drops, kFrames);
  const auto log = shim_->injection_log();
  ASSERT_EQ(log.size(), kFrames);
  for (const InjectionEvent& event : log) {
    EXPECT_EQ(event.kind, FaultKind::kDrop);
    EXPECT_EQ(event.src, 0u);
    EXPECT_EQ(event.dst, 1u);
  }
}

TEST_P(FaultyShimTest, DuplicateSurfacesExactlyOnce) {
  FaultConfig config;
  config.rates.duplicate = 1.0;
  make(config);
  constexpr std::size_t kFrames = 8;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    Bytes msg{static_cast<std::uint8_t>(i)};
    shim_->post_send(0, 1, as_span(msg), 1, [&](Status s) {
      EXPECT_TRUE(s.is_ok()) << s.to_string();
      ++completed;
    });
  }
  std::vector<std::uint8_t> received;
  // Wait for the duplicate copies to have been delivered *and discarded*:
  // dup_discards is the proof the wire really carried each frame twice.
  drive_until([&] {
    while (auto msg = shim_->try_recv(1)) {
      received.push_back(msg->data.at(0));
    }
    return completed == kFrames && received.size() >= kFrames &&
           shim_->stats().dup_discards == kFrames;
  });
  // Exactly one copy of each frame surfaced, in order.
  ASSERT_EQ(received.size(), kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(received[i], i);
  }
  EXPECT_EQ(shim_->stats().duplicates, kFrames);
}

TEST_P(FaultyShimTest, TruncatedFrameDiscardedBeforeRuntime) {
  FaultConfig config;
  config.rates.truncate = 1.0;
  make(config);
  constexpr std::size_t kFrames = 3;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    Bytes msg{1, 2, 3, 4, 5, 6};
    shim_->post_send(0, 1, as_span(msg), 1, [&](Status s) {
      EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
      ++failed;
    });
  }
  drive_until([&] {
    // The mangled prefixes are caught by the receive-side length check —
    // polling must surface nothing, and each poll-discard is counted.
    EXPECT_FALSE(shim_->try_recv(1).has_value())
        << "a mangled frame reached the runtime layer";
    return failed == kFrames && shim_->stats().truncate_discards == kFrames;
  });
  EXPECT_EQ(shim_->stats().truncates, kFrames);
}

TEST_P(FaultyShimTest, DelayedFramesAllArrive) {
  FaultConfig config;
  config.rates.delay = 1.0;
  make(config);
  constexpr std::size_t kFrames = 8;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    Bytes msg{static_cast<std::uint8_t>(i)};
    shim_->post_send(0, 1, as_span(msg), 1,
                     [&](Status s) { completed += s.is_ok() ? 1 : 0; });
  }
  std::multiset<std::uint8_t> received;
  drive_until([&] {
    while (auto msg = shim_->try_recv(1)) received.insert(msg->data.at(0));
    return completed == kFrames && received.size() == kFrames;
  });
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(received.count(static_cast<std::uint8_t>(i)), 1u);
  }
  EXPECT_EQ(shim_->stats().delays, kFrames);
}

TEST_P(FaultyShimTest, PerLinkOverridesScopeFaultsToOneLink) {
  FaultConfig config;
  FaultRates dead;
  dead.drop = 1.0;
  config.per_link[fabric::fault_link_key(0, 1)] = dead;
  make(config);
  bool link01_failed = false;
  bool link02_ok = false;
  Bytes msg{7};
  shim_->post_send(0, 1, as_span(msg), 1,
                   [&](Status s) { link01_failed = !s.is_ok(); });
  shim_->post_send(0, 2, as_span(msg), 1,
                   [&](Status s) { link02_ok = s.is_ok(); });
  std::optional<fabric::ReceivedMessage> delivered;
  drive_until([&] {
    if (!delivered.has_value()) delivered = shim_->try_recv(2);
    return link01_failed && link02_ok && delivered.has_value();
  });
  EXPECT_FALSE(shim_->try_recv(1).has_value());
  EXPECT_EQ(delivered->data, msg);
  for (const InjectionEvent& event : shim_->injection_log()) {
    EXPECT_EQ(event.dst, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, FaultyShimTest,
                         ::testing::Values(hetsim::Backend::kSim,
                                           hetsim::Backend::kShm,
                                           hetsim::Backend::kSocket),
                         backend_param_name);

// Reordering is observable on the deterministic backend: a delayed frame
// enters the wire delay_ns late, so undelayed successors overtake it.
TEST(FaultyShimSimTest, DelayReordersAgainstUndelayedTraffic) {
  fabric::Fabric fabric;
  fabric.set_default_link(fabric::instant_link());
  fabric.add_node("a");
  fabric.add_node("b");
  FaultConfig config;
  config.seed = 42;
  config.rates.delay = 0.5;
  FaultyTransport shim(fabric, config);

  constexpr std::size_t kFrames = 32;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    Bytes msg{static_cast<std::uint8_t>(i)};
    shim.post_send(0, 1, as_span(msg), 1,
                   [&](Status s) { completed += s.is_ok() ? 1 : 0; });
  }
  std::vector<std::uint8_t> received;
  for (int spin = 0; spin < 1'000'000; ++spin) {
    while (auto msg = shim.try_recv(1)) received.push_back(msg->data.at(0));
    if (completed == kFrames && received.size() == kFrames) break;
    (void)shim.progress(0);
    (void)shim.progress(1);
  }
  ASSERT_EQ(received.size(), kFrames);
  const auto stats = shim.stats();
  ASSERT_GT(stats.delays, 0u);
  ASSERT_LT(stats.delays, kFrames);  // both delayed and prompt frames exist
  // All frames arrive exactly once...
  std::vector<std::uint8_t> sorted = received;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < kFrames; ++i) EXPECT_EQ(sorted[i], i);
  // ...but not in issue order: at least one prompt frame overtook a
  // delayed predecessor.
  EXPECT_FALSE(std::is_sorted(received.begin(), received.end()));
}

TEST(FaultyShimSimTest, BurstFaultsHitConsecutiveFrames) {
  fabric::Fabric fabric;
  fabric.set_default_link(fabric::instant_link());
  fabric.add_node("a");
  fabric.add_node("b");
  FaultConfig config;
  config.seed = 42;
  config.rates.drop = 0.02;
  config.burst_len = 4;
  FaultyTransport shim(fabric, config);

  constexpr std::size_t kFrames = 400;
  std::size_t fired = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    Bytes msg{static_cast<std::uint8_t>(i & 0xFF)};
    shim.post_send(0, 1, as_span(msg), 1, [&](Status) { ++fired; });
  }
  for (int spin = 0; spin < 1'000'000 && fired < kFrames; ++spin) {
    (void)shim.progress(0);
    (void)shim.progress(1);
  }
  ASSERT_EQ(fired, kFrames);
  while (shim.try_recv(1).has_value()) {
  }
  // Correlated loss: every fault opens a run of exactly burst_len frames
  // of the same kind with consecutive sequence numbers on the link.
  const auto log = shim.injection_log();
  ASSERT_GT(log.size(), 0u);
  ASSERT_EQ(log.size() % config.burst_len, 0u);
  for (std::size_t i = 0; i < log.size(); i += config.burst_len) {
    for (std::size_t k = 0; k < config.burst_len; ++k) {
      EXPECT_EQ(log[i + k].kind, log[i].kind);
      EXPECT_EQ(log[i + k].seq, log[i].seq + k);
    }
  }
}

TEST(FaultyShimSimTest, SeedReproducesExactSchedule) {
  auto run_schedule = [](std::uint64_t seed) {
    fabric::Fabric fabric;
    fabric.set_default_link(fabric::instant_link());
    fabric.add_node("a");
    fabric.add_node("b");
    fabric.add_node("c");
    FaultConfig config;
    config.seed = seed;
    config.rates.drop = 0.1;
    config.rates.duplicate = 0.1;
    config.rates.delay = 0.1;
    FaultyTransport shim(fabric, config);
    std::size_t fired = 0;
    constexpr std::size_t kFrames = 64;
    for (std::size_t i = 0; i < kFrames; ++i) {
      Bytes msg{static_cast<std::uint8_t>(i)};
      shim.post_send(0, 1 + (i % 2), as_span(msg), 1,
                     [&](Status) { ++fired; });
    }
    for (int spin = 0; spin < 1'000'000 && fired < kFrames; ++spin) {
      for (fabric::NodeId n = 0; n < 3; ++n) (void)shim.progress(n);
    }
    // Drain so trailing duplicate copies don't back up the rings.
    for (fabric::NodeId n = 0; n < 3; ++n) {
      while (shim.try_recv(n).has_value()) {
      }
    }
    EXPECT_EQ(fired, kFrames);
    return fabric::format_injection_log(shim.injection_log());
  };
  const std::string first = run_schedule(7);
  const std::string second = run_schedule(7);
  const std::string other = run_schedule(8);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // replayable from the seed alone
  EXPECT_NE(first, other);
}

// --- layer 2: runtime retry machinery -----------------------------------------

class RuntimeRetryTest : public ::testing::TestWithParam<hetsim::Backend> {
 protected:
  void make(FaultConfig config) {
    if (GetParam() == hetsim::Backend::kSim) {
      fabric_ = std::make_unique<fabric::Fabric>();
      fabric_->set_default_link(fabric::instant_link());
      fabric_->add_node("a");
      fabric_->add_node("b");
      shim_ = std::make_unique<FaultyTransport>(*fabric_, config);
    } else if (GetParam() == hetsim::Backend::kShm) {
      shm_ = std::make_unique<fabric::ShmTransport>(2);
      shim_ = std::make_unique<FaultyTransport>(*shm_, config);
    } else {
      auto socket = fabric::SocketTransport::create_threaded(2);
      ASSERT_TRUE(socket.is_ok()) << socket.status().to_string();
      socket_ = std::move(*socket);
      shim_ = std::make_unique<FaultyTransport>(*socket_, config);
    }
  }

  void drive_until(const std::function<bool()>& pred) {
    for (int spin = 0; spin < 4'000'000; ++spin) {
      if (pred()) return;
      (void)shim_->progress(0);
      (void)shim_->progress(1);
    }
    FAIL() << "drive_until: predicate not reached on "
           << hetsim::backend_name(GetParam());
  }

  std::unique_ptr<fabric::Fabric> fabric_;
  std::unique_ptr<fabric::ShmTransport> shm_;
  std::unique_ptr<fabric::SocketTransport> socket_;
  std::unique_ptr<FaultyTransport> shim_;
};

// The exactly-once property, reduced to its smallest observable form: a
// lossy link, a retry budget, and a counter that must end at exactly N.
TEST_P(RuntimeRetryTest, RetriesDeliverExactlyOnceUnderDrops) {
  FaultConfig config;
  config.seed = 42;
  config.rates.drop = 0.3;
  make(config);

  core::RuntimeOptions options;
  options.max_send_retries = 10;
  auto rt_a = core::Runtime::create(*shim_, 0, options);
  auto rt_b = core::Runtime::create(*shim_, 1, options);
  ASSERT_TRUE(rt_a.is_ok());
  ASSERT_TRUE(rt_b.is_ok());
  auto lib = core::IfuncLibrary::from_portable_kernel(
      ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(lib.is_ok()) << lib.status().to_string();
  auto id = (*rt_a)->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  std::uint64_t counter = 0;
  (*rt_b)->set_target_ptr(&counter);
  constexpr std::uint64_t kSends = 20;
  std::size_t completed = 0;
  for (std::uint64_t i = 0; i < kSends; ++i) {
    ASSERT_TRUE((*rt_a)
                    ->send_ifunc(1, *id, as_span(Bytes{0}),
                                 [&](Status s) {
                                   EXPECT_TRUE(s.is_ok()) << s.to_string();
                                   ++completed;
                                 })
                    .is_ok());
  }
  drive_until([&] { return completed == kSends && counter == kSends; });
  // Exactly once: not one execution lost to the drops, not one gained
  // from the redeliveries.
  EXPECT_EQ(counter, kSends);
  EXPECT_EQ((*rt_b)->stats().frames_executed.load(), kSends);
  EXPECT_GT((*rt_a)->stats().send_retries.load(), 0u);
  EXPECT_EQ((*rt_a)->stats().send_retries_exhausted.load(), 0u);
  EXPECT_GT(shim_->stats().drops, 0u);
}

TEST_P(RuntimeRetryTest, RetryBudgetExhaustsOnDeadLink) {
  FaultConfig config;
  config.rates.drop = 1.0;
  make(config);

  core::RuntimeOptions options;
  options.max_send_retries = 2;
  auto rt_a = core::Runtime::create(*shim_, 0, options);
  ASSERT_TRUE(rt_a.is_ok());
  auto lib = core::IfuncLibrary::from_portable_kernel(
      ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(lib.is_ok());
  auto id = (*rt_a)->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  bool failed = false;
  ASSERT_TRUE((*rt_a)
                  ->send_ifunc(1, *id, as_span(Bytes{0}),
                               [&](Status s) { failed = !s.is_ok(); })
                  .is_ok());
  drive_until([&] { return failed; });
  // The budget is a hard bound: initial attempt + exactly two retries.
  EXPECT_EQ((*rt_a)->stats().send_retries.load(), 2u);
  EXPECT_EQ((*rt_a)->stats().send_retries_exhausted.load(), 1u);
  EXPECT_EQ(shim_->stats().drops, 3u);
}

TEST_P(RuntimeRetryTest, DefaultZeroRetriesKeepsOldFailurePath) {
  FaultConfig config;
  config.rates.drop = 1.0;
  make(config);

  auto rt_a = core::Runtime::create(*shim_, 0);  // default options
  ASSERT_TRUE(rt_a.is_ok());
  auto lib = core::IfuncLibrary::from_portable_kernel(
      ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(lib.is_ok());
  auto id = (*rt_a)->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  bool failed = false;
  ASSERT_TRUE((*rt_a)
                  ->send_ifunc(1, *id, as_span(Bytes{0}),
                               [&](Status s) { failed = !s.is_ok(); })
                  .is_ok());
  drive_until([&] { return failed; });
  EXPECT_EQ((*rt_a)->stats().send_retries.load(), 0u);
  EXPECT_EQ((*rt_a)->stats().send_retries_exhausted.load(), 0u);
  EXPECT_EQ(shim_->stats().drops, 1u);  // one attempt, no resend
}

INSTANTIATE_TEST_SUITE_P(Backends, RuntimeRetryTest,
                         ::testing::Values(hetsim::Backend::kSim,
                                           hetsim::Backend::kShm,
                                           hetsim::Backend::kSocket),
                         backend_param_name);

// --- layer 3: end-to-end conformance under the chaos mix ----------------------

struct ChaosParam {
  hetsim::Backend backend;
  workloads::WorkloadMode mode;
};

std::vector<ChaosParam> chaos_params() {
  std::vector<ChaosParam> out;
  for (hetsim::Backend backend :
       {hetsim::Backend::kSim, hetsim::Backend::kShm,
        hetsim::Backend::kSocket}) {
    // The AM baseline is excluded by design: post_am is never faulted (it
    // has no recovery protocol to exercise).
    out.push_back({backend, workloads::WorkloadMode::kPortable});
#if TC_WITH_LLVM
    out.push_back({backend, workloads::WorkloadMode::kBitcode});
    out.push_back({backend, workloads::WorkloadMode::kObject});
    out.push_back({backend, workloads::WorkloadMode::kHllBitcode});
#endif
  }
  return out;
}

std::string chaos_param_name(
    const ::testing::TestParamInfo<ChaosParam>& info) {
  return std::string(hetsim::backend_name(info.param.backend)) + "_" +
         workloads::workload_mode_name(info.param.mode);
}

class ChaosWorkloadSuiteP : public ::testing::TestWithParam<ChaosParam> {
 protected:
  std::unique_ptr<hetsim::Cluster> make_chaos_cluster() {
    auto cluster = hetsim::Cluster::create(
        chaos::chaos_cluster_config(GetParam().backend));
    EXPECT_TRUE(cluster.is_ok()) << cluster.status().to_string();
    return std::move(cluster).value();
  }

  std::unique_ptr<workloads::WorkloadEngine> make_engine(
      hetsim::Cluster& cluster, workloads::WorkloadConfig config) {
    config.mode = GetParam().mode;
    auto engine = workloads::WorkloadEngine::create(cluster, config);
    EXPECT_TRUE(engine.is_ok()) << engine.status().to_string();
    return std::move(engine).value();
  }
};

TEST_P(ChaosWorkloadSuiteP, HashProbeLookupsExactUnderFaults) {
  auto cluster = make_chaos_cluster();
  ASSERT_NE(cluster, nullptr);
  chaos::InjectionLogGuard guard(*cluster);
  workloads::WorkloadConfig config;
  config.workload = workloads::Workload::kHashProbe;
  config.buckets_per_shard = 32;
  config.window = 4;
  auto engine = make_engine(*cluster, config);
  ASSERT_NE(engine, nullptr);

  const auto queries = engine->sample_queries(0, 32, /*hit_percent=*/70);
  auto result = engine->run_lookups(queries);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  ASSERT_EQ(result->completed, queries.size());
  // Value-equivalence against the fault-free ground truth: every reply
  // must match the reference structure despite drops/dups/reorder.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(result->values[i], engine->expected_lookup(queries[i]))
        << "query " << i;
  }
  EXPECT_GT(cluster->fault_shim()->stats().frames_intercepted, 0u);
  chaos::expect_clean_recovery(*cluster);
}

TEST_P(ChaosWorkloadSuiteP, OrderedSearchLookupsExactUnderFaults) {
  auto cluster = make_chaos_cluster();
  ASSERT_NE(cluster, nullptr);
  chaos::InjectionLogGuard guard(*cluster);
  workloads::WorkloadConfig config;
  config.workload = workloads::Workload::kOrderedSearch;
  config.keys_per_shard = 32;
  config.window = 4;
  auto engine = make_engine(*cluster, config);
  ASSERT_NE(engine, nullptr);

  const auto queries = engine->sample_queries(0, 24, /*hit_percent=*/70);
  auto result = engine->run_lookups(queries);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  ASSERT_EQ(result->completed, queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(result->values[i], engine->expected_lookup(queries[i]))
        << "query " << i;
  }
  chaos::expect_clean_recovery(*cluster);
}

// BFS is the Dijkstra-Scholten detector: its termination is ack-counted,
// so a lost ack hangs it (caught by the watchdog) and a duplicated visit
// or ack inflates/deflates the visited count.
TEST_P(ChaosWorkloadSuiteP, BfsTerminatesExactlyUnderFaults) {
  auto cluster = make_chaos_cluster();
  ASSERT_NE(cluster, nullptr);
  chaos::InjectionLogGuard guard(*cluster);
  workloads::WorkloadConfig config;
  config.workload = workloads::Workload::kBfs;
  config.vertices_per_shard = 32;
  auto engine = make_engine(*cluster, config);
  ASSERT_NE(engine, nullptr);

  for (std::uint64_t source : {1ull, 17ull}) {
    auto result = engine->run_bfs(source);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->completed, 1u);
    EXPECT_EQ(result->hits, engine->expected_bfs(source))
        << "source " << source;
  }
  chaos::expect_clean_recovery(*cluster);
}

INSTANTIATE_TEST_SUITE_P(Chaos, ChaosWorkloadSuiteP,
                         ::testing::ValuesIn(chaos_params()),
                         chaos_param_name);

// Reduce-sum is deliberately non-idempotent: one double-executed
// contribution or one double-folded ack shifts the total, so an exact fold
// under faults proves single-delivery end to end.
class ChaosCollectiveTest
    : public ::testing::TestWithParam<hetsim::Backend> {};

TEST_P(ChaosCollectiveTest, CollectiveSuiteExactUnderFaults) {
  std::vector<xrdma::CollectiveRepr> reprs = {
      xrdma::CollectiveRepr::kPortable};
#if TC_WITH_LLVM
  reprs.push_back(xrdma::CollectiveRepr::kBitcode);
  reprs.push_back(xrdma::CollectiveRepr::kObject);
#endif
  for (xrdma::CollectiveRepr repr : reprs) {
    auto cluster =
        hetsim::Cluster::create(chaos::chaos_cluster_config(GetParam()));
    ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
    chaos::InjectionLogGuard guard(**cluster);
    xrdma::CollectiveConfig config;
    config.repr = repr;
    auto engine = xrdma::CollectiveEngine::create(**cluster, config);
    ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();

    const std::size_t servers = (*cluster)->server_nodes().size();
    std::uint64_t expected_sum = 0;
    for (std::size_t s = 0; s < servers; ++s) {
      (*engine)->set_contribution(s, (s + 1) * 7);
      expected_sum += (s + 1) * 7;
    }

    auto broadcast = (*engine)->broadcast(0xBEEF);
    ASSERT_TRUE(broadcast.is_ok()) << broadcast.status().to_string();
    EXPECT_EQ(broadcast->delivered, servers);
    for (std::size_t s = 0; s < servers; ++s) {
      EXPECT_EQ((*engine)->broadcast_value(s), 0xBEEFu) << "server " << s;
    }

    auto reduce = (*engine)->reduce(xrdma::CollectiveOp::kSum);
    ASSERT_TRUE(reduce.is_ok()) << reduce.status().to_string();
    EXPECT_EQ(reduce->value, expected_sum);

    auto allreduce = (*engine)->allreduce(xrdma::CollectiveOp::kSum);
    ASSERT_TRUE(allreduce.is_ok()) << allreduce.status().to_string();
    EXPECT_EQ(allreduce->value, expected_sum);
    for (std::size_t s = 0; s < servers; ++s) {
      EXPECT_EQ((*engine)->broadcast_value(s), expected_sum)
          << "server " << s;
    }

    auto barrier = (*engine)->barrier();
    ASSERT_TRUE(barrier.is_ok()) << barrier.status().to_string();
    chaos::expect_clean_recovery(**cluster);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ChaosCollectiveTest,
                         ::testing::Values(hetsim::Backend::kSim,
                                           hetsim::Backend::kShm,
                                           hetsim::Backend::kSocket),
                         backend_param_name);

class ChaosDapcTest : public ::testing::TestWithParam<hetsim::Backend> {};

// Windowed + batched DAPC: the container-level retry path (a mangled batch
// is discarded and retried whole) and tag-routed replies under reordering.
TEST_P(ChaosDapcTest, WindowedBatchedChaseCorrectUnderFaults) {
  std::vector<xrdma::ChaseMode> modes = {xrdma::ChaseMode::kInterpreted};
#if TC_WITH_LLVM
  modes.push_back(xrdma::ChaseMode::kCachedBitcode);
#endif
  for (xrdma::ChaseMode mode : modes) {
    auto cluster =
        hetsim::Cluster::create(chaos::chaos_cluster_config(GetParam()));
    ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
    chaos::InjectionLogGuard guard(**cluster);
    xrdma::DapcConfig config;
    config.depth = 16;
    config.chases = 12;
    config.entries_per_shard = 256;
    config.window = 4;
    config.batch_frames = 4;
    auto driver = xrdma::DapcDriver::create(**cluster, mode, config);
    ASSERT_TRUE(driver.is_ok()) << driver.status().to_string();
    auto result = (*driver)->run();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->completed, config.chases);
    // Every chase landed on the right final pointer: the driver checks
    // each value against its fault-free reference walk.
    EXPECT_EQ(result->correct, result->completed);
    chaos::expect_clean_recovery(**cluster);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ChaosDapcTest,
                         ::testing::Values(hetsim::Backend::kSim,
                                           hetsim::Backend::kShm,
                                           hetsim::Backend::kSocket),
                         backend_param_name);

// --- determinism, transparency, watchdog --------------------------------------

TEST(ChaosDeterminismTest, SameSeedSameScheduleAndResults) {
  struct Run {
    std::string schedule;
    std::vector<std::uint64_t> values;
    std::int64_t elapsed_ns = 0;
  };
  auto run_once = [](std::uint64_t seed) {
    auto cluster = hetsim::Cluster::create(chaos::chaos_cluster_config(
        hetsim::Backend::kSim, chaos::default_chaos_rates(), seed));
    EXPECT_TRUE(cluster.is_ok());
    workloads::WorkloadConfig config;
    config.workload = workloads::Workload::kHashProbe;
    config.mode = workloads::WorkloadMode::kPortable;
    config.buckets_per_shard = 32;
    config.window = 4;
    auto engine = workloads::WorkloadEngine::create(**cluster, config);
    EXPECT_TRUE(engine.is_ok());
    const auto queries = (*engine)->sample_queries(0, 24, 70);
    auto result = (*engine)->run_lookups(queries);
    EXPECT_TRUE(result.is_ok());
    return Run{fabric::format_injection_log(
                   (*cluster)->fault_shim()->injection_log()),
               result->values, result->elapsed_ns};
  };
  const Run first = run_once(1234);
  const Run second = run_once(1234);
  const Run other = run_once(1235);
  EXPECT_FALSE(first.schedule.empty());
  // Same seed: the injection schedule, every value, and the virtual clock
  // are bit-identical — a CI failure replays exactly from its seed.
  EXPECT_EQ(first.schedule, second.schedule);
  EXPECT_EQ(first.values, second.values);
  EXPECT_EQ(first.elapsed_ns, second.elapsed_ns);
  EXPECT_NE(first.schedule, other.schedule);
}

TEST(ChaosTransparencyTest, DisabledFaultsLeaveClusterUnwrapped) {
  hetsim::ClusterConfig config;
  auto cluster = hetsim::Cluster::create(config);
  ASSERT_TRUE(cluster.is_ok());
  EXPECT_EQ((*cluster)->fault_shim(), nullptr);
}

// Retry machinery must be invisible when nothing fails: same values, same
// virtual timeline as a cluster built without it (the guard that keeps
// zero-fault bench output byte-identical).
TEST(ChaosTransparencyTest, RetryBudgetWithoutFaultsChangesNothing) {
  auto run_once = [](std::size_t retries) {
    hetsim::ClusterConfig cluster_config;
    cluster_config.backend = hetsim::Backend::kSim;
    cluster_config.server_count = 4;
    cluster_config.max_send_retries = retries;
    auto cluster = hetsim::Cluster::create(cluster_config);
    EXPECT_TRUE(cluster.is_ok());
    workloads::WorkloadConfig config;
    config.workload = workloads::Workload::kHashProbe;
    config.mode = workloads::WorkloadMode::kPortable;
    config.buckets_per_shard = 32;
    config.window = 4;
    auto engine = workloads::WorkloadEngine::create(**cluster, config);
    EXPECT_TRUE(engine.is_ok());
    const auto queries = (*engine)->sample_queries(0, 24, 70);
    auto result = (*engine)->run_lookups(queries);
    EXPECT_TRUE(result.is_ok());
    EXPECT_EQ((*cluster)->client_runtime().stats().send_retries.load(), 0u);
    return std::make_pair(result->values, result->elapsed_ns);
  };
  const auto plain = run_once(0);
  const auto with_budget = run_once(10);
  EXPECT_EQ(plain.first, with_budget.first);
  EXPECT_EQ(plain.second, with_budget.second);
}

// The satellite watchdog: when recovery is impossible (every frame on
// every link dropped, budget exhausted), the run must fail fast with a
// status — never hang until ctest's global timeout. The state dump lands
// in the error log.
TEST(ChaosWatchdogTest, ImpossibleRecoveryFailsFastOnSim) {
  FaultRates dead;
  dead.drop = 1.0;
  auto config = chaos::chaos_cluster_config(hetsim::Backend::kSim, dead);
  config.max_send_retries = 2;
  auto cluster = hetsim::Cluster::create(config);
  ASSERT_TRUE(cluster.is_ok());
  workloads::WorkloadConfig wconfig;
  wconfig.workload = workloads::Workload::kHashProbe;
  wconfig.mode = workloads::WorkloadMode::kPortable;
  wconfig.buckets_per_shard = 32;
  auto engine = workloads::WorkloadEngine::create(**cluster, wconfig);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  const auto queries = (*engine)->sample_queries(0, 8, 70);
  auto result = (*engine)->run_lookups(queries);
  EXPECT_FALSE(result.is_ok());
}

TEST(ChaosWatchdogTest, ImpossibleRecoveryFailsFastOnShm) {
  FaultRates dead;
  dead.drop = 1.0;
  auto config = chaos::chaos_cluster_config(hetsim::Backend::kShm, dead);
  config.max_send_retries = 2;
  config.shm_run_until_timeout_ms = 2'000;  // the watchdog under test
  auto cluster = hetsim::Cluster::create(config);
  ASSERT_TRUE(cluster.is_ok());
  workloads::WorkloadConfig wconfig;
  wconfig.workload = workloads::Workload::kHashProbe;
  wconfig.mode = workloads::WorkloadMode::kPortable;
  wconfig.buckets_per_shard = 32;
  auto engine = workloads::WorkloadEngine::create(**cluster, wconfig);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  const auto queries = (*engine)->sample_queries(0, 4, 70);
  auto result = (*engine)->run_lookups(queries);
  EXPECT_FALSE(result.is_ok());
}

TEST(ChaosWatchdogTest, ImpossibleRecoveryFailsFastOnSocket) {
  FaultRates dead;
  dead.drop = 1.0;
  auto config = chaos::chaos_cluster_config(hetsim::Backend::kSocket, dead);
  config.max_send_retries = 2;
  config.shm_run_until_timeout_ms = 2'000;  // forwarded to the socket watchdog
  auto cluster = hetsim::Cluster::create(config);
  ASSERT_TRUE(cluster.is_ok());
  workloads::WorkloadConfig wconfig;
  wconfig.workload = workloads::Workload::kHashProbe;
  wconfig.mode = workloads::WorkloadMode::kPortable;
  wconfig.buckets_per_shard = 32;
  auto engine = workloads::WorkloadEngine::create(**cluster, wconfig);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  const auto queries = (*engine)->sample_queries(0, 4, 70);
  auto result = (*engine)->run_lookups(queries);
  EXPECT_FALSE(result.is_ok());
}

// --- sockets-only faults -------------------------------------------------------
// Faults the shim cannot express because they live below the frame layer:
// a TCP/Unix stream dying mid-frame, and a slow consumer backing the
// bounded send buffer up into the sender. Both are native behaviors of
// fabric::SocketTransport; these tests pin the contract the chaos harness
// relies on when a real process disappears.

// A peer vanishing mid-message: the wire carries a partial frame, the
// receiver discards the torn tail (never surfacing a mangled frame), and
// every in-flight completion toward the dead peer fails kUnavailable.
TEST(SocketFaultTest, MidMessagePeerDisconnectDiscardsPartialFrame) {
  auto transport_or = fabric::SocketTransport::create_threaded(2);
  ASSERT_TRUE(transport_or.is_ok()) << transport_or.status().to_string();
  fabric::SocketTransport& transport = **transport_or;

  // Large enough that one progress(0) spin cannot push it through the
  // socketpair's kernel buffer: the frame is mid-flight, split between
  // kernel memory and the sender's tx queue.
  const Bytes big(1u << 20, 0xAB);
  std::vector<Status> results;
  transport.post_send(0, 1, as_span(big), 1,
                      [&](Status s) { results.push_back(std::move(s)); });
  (void)transport.progress(0);
  ASSERT_TRUE(results.empty());  // partially written, completion pending

  ASSERT_TRUE(transport.kill_connection(0, 1).is_ok());
  // Both ends must observe the death independently: the sender's next
  // write fails (failing the completion), and the receiver drains the
  // buffered partial frame, hits EOF, and discards the torn tail.
  for (int spin = 0; spin < 1'000'000; ++spin) {
    if (!results.empty() && transport.stats().rx_partial_discards >= 1) break;
    (void)transport.progress(0);
    (void)transport.progress(1);
  }
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].code(), ErrorCode::kUnavailable)
      << results[0].to_string();
  // The torn frame never reached the runtime layer...
  EXPECT_FALSE(transport.try_recv(1).has_value());
  const auto stats = transport.stats();
  EXPECT_GE(stats.disconnects, 1u);
  // ...and the receive side counted exactly what it threw away.
  EXPECT_GE(stats.rx_partial_discards, 1u);
  // The link stays down: later posts fail immediately.
  bool later_failed = false;
  transport.post_send(0, 1, as_span(Bytes{1}), 1, [&](Status s) {
    later_failed = !s.is_ok();
    EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
  });
  for (int spin = 0; spin < 1'000'000 && !later_failed; ++spin) {
    (void)transport.progress(0);
  }
  EXPECT_TRUE(later_failed);
}

// A consumer that never drains: the bounded send buffer fills, further
// posts fail with the shared backpressure Status (the same one ShmTransport
// reports on a full ring, so RuntimeOptions::max_send_retries backs off
// identically on both wall-clock backends), and the link recovers once the
// consumer catches up.
TEST(SocketFaultTest, SlowConsumerBackpressureIsRetryableAndRecovers) {
  fabric::SocketTransportOptions options;
  options.send_buffer_bytes = 16 * 1024;
  auto transport_or = fabric::SocketTransport::create_threaded(2, options);
  ASSERT_TRUE(transport_or.is_ok()) << transport_or.status().to_string();
  fabric::SocketTransport& transport = **transport_or;

  const Bytes big(1u << 20, 0x5C);  // each frame dwarfs the 16 KiB budget
  std::optional<Status> rejected;
  std::size_t accepted = 0;
  std::size_t delivered_ok = 0;
  for (int attempt = 0; attempt < 64 && !rejected.has_value(); ++attempt) {
    bool fired_now = false;
    transport.post_send(0, 1, as_span(big), 1, [&](Status s) {
      if (s.is_ok()) {
        ++delivered_ok;
      } else {
        fired_now = true;
        rejected = std::move(s);
      }
    });
    // Accepted posts queue their completion (the ack needs node 1, which
    // never runs); only a rejection fires synchronously.
    if (!fired_now) ++accepted;
    (void)transport.progress(0);  // node 1 never runs: nothing drains
  }
  ASSERT_TRUE(rejected.has_value()) << "send buffer never filled";
  EXPECT_TRUE(fabric::is_backpressure(*rejected)) << rejected->to_string();
  EXPECT_EQ(rejected->code(), ErrorCode::kResourceExhausted);
  EXPECT_GE(transport.stats().backpressure_rejects, 1u);

  // The slow consumer wakes up: everything that was accepted drains and
  // completes OK, then the same post that was just rejected goes through.
  for (int spin = 0; spin < 1'000'000 && delivered_ok < accepted; ++spin) {
    (void)transport.progress(0);
    (void)transport.progress(1);
    while (transport.try_recv(1).has_value()) {
    }
  }
  ASSERT_EQ(delivered_ok, accepted);
  bool recovered = false;
  transport.post_send(0, 1, as_span(big), 1, [&](Status s) {
    EXPECT_TRUE(s.is_ok()) << s.to_string();
    recovered = s.is_ok();
  });
  for (int spin = 0; spin < 1'000'000 && !recovered; ++spin) {
    (void)transport.progress(0);
    (void)transport.progress(1);
    while (transport.try_recv(1).has_value()) {
    }
  }
  EXPECT_TRUE(recovered);
}

// --- traced frames inside batch containers across NACK redelivery ------------
// A batch of truncated, *traced* frames lands on a runtime that has never
// seen the code: each payload is stashed, one NACK fetches the archive,
// and every stashed frame then executes with its trace context intact —
// no span lost in the stash, none double-counted in hop_service_ns.
TEST(TracedBatchNackTest, TracedFramesInContainersSurviveRedelivery) {
  fabric::Fabric fabric;
  fabric.set_default_link(fabric::instant_link());
  fabric.add_node("a");
  fabric.add_node("b");
  obs::Tracer tracer(/*node_count=*/2);
  tracer.set_enabled(true);
  obs::MetricsRegistry metrics;
  core::RuntimeOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  auto rt_a = core::Runtime::create(fabric, 0, options);
  auto rt_b = core::Runtime::create(fabric, 1, options);
  ASSERT_TRUE(rt_a.is_ok());
  ASSERT_TRUE(rt_b.is_ok());
  auto lib = core::IfuncLibrary::from_portable_kernel(
      ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(lib.is_ok()) << lib.status().to_string();
  auto id = (*rt_a)->register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());

  std::uint64_t counter = 0;
  (*rt_b)->set_target_ptr(&counter);

  constexpr std::size_t kFrames = 3;
  auto frame = (*rt_a)->create_message(*id, as_span(Bytes{0}));
  ASSERT_TRUE(frame.is_ok());
  std::vector<Bytes> parts;
  std::vector<std::uint64_t> trace_ids;
  for (std::size_t i = 0; i < kFrames; ++i) {
    obs::TraceContext ctx;
    ctx.trace_id = tracer.next_trace_id();
    ctx.hop = 0;
    ctx.parent_span = tracer.next_span_id();
    trace_ids.push_back(ctx.trace_id);
    core::FrameParts traced = frame->parts();
    traced.trace = ctx;
    auto wire = core::Frame::encode(traced, /*include_code=*/false);
    ASSERT_TRUE(wire.is_ok()) << wire.status().to_string();
    parts.push_back(std::move(*wire));
  }
  auto container = core::encode_batch_frame(parts);
  ASSERT_TRUE(container.is_ok()) << container.status().to_string();
  fabric.post_send(0, 1, as_span(*container), parts.size(), {});

  for (int spin = 0; spin < 1'000'000 && counter < kFrames; ++spin) {
    (void)fabric.progress(0);
    (void)fabric.progress(1);
  }
  ASSERT_EQ(counter, kFrames);
  // One NACK drained the whole stashed backlog.
  EXPECT_EQ((*rt_b)->stats().nacks_sent.load(), 1u);
  EXPECT_EQ((*rt_a)->stats().nacks_received.load(), 1u);
  EXPECT_EQ((*rt_b)->stats().frames_executed.load(), kFrames);

  // Every frame's trace survived the stash-NACK-redeliver round trip: one
  // execute span per frame, each under its original trace id.
  const auto events = tracer.drain_all();
  std::set<std::uint64_t> executed_traces;
  std::size_t execute_spans = 0;
  for (const obs::TraceEvent& event : events) {
    if (event.kind != obs::SpanKind::kExecute) continue;
    ++execute_spans;
    executed_traces.insert(event.trace_id);
  }
  EXPECT_EQ(execute_spans, kFrames);
  EXPECT_EQ(executed_traces,
            std::set<std::uint64_t>(trace_ids.begin(), trace_ids.end()));

  // hop_service_ns counted each execution exactly once.
  std::uint64_t hop_samples = 0;
  for (const auto& entry : metrics.snapshot().histograms) {
    if (entry.name.rfind("hop_service_ns/", 0) == 0) {
      hop_samples += entry.count;
    }
  }
  EXPECT_EQ(hop_samples, kFrames);
}

}  // namespace
}  // namespace tc
