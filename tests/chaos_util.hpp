// Reusable chaos-harness support for fault_test: cluster configurations
// wired through fabric::FaultyTransport, the seed plumbing that makes CI
// failures replayable locally, and the post-run invariants every chaos
// test asserts.
//
// Seed workflow: the CI chaos job runs the suite across a seed matrix by
// exporting TC_CHAOS_SEED; a failing test writes its injection schedule to
// TC_CHAOS_LOG_DIR (uploaded as an artifact) or stderr. Re-running with
// the same TC_CHAOS_SEED reproduces the exact schedule — bit-for-bit on
// the sim backend, per-link on shm.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "fabric/faulty_transport.hpp"
#include "hetsim/cluster.hpp"

namespace tc::chaos {

/// Seed for this process's chaos schedules: TC_CHAOS_SEED overrides (the
/// CI seed matrix), default 42.
inline std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("TC_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, /*base=*/10);
  }
  return 42;
}

/// The acceptance-gate mix: 10% of frames on every link suffer a fault,
/// weighted toward the recoverable kinds (drop/duplicate/delay) with a
/// slice of truncation to keep the NACK path honest.
inline fabric::FaultRates default_chaos_rates() {
  fabric::FaultRates rates;
  rates.drop = 0.04;
  rates.duplicate = 0.03;
  rates.delay = 0.02;
  rates.truncate = 0.01;
  return rates;
}

/// Cluster wired for chaos: the fault shim decorates the chosen backend and
/// every runtime retries failed sends enough times to outlast the schedule
/// (p(all attempts lost) = rate^(retries+1), negligible at 10 retries).
/// The shm watchdog is shortened so a genuine lost-completion bug dumps
/// state after seconds instead of hanging until ctest's global timeout.
inline hetsim::ClusterConfig chaos_cluster_config(
    hetsim::Backend backend,
    fabric::FaultRates rates = default_chaos_rates(),
    std::uint64_t seed = chaos_seed()) {
  hetsim::ClusterConfig config;
  config.platform = hetsim::Platform::kThorXeon;
  config.backend = backend;
  config.server_count = 4;
  config.faults.seed = seed;
  config.faults.rates = rates;
  config.max_send_retries = 10;
  config.shm_run_until_timeout_ms = 20'000;
  return config;
}

/// Recovery must be invisible above the transport: retries may fire, but
/// none may exhaust, no deferred forward may be dropped, and nothing the
/// shim injected may surface as a protocol error.
inline void expect_clean_recovery(hetsim::Cluster& cluster) {
  for (fabric::NodeId node = 0; node < cluster.node_count(); ++node) {
    const core::Runtime::Stats& stats = cluster.runtime(node).stats();
    EXPECT_EQ(stats.send_retries_exhausted.load(), 0u) << "node " << node;
    EXPECT_EQ(stats.forward_send_failures.load(), 0u) << "node " << node;
    EXPECT_EQ(stats.protocol_errors.load(), 0u) << "node " << node;
  }
}

/// Sum of wire-send retries across every runtime — nonzero proves the
/// schedule actually exercised the recovery path.
inline std::uint64_t total_send_retries(hetsim::Cluster& cluster) {
  std::uint64_t total = 0;
  for (fabric::NodeId node = 0; node < cluster.node_count(); ++node) {
    total += cluster.runtime(node).stats().send_retries.load();
  }
  return total;
}

/// Scoped guard: when the enclosing test has failed by the time this goes
/// out of scope (including via ASSERT_* early exit), persists the seed and
/// the injection schedule — to TC_CHAOS_LOG_DIR when set (the CI chaos job
/// uploads that directory), else to stderr.
class InjectionLogGuard {
 public:
  explicit InjectionLogGuard(hetsim::Cluster& cluster) : cluster_(&cluster) {}
  InjectionLogGuard(const InjectionLogGuard&) = delete;
  InjectionLogGuard& operator=(const InjectionLogGuard&) = delete;

  ~InjectionLogGuard() {
    if (!::testing::Test::HasFailure()) return;
    fabric::FaultyTransport* shim = cluster_->fault_shim();
    if (shim == nullptr) return;
    std::string text = "chaos seed: " +
                       std::to_string(shim->config().seed) +
                       " (replay: TC_CHAOS_SEED=" +
                       std::to_string(shim->config().seed) + ")\n" +
                       fabric::format_injection_log(shim->injection_log());
    const char* dir = std::getenv("TC_CHAOS_LOG_DIR");
    if (dir == nullptr) {
      std::cerr << "--- chaos injection schedule ---\n" << text;
      return;
    }
    std::string name = "chaos";
    if (const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name = std::string(info->test_suite_name()) + "." + info->name();
      for (char& c : name) {
        if (c == '/' || c == ' ') c = '_';
      }
    }
    const std::string path = std::string(dir) + "/" + name + ".injections";
    std::ofstream out(path);
    out << text;
    std::cerr << "chaos injection schedule written to " << path << "\n";
  }

 private:
  hetsim::Cluster* cluster_;
};

}  // namespace tc::chaos
