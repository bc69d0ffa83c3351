// DAPC — the Distributed Adaptive Pointer Chasing miniapp (paper §IV-C/D)
// and its evaluation driver. M initiators issue pointer-chase operations of
// a given depth against a table sharded over N servers, in one of seven
// execution modes:
//
//   kActiveMessage — predeployed handler, index+payload requests
//                    (the paper's baseline upper bound);
//   kGet           — GBPC: client-driven iterative RDMA GETs (lower bound);
//   kCachedBitcode — X-RDMA Chaser ifunc, fat-bitcode representation;
//   kCachedBinary  — Chaser ifunc, AOT object (binary) representation;
//   kInterpreted   — Chaser ifunc, portable-bytecode representation run by
//                    the vm interpreter tier (zero compile; the only ifunc
//                    mode available in TC_WITH_LLVM=OFF builds);
//   kHllBitcode    — Chaser built by the high-level-language frontend
//                    (the Julia-integration analogue);
//   kHllDrivesC    — HLL client driving C-frontend bitcode (the paper's
//                    "Julia driving the bitcode generated from C").
//
// Every mode computes the identical chase (verified against a reference
// walk), so measured differences are pure protocol/runtime effects.
//
// Multi-initiator mode (config.initiators = M > 1) runs M concurrent
// initiators, each with its own in-flight window W, driven by
// hetsim::Cluster::drive_initiators (which states the threading rule) —
// the wall-clock scaling experiment of bench/fig_mt_scale.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "hetsim/cluster.hpp"
#include "xrdma/chaser.hpp"
#include "xrdma/pointer_table.hpp"

namespace tc::xrdma {

enum class ChaseMode {
  kActiveMessage,
  kGet,
  kCachedBitcode,
  kCachedBinary,
  kInterpreted,
  kHllBitcode,
  kHllDrivesC,
};

const char* chase_mode_name(ChaseMode mode);

struct DapcConfig {
  std::uint64_t depth = 64;
  std::uint64_t chases = 8;  ///< operations per initiator per measurement
  std::uint64_t entries_per_shard = 4096;
  std::uint64_t seed = 0xDA9Cull;
  /// Run the full workload once untimed first, so code caches (sender-side
  /// sent-tables, server-side JIT caches) are hot — the "cached" rows of the
  /// paper. Set false to measure cold-start behaviour.
  bool warmup = true;

  /// In-flight window: how many chases each initiator keeps outstanding at
  /// once. 1 (default) is the paper's synchronous evaluation, preserved
  /// byte-for-byte on the wire. >1 switches the ifunc/AM modes to the
  /// tagged chase protocol ([addr][depth][tag] requests, [value][tag]
  /// replies) so out-of-order completions route to the right chase, and
  /// runs GET mode as `window` concurrent client-driven walks.
  std::uint64_t window = 1;
  /// Concurrent initiators. Each uses its own client node, driven as
  /// hetsim::Cluster::drive_initiators states; the cluster must be built
  /// with client_count >= initiators. 1 preserves the classic driver
  /// exactly.
  std::uint64_t initiators = 1;
  /// Sender-side frame coalescing on each *initiator* (ifunc modes only):
  /// frames per batched wire message. <= 1 leaves the classic
  /// one-frame-per-message protocol; used with window > 1, back-to-back
  /// issues destined for the same server share one injection gap. A
  /// partial batch flushes after core::BatchOptions' default deadline.
  std::size_t batch_frames = 1;
};

struct DapcResult {
  std::uint64_t completed = 0;  ///< across all initiators
  std::uint64_t correct = 0;
  /// Elapsed time in the backend's clock: virtual ns on the simulated
  /// backend, monotonic wall-clock ns on the shm backend (wall_clock set).
  std::int64_t virtual_ns = 0;
  bool wall_clock = false;
  double chases_per_second = 0.0;
  /// Final value of every chase, initiator-major, issue order within each
  /// initiator (mode- and backend-equivalence tests compare these).
  std::vector<std::uint64_t> values;
};

class DapcDriver {
 public:
  static StatusOr<std::unique_ptr<DapcDriver>> create(hetsim::Cluster& cluster,
                                                      ChaseMode mode,
                                                      DapcConfig config);
  /// Restores the initiator runtimes' batch options if this driver
  /// overrode them — the cluster outlives the driver and later users (a
  /// W = 1 driver, collectives) must see the classic send path.
  ~DapcDriver();

  /// Executes the configured workload and reports the elapsed-time rate.
  StatusOr<DapcResult> run();

  const DistributedPointerTable& table() const { return table_; }
  ChaseMode mode() const { return mode_; }

 private:
  /// Per-initiator workload state. Touched only by the initiator's own
  /// progress context (see hetsim::Cluster::drive_initiators).
  struct Initiator {
    std::size_t index = 0;
    fabric::NodeId node = 0;
    std::vector<std::uint64_t> starts;
    std::vector<std::uint64_t> expected;
    std::vector<std::uint64_t> values;
    /// Per-chase issue timestamps when the cluster carries a metrics
    /// registry (feeds the end-to-end chase-latency histogram).
    std::vector<std::int64_t> issue_ns;
    std::uint64_t next_chase = 0;
    std::uint64_t completed = 0;
    bool failed = false;
  };

  DapcDriver(hetsim::Cluster& cluster, ChaseMode mode, DapcConfig config)
      : cluster_(&cluster), mode_(mode), config_(config) {}

  bool is_ifunc_mode() const {
    return mode_ != ChaseMode::kActiveMessage && mode_ != ChaseMode::kGet;
  }
  Status setup();
  StatusOr<DapcResult> run_batch();
  /// Issues initiator-local chase `index` from the initiator's context.
  Status issue_chase(Initiator& init, std::uint64_t index);
  Status issue_get_step(Initiator& init, std::uint64_t chase_index,
                        std::uint64_t address, std::uint64_t depth_left);
  /// Records one completed chase and refills the initiator's window.
  void on_chase_complete(Initiator& init, std::uint64_t index,
                         std::uint64_t value);
  void install_result_handler(Initiator& init);
  void detach_result_handlers();

  hetsim::Cluster* cluster_;
  ChaseMode mode_;
  DapcConfig config_;
  DistributedPointerTable table_;
  /// End-to-end chase latency ("e2e_ns/dapc/<mode>") when the cluster was
  /// built with a MetricsRegistry; null otherwise.
  obs::Histogram* e2e_hist_ = nullptr;

  std::vector<Initiator> initiators_;

  // Mode-specific handles.
  std::uint64_t chaser_ifunc_id_ = 0;
  std::uint16_t am_handler_index_ = 0;
  std::vector<fabric::MemRegion> shard_regions_;  // GET mode rkeys
  /// Per-initiator batch options to restore at destruction (windowed
  /// ifunc modes override them on the shared cluster runtimes).
  std::vector<core::BatchOptions> saved_batch_;
  bool batch_overridden_ = false;
  /// GET-mode completion lambdas capture this driver and can outlive it
  /// inside the transport (stashed completions, queued sim events) after a
  /// mid-run failure; they hold a weak reference to this token and no-op
  /// once the driver is gone.
  std::shared_ptr<DapcDriver*> alive_token_;
};

}  // namespace tc::xrdma
