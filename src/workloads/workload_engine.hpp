// WorkloadEngine: the remote-data-structure workload suite (the DAPC
// pointer chase generalized to richer traversals). Three scenarios, each a
// self-propagating ifunc that ships the traversal logic to the data instead
// of round-tripping dependent accesses:
//
//   * hash-probe      — open-addressing lookup over server-sharded buckets;
//                       the probe kernel walks the collision chain locally
//                       and self-forwards at shard crossings;
//   * ordered-search  — skip-list descent over a sharded sorted index with
//                       per-level (next_id, next_key) fingers; comparison-
//                       driven branches replace the chaser's "next pointer";
//   * BFS             — self-propagating frontier expansion over a
//                       distributed CSR graph with per-(server, lane)
//                       visited bitmaps and ack-driven (credit-counted)
//                       completion, reusing the collective suite's
//                       lane-cell + origin-reply pattern.
//
// Mirrors xrdma::CollectiveEngine: transport-generic (deterministic sim and
// real-threads shm), every code representation (predeployed Active-Message
// baseline, fat bitcode, AOT objects, portable bytecode, HLL-frontend
// bitcode), and `lanes = M` concurrent initiators — each lane a client node
// with its own windowed in-flight query stream (DapcConfig-style pipelined
// issue with tag-routed replies).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "hetsim/cluster.hpp"
#include "workloads/graph.hpp"
#include "workloads/hash_table.hpp"
#include "workloads/ordered_index.hpp"

namespace tc::workloads {

enum class Workload { kHashProbe, kOrderedSearch, kBfs };
const char* workload_name(Workload workload);

/// Code representation the traversal travels as. kActiveMessage is the
/// predeployed-native baseline (no code motion); kBitcode / kObject /
/// kHllBitcode need LLVM; kPortable (the interpreter tier) always works.
enum class WorkloadMode {
  kActiveMessage,
  kBitcode,
  kObject,
  kPortable,
  kHllBitcode,
};
const char* workload_mode_name(WorkloadMode mode);

/// The ifunc representation this build flavor defaults to.
constexpr WorkloadMode default_workload_mode() {
#if TC_WITH_LLVM
  return WorkloadMode::kBitcode;
#else
  return WorkloadMode::kPortable;
#endif
}

struct WorkloadConfig {
  Workload workload = Workload::kHashProbe;
  WorkloadMode mode = default_workload_mode();
  /// Concurrent initiators. Lane i is driven by client node i, so the
  /// cluster needs client_count >= lanes.
  std::size_t lanes = 1;
  /// In-flight lookups each lane keeps outstanding (hash/ordered): replies
  /// carry the query index as a routing tag, so out-of-order completions
  /// land on the right slot. BFS completion is ack-counted, not windowed.
  std::uint64_t window = 4;
  std::uint64_t seed = 0xD57ull;

  // Data-structure sizing (one shard per server).
  std::uint64_t buckets_per_shard = 256;   ///< hash-probe
  std::uint64_t fill_percent = 70;         ///< hash-probe occupancy
  std::uint64_t keys_per_shard = 64;       ///< ordered-search
  std::uint64_t vertices_per_shard = 64;   ///< BFS
  std::uint64_t avg_degree = 4;            ///< BFS
};

struct WorkloadResult {
  std::uint64_t completed = 0;  ///< lookups answered / BFS runs finished
  /// Lookups: replies != kMiss. BFS: vertices visited (all lanes).
  std::uint64_t hits = 0;
  /// Virtual ns (sim) or monotonic wall-clock ns (shm, wall_clock set).
  std::int64_t elapsed_ns = 0;
  bool wall_clock = false;
  double ops_per_second = 0.0;  ///< lookups/s, or visited vertices/s (BFS)
  std::uint64_t frames_full = 0;       ///< ifunc modes: edges shipping code
  std::uint64_t frames_truncated = 0;
  /// Lookups: per-query replies, lane-major in issue order (equivalence
  /// tests compare these across backends/modes). BFS: per-lane visited
  /// counts.
  std::vector<std::uint64_t> values;
};

/// Per-(server, lane) BFS state the traveling kernel addresses through the
/// target pointer. Word layout is kernel ABI:
///   0 visited  — vertices this lane marked on this server
///   1 bitmap   — address of the lane's visited bitmap on this server
///   2 worklist — address of the lane's local-expansion worklist
///   3 engaged  — Dijkstra-Scholten: an engagement ack is deferred
///   4 parent   — DS parent peer (~0 = the chain origin engaged us)
///   5 deficit  — forwarded children not yet acked
///   6 scratch  — the in-flight visit's sender, parked across the
///                expansion loop (which overwrites the payload's `from`)
struct alignas(64) WorkloadCell {
  std::atomic<std::uint64_t> visited{0};
  std::atomic<std::uint64_t> bitmap{0};
  std::atomic<std::uint64_t> worklist{0};
  std::atomic<std::uint64_t> engaged{0};
  std::atomic<std::uint64_t> parent{0};
  std::atomic<std::uint64_t> deficit{0};
  std::atomic<std::uint64_t> scratch{0};
  std::atomic<std::uint64_t> reserved[1]{};
};
static_assert(sizeof(WorkloadCell) == 64, "kernel ABI: 64-byte cells");

class WorkloadEngine {
 public:
  static StatusOr<std::unique_ptr<WorkloadEngine>> create(
      hetsim::Cluster& cluster, WorkloadConfig config = {});
  ~WorkloadEngine();
  WorkloadEngine(const WorkloadEngine&) = delete;
  WorkloadEngine& operator=(const WorkloadEngine&) = delete;

  std::size_t lanes() const { return lanes_.size(); }
  Workload workload() const { return config_.workload; }

  /// Deterministic query stream for `lane` (hash/ordered): roughly
  /// hit_percent% present keys, the rest guaranteed misses. Streams are
  /// lane-distinct so concurrent initiators don't share queries.
  std::vector<std::uint64_t> sample_queries(std::size_t lane,
                                            std::size_t count,
                                            unsigned hit_percent = 75) const;
  /// Ground truth for one lookup (hash/ordered): value or kMiss.
  std::uint64_t expected_lookup(std::uint64_t key) const;
  /// Ground truth for one BFS: reachable-set size from `source`.
  std::uint64_t expected_bfs(std::uint64_t source) const;
  /// Query/source universe: hash capacity, index node count, or vertices.
  std::uint64_t universe() const;

  /// Runs `keys` through the remote structure on `lane`, keeping
  /// config.window lookups in flight. Hash-probe / ordered-search only.
  StatusOr<WorkloadResult> run_lookups(const std::vector<std::uint64_t>& keys,
                                       std::size_t lane = 0);
  /// per_lane[i] runs on lane i concurrently, driven as
  /// hetsim::Cluster::drive_initiators states.
  StatusOr<WorkloadResult> run_lookups_all(
      const std::vector<std::vector<std::uint64_t>>& per_lane);

  /// Expands the frontier from `source` until the lane's credit count
  /// drains (every spawned message acked). BFS only.
  StatusOr<WorkloadResult> run_bfs(std::uint64_t source, std::size_t lane = 0);
  StatusOr<WorkloadResult> run_bfs_all(
      const std::vector<std::uint64_t>& sources);

  /// Reads back a lane's per-server visited counts (after run_bfs).
  std::uint64_t bfs_visited(std::size_t server, std::size_t lane = 0) const;

  const ShardedHashTable& hash_table() const { return hash_; }
  const ShardedOrderedIndex& ordered_index() const { return index_; }
  const ShardedCsrGraph& graph() const { return graph_; }

 private:
  /// Per-lane in-flight state, touched only by the lane's own progress
  /// context (see hetsim::Cluster::drive_initiators).
  struct Lane {
    std::size_t index = 0;
    fabric::NodeId node = 0;
    std::uint64_t ifunc_id = 0;
    // Windowed lookups.
    const std::vector<std::uint64_t>* queries = nullptr;
    std::vector<std::uint64_t> values;
    /// Per-query issue timestamps, populated only when the cluster carries
    /// a metrics registry (feeds the end-to-end latency histogram).
    std::vector<std::int64_t> issue_ns;
    std::uint64_t next_query = 0;
    std::uint64_t completed = 0;
    // BFS credit counting: outstanding messages not yet acked.
    std::uint64_t outstanding = 0;
    bool failed = false;
  };

  explicit WorkloadEngine(hetsim::Cluster& cluster) : cluster_(&cluster) {}
  Status setup(const WorkloadConfig& config);
  Status setup_data_structure();
  Status setup_lanes();
  void install_result_handler(std::size_t lane_index);
  bool is_am_mode() const { return config_.mode == WorkloadMode::kActiveMessage; }
  /// Issues lane-local query `index` from the lane's own context.
  Status issue_lookup(Lane& lane, std::uint64_t index);
  Status issue_bfs_seed(Lane& lane, std::uint64_t source);
  void on_lookup_reply(Lane& lane, std::uint64_t tag, std::uint64_t value);
  Status send_payload(Lane& lane, fabric::NodeId dst, ByteSpan payload);
  /// Points a lane at `keys` and clears its lookup state.
  void reset_lookup_lane(std::size_t lane_index,
                         const std::vector<std::uint64_t>& keys);
  /// Runs the reset lanes [first, first + count) through their queries.
  StatusOr<WorkloadResult> drive_lookups(std::size_t first, std::size_t count);
  /// Clears a lane's visited bitmaps/counters on every server and arms its
  /// credit count for the seed message.
  void reset_bfs_lane(std::size_t lane_index);
  /// Expands lane first + i from sources[i], for every i.
  StatusOr<WorkloadResult> drive_bfs(std::size_t first,
                                     std::span<const std::uint64_t> sources);
  std::uint64_t sum_bfs_visited(std::size_t lane_index) const;

  hetsim::Cluster* cluster_;
  WorkloadConfig config_;
  /// End-to-end chase latency histogram ("e2e_ns/<workload>/<mode>") when
  /// the cluster was built with a MetricsRegistry; null otherwise.
  obs::Histogram* e2e_hist_ = nullptr;

  ShardedHashTable hash_;
  ShardedOrderedIndex index_;
  ShardedCsrGraph graph_;

  /// cells_[server][lane]; servers' target pointers alias these arrays.
  std::vector<std::unique_ptr<WorkloadCell[]>> cells_;
  /// bitmaps_/worklists_[server][lane]: the buffers the cells point at.
  std::vector<std::vector<std::vector<std::uint64_t>>> bitmaps_;
  std::vector<std::vector<std::vector<std::uint64_t>>> worklists_;

  std::vector<Lane> lanes_;
  std::uint16_t am_handler_index_ = 0;
};

}  // namespace tc::workloads
