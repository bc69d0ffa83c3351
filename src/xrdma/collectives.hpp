// X-RDMA collectives built purely from recursive ifunc propagation.
//
// tree_broadcast(): one injected function delivers a value to every server
// in O(log N) network depth by recursively halving its peer range — the
// code itself is the collective algorithm, carried in the message. First
// execution ships fat-bitcode along every tree edge; repeats ride truncated
// frames and the per-node code caches. Transport-generic: on the simulated
// backend completion is the deterministic event loop (virtual-time results
// are bit-for-bit the historical ones); on the shm backend the initiator
// thread drives its own progress context and polls the atomic slots the
// server progress threads publish into.
//
// CollectiveEngine: the transport-generic collective suite grown from that
// seed — broadcast, reduce (sum/min/max up the halving tree), allreduce
// (reduce + broadcast ride-along) and an ifunc barrier, each a
// self-propagating kernel (bitcode, AOT object, or portable bytecode), with
// arbitrary root servers and multiple concurrent collectives (one lane per
// initiator). Completion is ack-driven: every leaf delivery and the reduce
// root reply route back to the chain origin, so initiators complete by
// draining their own progress context — no remote-memory polling on the
// real-threads backend.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "hetsim/cluster.hpp"

namespace tc::xrdma {

struct BroadcastResult {
  std::uint64_t delivered = 0;     ///< servers that received the value
  /// Completion time: virtual ns on the simulated backend, monotonic
  /// wall-clock ns on shm (wall_clock set).
  std::int64_t virtual_ns = 0;
  bool wall_clock = false;
  std::uint64_t frames_full = 0;   ///< tree edges that shipped code
  std::uint64_t frames_truncated = 0;
};

/// Per-server landing slot for a broadcast: {value, arrival_count}.
/// Atomic: on the shm backend the slot is written by the server's progress
/// thread — the traveling kernel stores through the target pointer with
/// release ordering in both tiers (the interpreter's aligned word-stores,
/// and the two st64 the KIR definition marks release, which kir→llvm emits
/// as `store atomic ... release`) — while the initiator polls it.
struct BroadcastSlot {
  std::atomic<std::uint64_t> value{0};
  std::atomic<std::uint64_t> arrivals{0};
};
static_assert(sizeof(BroadcastSlot) == 16,
              "kernel ABI: {value@0, arrivals@8}");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "broadcast slots must be plain lock-free words");

/// Broadcasts `value` from the cluster's client to every server through the
/// self-propagating tree kernel. `slots` must have one entry per server and
/// outlive the call; each server's runtime target pointer is set to its
/// slot. Reusable: repeat calls ride the warmed code caches. Works on both
/// cluster backends.
StatusOr<BroadcastResult> tree_broadcast(hetsim::Cluster& cluster,
                                         std::uint64_t value,
                                         std::vector<BroadcastSlot>& slots);

// --- the collective suite ----------------------------------------------------

/// Reduction operator carried in the coll_reduce payload (wire-stable).
enum class CollectiveOp : std::uint64_t {
  kSum = 0,
  kMin = 1,
  kMax = 2,
  /// Ignores contributions and folds a 1 per server — the fan-in half of
  /// the barrier (the root total must equal the server count).
  kCount = 3,
};
const char* collective_op_name(CollectiveOp op);

/// Code representation the collective kernels travel as. kBitcode/kObject
/// need LLVM; kPortable (the interpreter tier) always works.
enum class CollectiveRepr { kBitcode, kObject, kPortable };
const char* collective_repr_name(CollectiveRepr repr);

/// The representation DAPC's kInterpreted/kCachedBitcode split defaults to
/// in this build flavor.
constexpr CollectiveRepr default_collective_repr() {
#if TC_WITH_LLVM
  return CollectiveRepr::kBitcode;
#else
  return CollectiveRepr::kPortable;
#endif
}

/// Per-(server, lane) collective state the traveling kernels address
/// through the target pointer. Word layout is kernel ABI:
///   0 value     — broadcast landing slot
///   1 arrivals  — broadcast arrival count (exactly-once per collective)
///   2 contrib   — this server's reduce input (application-set)
///   3 acc       — partial reduction
///   4 expected  — children delegated during fan-out
///   5 arrived   — contributions folded so far
///   6 parent    — peer to climb to (~0 at the root)
///   7 op        — CollectiveOp of the in-flight reduction
struct alignas(64) CollectiveCell {
  std::atomic<std::uint64_t> value{0};
  std::atomic<std::uint64_t> arrivals{0};
  std::atomic<std::uint64_t> contrib{0};
  std::atomic<std::uint64_t> acc{0};
  std::atomic<std::uint64_t> expected{0};
  std::atomic<std::uint64_t> arrived{0};
  std::atomic<std::uint64_t> parent{0};
  std::atomic<std::uint64_t> op{0};
};
static_assert(sizeof(CollectiveCell) == 64, "kernel ABI: 64-byte cells");

struct CollectiveConfig {
  /// Concurrent-collective lanes. Lane i is driven by client node i, so
  /// the cluster needs client_count >= lanes.
  std::size_t lanes = 1;
  /// Server index at the root of every tree (fan-out source, fan-in sink).
  /// Tree positions rotate around it, so any server can be the root.
  std::size_t root = 0;
  CollectiveRepr repr = default_collective_repr();
};

struct CollectiveResult {
  /// Broadcast: leaf acks received (== servers on success; for the
  /// concurrent variant, lanes x servers). Reduce: servers folded.
  std::uint64_t delivered = 0;
  /// Reduce/allreduce: the folded value. Barrier: the release sequence.
  std::uint64_t value = 0;
  /// Virtual ns (sim) or monotonic wall-clock ns (shm, wall_clock set).
  std::int64_t elapsed_ns = 0;
  bool wall_clock = false;
  std::uint64_t frames_full = 0;      ///< edges that shipped code
  std::uint64_t frames_truncated = 0;
};

/// Per-cluster driver for the collective suite. Owns the per-server cell
/// arrays (one cell per lane), registers the broadcast/reduce kernels on
/// every lane's initiator runtime, and installs the ack/result handlers.
/// One collective per lane may be in flight at a time; distinct lanes run
/// concurrently (broadcast_all, or independent callers on the shm backend).
class CollectiveEngine {
 public:
  static StatusOr<std::unique_ptr<CollectiveEngine>> create(
      hetsim::Cluster& cluster, CollectiveConfig config = {});
  ~CollectiveEngine();
  CollectiveEngine(const CollectiveEngine&) = delete;
  CollectiveEngine& operator=(const CollectiveEngine&) = delete;

  std::size_t lanes() const { return lanes_.size(); }

  /// Sets server `server`'s reduce input for `lane`.
  void set_contribution(std::size_t server, std::uint64_t value,
                        std::size_t lane = 0);
  /// Reads back what `broadcast` landed on `server` for `lane`.
  std::uint64_t broadcast_value(std::size_t server, std::size_t lane = 0) const;
  std::uint64_t broadcast_arrivals(std::size_t server,
                                   std::size_t lane = 0) const;

  /// Delivers `value` to every server; completes when all leaf acks have
  /// returned to lane's initiator.
  StatusOr<CollectiveResult> broadcast(std::uint64_t value,
                                       std::size_t lane = 0);
  /// Folds every server's contribution with `op`; the root replies the
  /// total to the initiator.
  StatusOr<CollectiveResult> reduce(CollectiveOp op, std::size_t lane = 0);
  /// reduce + broadcast of the folded value: afterwards every server's
  /// broadcast slot holds the total the initiator returns.
  StatusOr<CollectiveResult> allreduce(CollectiveOp op, std::size_t lane = 0);
  /// Fan-in of one count per server (must total N), then a broadcast
  /// release carrying a fresh sequence number. When it returns, every
  /// server has processed both phases.
  StatusOr<CollectiveResult> barrier(std::size_t lane = 0);

  /// values.size() concurrent broadcasts, one per lane/initiator, driven
  /// as hetsim::Cluster::drive_initiators states. Aggregate result;
  /// per-lane landings via broadcast_value().
  StatusOr<CollectiveResult> broadcast_all(
      const std::vector<std::uint64_t>& values);

 private:
  /// Per-lane in-flight state, touched only by the lane's own progress
  /// context (see hetsim::Cluster::drive_initiators).
  struct Lane {
    fabric::NodeId node = 0;
    std::uint64_t bcast_ifunc = 0;
    std::uint64_t reduce_ifunc = 0;
    std::uint64_t acks = 0;
    std::uint64_t reduce_value = 0;
    bool have_reduce_value = false;
    bool failed = false;
  };

  explicit CollectiveEngine(hetsim::Cluster& cluster) : cluster_(&cluster) {}
  Status setup(const CollectiveConfig& config);
  void install_result_handler(std::size_t lane_index);
  Status issue_broadcast(Lane& lane, std::size_t lane_index,
                         std::uint64_t value);
  Status issue_reduce(Lane& lane, std::size_t lane_index, CollectiveOp op);
  /// Broadcasts values[i] on lane first + i, for every i; the latency is
  /// recorded as "e2e_ns/collective/<what>". Leaves result.value unset.
  StatusOr<CollectiveResult> broadcast_lanes(
      std::size_t first, std::span<const std::uint64_t> values,
      const char* what);
  /// Feeds a completed collective's end-to-end latency into the cluster's
  /// metrics registry ("e2e_ns/collective/<what>") when one is attached.
  void record_e2e(const char* what, std::int64_t elapsed_ns);

  hetsim::Cluster* cluster_;
  std::size_t root_ = 0;
  /// cells_[server][lane]; servers' target pointers alias these arrays.
  std::vector<std::unique_ptr<CollectiveCell[]>> cells_;
  std::vector<Lane> lanes_;
  std::atomic<std::uint64_t> barrier_seq_{0};
};

}  // namespace tc::xrdma
