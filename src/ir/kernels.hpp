// The stock ifunc kernel catalogue: kinds, names, and frontend options.
//
// This header is LLVM-free on purpose — the KIR definitions (src/kir/),
// the portable-bytecode lowering (src/vm/lower.cpp) and the runtime
// registry need the catalogue in TC_WITH_LLVM=OFF builds, where the LLVM
// emitter (kir/llvm_backend.hpp) is compiled out. Every kind has one KIR
// definition (kir::kernel_def).
#pragma once

namespace tc::ir {

enum class KernelKind {
  /// Target-Side Increment (paper §IV-B): `++*(uint64_t*)target`.
  kTargetSideIncrement,
  /// Sums payload bytes into `*(uint64_t*)target` (test workhorse).
  kPayloadSum,
  /// Single-precision a*x+y over payload arrays; vectorizable, used to
  /// demonstrate µarch-specific codegen (AVX2 vs NEON/SVE).
  kSaxpy,
  /// Sums a double array from the payload into `*(double*)target`.
  kVecReduce,
  /// The X-RDMA DAPC chaser (paper §IV-C): walks the local pointer-table
  /// shard, forwards itself to the owning server on a miss, replies with
  /// the final value when depth is exhausted.
  kChaser,
  /// Self-propagating ring hop: forwards itself peer-to-peer until its TTL
  /// expires, then replies with the hop count (recursive-propagation demo).
  kRingHop,
  /// Code-generating code: injects a *different* named ifunc to a peer
  /// chosen from its payload ("dynamically select new functions").
  kSpawner,
  /// Sums sin(x) over payload doubles by calling `sin` from libm — the
  /// shipped code links against a shared-library dependency declared in
  /// its deps manifest (the paper's `foo.deps` workflow, §III-C).
  kSinSum,
  /// Issues a one-sided remote write into a peer's exposed segment — an
  /// X-RDMA operation that "modifies remote memory" from injected code.
  kRemoteStore,
  /// Welford online statistics (count/mean/M2) over payload doubles into a
  /// 3-double target — the paper's "online-statistics ... for data
  /// processing on DPUs" direction, as a streaming kernel.
  kStatsSummary,
  /// Binomial-tree broadcast: recursively halves its peer range, forwarding
  /// itself to the midpoint of the other half — an O(log N)-depth X-RDMA
  /// collective built purely from self-propagation.
  kTreeBroadcast,
  /// Transport-generic broadcast of the collective suite: the same halving
  /// tree as kTreeBroadcast, but lane-aware (concurrent collectives land in
  /// per-lane cells), rooted anywhere (tree positions rotate around an
  /// arbitrary root server), and *acked* — every leaf delivery replies to
  /// the chain origin, so the initiator completes by draining its own
  /// progress context instead of polling remote memory.
  kCollectiveBroadcast,
  /// Fan-in companion of the suite: one kernel carries both phases of a
  /// binomial reduction. Fan-out messages descend the halving tree
  /// recording each node's child count; contribute messages climb back up,
  /// folding partial values (sum/min/max/count) into per-lane cells until
  /// the root replies to the origin with the final value.
  kCollectiveReduce,
  /// Remote-data-structure suite (src/workloads): open-addressing hash
  /// lookup over server-sharded buckets. Walks the linear-probe collision
  /// chain through the local shard and self-forwards to the owning server
  /// when the probe sequence crosses a shard boundary; replies
  /// [value|miss][tag] to the chain origin.
  kHashProbe,
  /// Skip-list-style descent over a sharded sorted index: every node
  /// record carries (next_id, next_key) fingers per level, so the
  /// comparison-driven branch is locally decidable — the DAPC chase
  /// generalized from "next pointer" to "key <= target?". Hops that stay
  /// in-shard loop locally; shard-crossing down-links forward the kernel.
  kOrderedSearch,
  /// Self-propagating BFS frontier expansion over a distributed CSR graph:
  /// marks per-(server, lane) visited bitmaps, expands the local closure
  /// through a lane-local worklist, forwards frontier vertices to their
  /// owning servers, and acks every consumed message to the chain origin
  /// ([lane][spawned]) so the initiator completes by credit counting.
  kBfsFrontier,
};

/// Number of kernel kinds (the enum is dense, starting at 0) — lets tools
/// iterate the catalogue. Keep in lockstep with the last enumerator.
inline constexpr int kKernelKindCount =
    static_cast<int>(KernelKind::kBfsFrontier) + 1;

/// Stable library name used for registration and wire identity.
const char* kernel_name(KernelKind kind);

/// One-line human description (used by examples and docs).
const char* kernel_description(KernelKind kind);

struct KernelOptions {
  /// Emit tc_hll_guard() dynamic-dispatch guards around loop bodies — the
  /// high-level-language (Julia-analogue) frontend signature.
  bool hll_guards = false;
  /// Chaser only: build the *tagged* (pipelined-window) variant, which
  /// expects [addr:u64][depth:u64][tag:u64] payloads and replies
  /// [value:u64][tag:u64]. A separate kernel variant — with its own wire
  /// identity — rather than a runtime payload-size dispatch, so the
  /// classic chaser's instruction stream (and thus the interpreter tier's
  /// per-op virtual-time charge) is untouched at window = 1. No other
  /// kernel has a tagged variant: kir::kernel_def, and so every builder,
  /// refuses the flag for it.
  bool chaser_tagged = false;
};

}  // namespace tc::ir
