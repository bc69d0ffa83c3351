#include "ir/kernels.hpp"

namespace tc::ir {

const char* kernel_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::kTargetSideIncrement: return "tsi";
    case KernelKind::kPayloadSum: return "payload_sum";
    case KernelKind::kSaxpy: return "saxpy";
    case KernelKind::kVecReduce: return "vec_reduce";
    case KernelKind::kChaser: return "dapc_chaser";
    case KernelKind::kRingHop: return "ring_hop";
    case KernelKind::kSpawner: return "spawner";
    case KernelKind::kSinSum: return "sin_sum";
    case KernelKind::kRemoteStore: return "remote_store";
    case KernelKind::kStatsSummary: return "stats_summary";
    case KernelKind::kTreeBroadcast: return "tree_broadcast";
    case KernelKind::kCollectiveBroadcast: return "coll_bcast";
    case KernelKind::kCollectiveReduce: return "coll_reduce";
    case KernelKind::kHashProbe: return "hash_probe";
    case KernelKind::kOrderedSearch: return "ordered_search";
    case KernelKind::kBfsFrontier: return "bfs_frontier";
  }
  return "unknown";
}

const char* kernel_description(KernelKind kind) {
  switch (kind) {
    case KernelKind::kTargetSideIncrement:
      return "increments a 64-bit counter on the target node";
    case KernelKind::kPayloadSum:
      return "sums the payload bytes into the target word";
    case KernelKind::kSaxpy:
      return "single-precision a*x+y over payload arrays";
    case KernelKind::kVecReduce:
      return "sums a double array from the payload";
    case KernelKind::kChaser:
      return "X-RDMA distributed adaptive pointer chaser";
    case KernelKind::kRingHop:
      return "self-propagating ring traversal with TTL";
    case KernelKind::kSpawner:
      return "injects another registered ifunc chosen from its payload";
    case KernelKind::kSinSum:
      return "sums sin(x) over payload doubles via the libm dependency";
    case KernelKind::kRemoteStore:
      return "writes a value into a peer's exposed segment (X-RDMA PUT)";
    case KernelKind::kStatsSummary:
      return "streaming Welford statistics over payload doubles";
    case KernelKind::kTreeBroadcast:
      return "self-propagating binomial-tree broadcast across peers";
    case KernelKind::kCollectiveBroadcast:
      return "lane-aware rooted broadcast with per-leaf origin acks";
    case KernelKind::kCollectiveReduce:
      return "binomial-tree reduction (sum/min/max/count) with root reply";
    case KernelKind::kHashProbe:
      return "sharded open-addressing hash lookup with cross-shard probes";
    case KernelKind::kOrderedSearch:
      return "skip-list descent over a sharded sorted index with fingers";
    case KernelKind::kBfsFrontier:
      return "self-propagating BFS over a distributed CSR graph";
  }
  return "";
}

}  // namespace tc::ir
