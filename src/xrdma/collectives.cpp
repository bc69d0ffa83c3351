#include "xrdma/collectives.hpp"

#include <span>
#include <string>

#include "ir/kernels.hpp"

namespace tc::xrdma {

namespace {

ir::CodeRepr code_repr(CollectiveRepr repr) {
  switch (repr) {
    case CollectiveRepr::kObject: return ir::CodeRepr::kObject;
    case CollectiveRepr::kPortable: return ir::CodeRepr::kPortable;
    case CollectiveRepr::kBitcode: break;
  }
  return ir::CodeRepr::kBitcode;
}

}  // namespace

StatusOr<BroadcastResult> tree_broadcast(hetsim::Cluster& cluster,
                                         std::uint64_t value,
                                         std::vector<BroadcastSlot>& slots) {
  const auto& servers = cluster.server_nodes();
  if (slots.size() != servers.size()) {
    return invalid_argument("tree_broadcast: one slot per server required");
  }

  core::Runtime& client = cluster.client_runtime();
  // Bitcode representation when the toolchain is available; the portable
  // interpreter tier otherwise (distinct wire name, identical semantics).
  // Repeated broadcasts reuse the registration.
  TC_ASSIGN_OR_RETURN(
      const std::uint64_t ifunc_id,
      core::register_stock_kernel(client, ir::KernelKind::kTreeBroadcast,
                                  code_repr(default_collective_repr())));

  for (std::size_t i = 0; i < servers.size(); ++i) {
    slots[i].arrivals.store(0, std::memory_order_relaxed);
    cluster.runtime(servers[i]).set_target_ptr(&slots[i]);
  }

  const hetsim::Cluster::FramesSent frames0 = cluster.frames_sent();

  ByteWriter w;
  w.u64(0);                    // base peer of the covered range
  w.u64(servers.size());       // span
  w.u64(value);
  fabric::Transport& transport = cluster.transport();
  const auto t0 = transport.now_ns();
  TC_RETURN_IF_ERROR(client.send_ifunc(servers[0], ifunc_id,
                                       as_span(w.bytes())));
  // Completion: on sim the deterministic event loop runs until every slot
  // saw its arrival; on shm the initiator thread spins its own progress
  // context while the server progress threads publish into the atomic
  // slots (release word-stores from the traveling kernel pair with the
  // acquire polls here).
  Status run = cluster.drive_until(cluster.client_node(), [&slots] {
    for (const BroadcastSlot& slot : slots) {
      if (slot.arrivals.load(std::memory_order_acquire) == 0) return false;
    }
    return true;
  });
  if (!run.is_ok()) return run;
  cluster.settle();  // drain trailing busy/no-op events (sim)

  BroadcastResult result;
  result.virtual_ns = transport.now_ns() - t0;
  result.wall_clock = !transport.deterministic();
  for (const BroadcastSlot& slot : slots) {
    if (slot.value.load(std::memory_order_acquire) == value &&
        slot.arrivals.load(std::memory_order_acquire) >= 1) {
      ++result.delivered;
    }
  }
  const hetsim::Cluster::FramesSent frames1 = cluster.frames_sent();
  result.frames_full = frames1.full - frames0.full;
  result.frames_truncated = frames1.truncated - frames0.truncated;
  return result;
}

// --- the collective suite ----------------------------------------------------

const char* collective_op_name(CollectiveOp op) {
  switch (op) {
    case CollectiveOp::kSum: return "sum";
    case CollectiveOp::kMin: return "min";
    case CollectiveOp::kMax: return "max";
    case CollectiveOp::kCount: return "count";
  }
  return "unknown";
}

const char* collective_repr_name(CollectiveRepr repr) {
  switch (repr) {
    case CollectiveRepr::kBitcode: return "bitcode";
    case CollectiveRepr::kObject: return "object";
    case CollectiveRepr::kPortable: return "portable";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<CollectiveEngine>> CollectiveEngine::create(
    hetsim::Cluster& cluster, CollectiveConfig config) {
  auto engine =
      std::unique_ptr<CollectiveEngine>(new CollectiveEngine(cluster));
  TC_RETURN_IF_ERROR(engine->setup(config));
  return engine;
}

Status CollectiveEngine::setup(const CollectiveConfig& config) {
  if (config.lanes == 0) {
    return invalid_argument("collectives: at least one lane required");
  }
  if (config.lanes > cluster_->client_nodes().size()) {
    return invalid_argument(
        "collectives: " + std::to_string(config.lanes) +
        " lanes but the cluster has only " +
        std::to_string(cluster_->client_nodes().size()) + " client node(s)");
  }
  const auto& servers = cluster_->server_nodes();
  if (config.root >= servers.size()) {
    return invalid_argument("collectives: root server index out of range");
  }
  root_ = config.root;

  cells_.reserve(servers.size());
  for (std::size_t s = 0; s < servers.size(); ++s) {
    cells_.push_back(std::make_unique<CollectiveCell[]>(config.lanes));
    cluster_->runtime(servers[s]).set_target_ptr(cells_[s].get());
  }

  lanes_.resize(config.lanes);
  for (std::size_t i = 0; i < config.lanes; ++i) {
    Lane& lane = lanes_[i];
    lane.node = cluster_->client_nodes()[i];
    core::Runtime& runtime = cluster_->runtime(lane.node);
    TC_ASSIGN_OR_RETURN(
        lane.bcast_ifunc,
        core::register_stock_kernel(runtime,
                                    ir::KernelKind::kCollectiveBroadcast,
                                    code_repr(config.repr)));
    TC_ASSIGN_OR_RETURN(
        lane.reduce_ifunc,
        core::register_stock_kernel(runtime,
                                    ir::KernelKind::kCollectiveReduce,
                                    code_repr(config.repr)));
    install_result_handler(i);
  }
  return Status::ok();
}

CollectiveEngine::~CollectiveEngine() {
  // Detach everything hung on the shared cluster: result-handler lambdas
  // capture this engine, and the server target pointers alias cell arrays
  // about to be freed.
  for (const Lane& lane : lanes_) {
    cluster_->runtime(lane.node).set_result_handler({});
  }
  for (fabric::NodeId node : cluster_->server_nodes()) {
    cluster_->runtime(node).set_target_ptr(nullptr);
  }
}

void CollectiveEngine::install_result_handler(std::size_t lane_index) {
  // Acks and reduce results for lane i return to client node i and fire on
  // that node's progress context — the lane state below is only ever
  // touched by its own driving thread.
  cluster_->runtime(lanes_[lane_index].node)
      .set_result_handler([this, lane_index](ByteSpan data, fabric::NodeId) {
        Lane& lane = lanes_[lane_index];
        if (data.size() != 24) {
          lane.failed = true;
          return;
        }
        ByteReader r(data);
        std::uint64_t kind = 0, reply_lane = 0, value = 0;
        if (!r.u64(kind).is_ok() || !r.u64(reply_lane).is_ok() ||
            !r.u64(value).is_ok() || reply_lane != lane_index) {
          lane.failed = true;
          return;
        }
        if (kind == 0) {
          ++lane.acks;  // a leaf delivery acked
        } else if (kind == 1) {
          lane.reduce_value = value;  // the root folded everything
          lane.have_reduce_value = true;
        } else {
          lane.failed = true;
        }
      });
}

void CollectiveEngine::set_contribution(std::size_t server,
                                        std::uint64_t value,
                                        std::size_t lane) {
  cells_.at(server)[lane].contrib.store(value, std::memory_order_release);
}

std::uint64_t CollectiveEngine::broadcast_value(std::size_t server,
                                                std::size_t lane) const {
  return cells_.at(server)[lane].value.load(std::memory_order_acquire);
}

std::uint64_t CollectiveEngine::broadcast_arrivals(std::size_t server,
                                                   std::size_t lane) const {
  return cells_.at(server)[lane].arrivals.load(std::memory_order_acquire);
}

Status CollectiveEngine::issue_broadcast(Lane& lane, std::size_t lane_index,
                                         std::uint64_t value) {
  const auto& servers = cluster_->server_nodes();
  ByteWriter w;
  w.u64(0);                    // tree position of the root
  w.u64(servers.size());       // span
  w.u64(value);
  w.u64(lane_index);
  w.u64(root_);
  return cluster_->runtime(lane.node).send_ifunc(
      servers[root_], lane.bcast_ifunc, as_span(w.bytes()));
}

Status CollectiveEngine::issue_reduce(Lane& lane, std::size_t lane_index,
                                      CollectiveOp op) {
  const auto& servers = cluster_->server_nodes();
  ByteWriter w;
  w.u64(0);                    // kind: fan-out
  w.u64(0);                    // tree position of the root
  w.u64(servers.size());       // span
  w.u64(~0ull);                // parent: the root replies to the origin
  w.u64(lane_index);
  w.u64(static_cast<std::uint64_t>(op));
  w.u64(root_);
  return cluster_->runtime(lane.node).send_ifunc(
      servers[root_], lane.reduce_ifunc, as_span(w.bytes()));
}

void CollectiveEngine::record_e2e(const char* what, std::int64_t elapsed_ns) {
  if (cluster_->metrics() == nullptr) return;
  cluster_->metrics()
      ->histogram(std::string("e2e_ns/collective/") + what)
      .record(elapsed_ns > 0 ? static_cast<std::uint64_t>(elapsed_ns) : 0);
}

StatusOr<CollectiveResult> CollectiveEngine::broadcast(std::uint64_t value,
                                                       std::size_t lane_index) {
  if (lane_index >= lanes_.size()) {
    return invalid_argument("collectives: lane out of range");
  }
  TC_ASSIGN_OR_RETURN(
      CollectiveResult result,
      broadcast_lanes(lane_index, std::span(&value, 1), "broadcast"));
  result.value = value;
  return result;
}

StatusOr<CollectiveResult> CollectiveEngine::broadcast_all(
    const std::vector<std::uint64_t>& values) {
  if (values.empty() || values.size() > lanes_.size()) {
    return invalid_argument(
        "collectives: broadcast_all needs 1..lanes values");
  }
  return broadcast_lanes(0, values, "broadcast_all");
}

StatusOr<CollectiveResult> CollectiveEngine::broadcast_lanes(
    std::size_t first, std::span<const std::uint64_t> values,
    const char* what) {
  const std::size_t count = values.size();
  const std::size_t n = cluster_->server_nodes().size();
  for (std::size_t i = first; i < first + count; ++i) {
    for (std::size_t s = 0; s < n; ++s) {
      cells_[s][i].arrivals.store(0, std::memory_order_relaxed);
    }
    lanes_[i].acks = 0;
    lanes_[i].failed = false;
  }

  const hetsim::Cluster::FramesSent frames0 = cluster_->frames_sent();
  fabric::Transport& transport = cluster_->transport();
  const auto t0 = transport.now_ns();
  TC_RETURN_IF_ERROR(cluster_->drive_initiators(
      std::span(cluster_->client_nodes()).subspan(first, count),
      [this, first, values](std::size_t i) {
        return issue_broadcast(lanes_[first + i], first + i, values[i]);
      },
      [this, first, n](std::size_t i) { return lanes_[first + i].acks == n; },
      [this, first](std::size_t i) { return lanes_[first + i].failed; }));
  cluster_->settle();

  CollectiveResult result;
  for (std::size_t i = first; i < first + count; ++i) {
    if (lanes_[i].failed) {
      return internal_error("collective broadcast failed mid-flight");
    }
    result.delivered += lanes_[i].acks;
  }
  result.elapsed_ns = transport.now_ns() - t0;
  result.wall_clock = !transport.deterministic();
  record_e2e(what, result.elapsed_ns);
  const hetsim::Cluster::FramesSent frames1 = cluster_->frames_sent();
  result.frames_full = frames1.full - frames0.full;
  result.frames_truncated = frames1.truncated - frames0.truncated;
  return result;
}

StatusOr<CollectiveResult> CollectiveEngine::reduce(CollectiveOp op,
                                                    std::size_t lane_index) {
  if (lane_index >= lanes_.size()) {
    return invalid_argument("collectives: lane out of range");
  }
  Lane& lane = lanes_[lane_index];
  lane.have_reduce_value = false;
  lane.failed = false;

  CollectiveResult result;
  const hetsim::Cluster::FramesSent frames0 = cluster_->frames_sent();
  fabric::Transport& transport = cluster_->transport();
  const auto t0 = transport.now_ns();
  TC_RETURN_IF_ERROR(cluster_->drive_initiators(
      std::span(cluster_->client_nodes()).subspan(lane_index, 1),
      [&](std::size_t) { return issue_reduce(lane, lane_index, op); },
      [&lane](std::size_t) { return lane.have_reduce_value; },
      [&lane](std::size_t) { return lane.failed; }));
  cluster_->settle();
  if (lane.failed) {
    return internal_error("collective reduce failed mid-flight");
  }
  result.elapsed_ns = transport.now_ns() - t0;
  result.wall_clock = !transport.deterministic();
  record_e2e("reduce", result.elapsed_ns);
  result.delivered = cluster_->server_nodes().size();
  result.value = lane.reduce_value;
  const hetsim::Cluster::FramesSent frames1 = cluster_->frames_sent();
  result.frames_full = frames1.full - frames0.full;
  result.frames_truncated = frames1.truncated - frames0.truncated;
  return result;
}

StatusOr<CollectiveResult> CollectiveEngine::allreduce(CollectiveOp op,
                                                       std::size_t lane_index) {
  TC_ASSIGN_OR_RETURN(CollectiveResult folded, reduce(op, lane_index));
  TC_ASSIGN_OR_RETURN(CollectiveResult spread,
                      broadcast(folded.value, lane_index));
  CollectiveResult result;
  result.delivered = spread.delivered;
  result.value = folded.value;
  result.elapsed_ns = folded.elapsed_ns + spread.elapsed_ns;
  result.wall_clock = folded.wall_clock;
  result.frames_full = folded.frames_full + spread.frames_full;
  result.frames_truncated =
      folded.frames_truncated + spread.frames_truncated;
  return result;
}

StatusOr<CollectiveResult> CollectiveEngine::barrier(std::size_t lane_index) {
  // Fan-in: every server folds a 1; the root total must be the server
  // count. Release: a broadcast of a fresh sequence number — once its acks
  // are home, every server has executed both barrier phases.
  TC_ASSIGN_OR_RETURN(CollectiveResult fan_in,
                      reduce(CollectiveOp::kCount, lane_index));
  if (fan_in.value != cluster_->server_nodes().size()) {
    return internal_error("barrier fan-in folded " +
                          std::to_string(fan_in.value) + " of " +
                          std::to_string(cluster_->server_nodes().size()) +
                          " servers");
  }
  const std::uint64_t seq =
      barrier_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  TC_ASSIGN_OR_RETURN(CollectiveResult release, broadcast(seq, lane_index));
  CollectiveResult result;
  result.delivered = release.delivered;
  result.value = seq;
  result.elapsed_ns = fan_in.elapsed_ns + release.elapsed_ns;
  result.wall_clock = fan_in.wall_clock;
  result.frames_full = fan_in.frames_full + release.frames_full;
  result.frames_truncated =
      fan_in.frames_truncated + release.frames_truncated;
  return result;
}

}  // namespace tc::xrdma
