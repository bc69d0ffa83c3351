#include "workloads/workload_engine.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <utility>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "core/ifunc.hpp"
#include "ir/kernels.hpp"
#include "kir/am_backend.hpp"

namespace tc::workloads {

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kHashProbe: return "hash_probe";
    case Workload::kOrderedSearch: return "ordered_search";
    case Workload::kBfs: return "bfs";
  }
  return "unknown";
}

const char* workload_mode_name(WorkloadMode mode) {
  switch (mode) {
    case WorkloadMode::kActiveMessage: return "active_message";
    case WorkloadMode::kBitcode: return "bitcode";
    case WorkloadMode::kObject: return "object";
    case WorkloadMode::kPortable: return "portable";
    case WorkloadMode::kHllBitcode: return "hll_bitcode";
  }
  return "unknown";
}

namespace {

ir::KernelKind kernel_for(Workload workload) {
  switch (workload) {
    case Workload::kHashProbe: return ir::KernelKind::kHashProbe;
    case Workload::kOrderedSearch: return ir::KernelKind::kOrderedSearch;
    case Workload::kBfs: return ir::KernelKind::kBfsFrontier;
  }
  return ir::KernelKind::kHashProbe;
}

/// The stock-library variant a code-shipping mode registers.
ir::CodeRepr code_repr(WorkloadMode mode) {
  switch (mode) {
    case WorkloadMode::kObject: return ir::CodeRepr::kObject;
    case WorkloadMode::kPortable: return ir::CodeRepr::kPortable;
    case WorkloadMode::kBitcode:
    case WorkloadMode::kHllBitcode:
    case WorkloadMode::kActiveMessage: break;
  }
  return ir::CodeRepr::kBitcode;
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// --- predeployed Active-Message handlers -------------------------------------
// Each handler interprets its kernel's bytecode (kir::make_am_handler). The
// kernels trust their payload words, so the gate below is the AM surface's
// hostile-input check: exact frame sizes, the attached shard, target and
// peer table, and the wire words a kernel indexes memory with — the
// ordered-search level (record fingers) and the BFS lane (cell array).
// Node ids and peers need no check here: a forward to a peer outside the
// peer table is refused by the AM hooks.
bool am_payload_ok(Workload workload, std::size_t lanes,
                   const am::AmContext& ctx, const std::uint8_t* p,
                   std::uint64_t n) {
  if (ctx.peers == nullptr) return false;
  switch (workload) {
    case Workload::kHashProbe:
      return n == 32 && ctx.shard_base != nullptr;
    case Workload::kOrderedSearch:
      return n == 32 && ctx.shard_base != nullptr &&
             read_u64(p + 16) < kIndexLevels;
    case Workload::kBfs: {
      // A visit carries [0][lane][vertex][from] and needs the shard, an
      // ack just [1][lane]: the size must match the kind.
      if (n != 16 && n != 32) return false;
      const std::uint64_t kind = read_u64(p);
      const bool visit = kind == 0 && n == 32 && ctx.shard_base != nullptr;
      const bool ack = kind == 1 && n == 16;
      return (visit || ack) && ctx.target_ptr != nullptr &&
             read_u64(p + 8) < lanes;
    }
  }
  return false;
}

StatusOr<am::AmHandlerFn> make_workload_handler(Workload workload,
                                                std::size_t lanes) {
  return kir::make_am_handler(
      kernel_for(workload), {},
      [workload, lanes](const am::AmContext& ctx, const std::uint8_t* p,
                        std::uint64_t n) {
        return am_payload_ok(workload, lanes, ctx, p, n);
      });
}

}  // namespace

// --- engine lifecycle --------------------------------------------------------

StatusOr<std::unique_ptr<WorkloadEngine>> WorkloadEngine::create(
    hetsim::Cluster& cluster, WorkloadConfig config) {
  auto engine = std::unique_ptr<WorkloadEngine>(new WorkloadEngine(cluster));
  TC_RETURN_IF_ERROR(engine->setup(config));
  return engine;
}

WorkloadEngine::~WorkloadEngine() {
  // Detach everything hung on the shared cluster: result-handler lambdas
  // capture this engine, and the servers' shard/target pointers alias
  // arrays about to be freed.
  for (const Lane& lane : lanes_) {
    if (is_am_mode()) {
      cluster_->am_runtime(lane.node).set_result_handler({});
    } else {
      cluster_->runtime(lane.node).set_result_handler({});
    }
  }
  for (fabric::NodeId node : cluster_->server_nodes()) {
    if (is_am_mode()) {
      cluster_->am_runtime(node).set_shard(nullptr, 0);
      cluster_->am_runtime(node).set_target_ptr(nullptr);
    } else {
      cluster_->runtime(node).set_shard(nullptr, 0);
      cluster_->runtime(node).set_target_ptr(nullptr);
    }
  }
}

Status WorkloadEngine::setup(const WorkloadConfig& config) {
  config_ = config;
  if (config.lanes == 0) {
    return invalid_argument("workloads: at least one lane required");
  }
  if (config.window == 0) {
    return invalid_argument("workloads: window must be at least 1");
  }
  if (config.lanes > cluster_->client_nodes().size()) {
    return invalid_argument(
        "workloads: " + std::to_string(config.lanes) +
        " lanes but the cluster has only " +
        std::to_string(cluster_->client_nodes().size()) + " client node(s)");
  }
  if (cluster_->metrics() != nullptr) {
    e2e_hist_ = &cluster_->metrics()->histogram(
        std::string("e2e_ns/") + workload_name(config_.workload) + "/" +
        workload_mode_name(config_.mode));
  }
  TC_RETURN_IF_ERROR(setup_data_structure());
  return setup_lanes();
}

Status WorkloadEngine::setup_data_structure() {
  const auto& servers = cluster_->server_nodes();
  auto attach_shard = [&](std::size_t s, std::vector<std::uint64_t>& shard) {
    if (is_am_mode()) {
      cluster_->am_runtime(servers[s]).set_shard(shard.data(), shard.size());
    } else {
      cluster_->runtime(servers[s]).set_shard(shard.data(), shard.size());
    }
  };

  switch (config_.workload) {
    case Workload::kHashProbe: {
      HashTableConfig table;
      table.buckets_per_shard = config_.buckets_per_shard;
      table.shard_count = servers.size();
      table.seed = config_.seed;
      table.fill_percent = config_.fill_percent;
      TC_ASSIGN_OR_RETURN(hash_, ShardedHashTable::build(table));
      for (std::size_t s = 0; s < servers.size(); ++s) {
        attach_shard(s, hash_.shard(s));
      }
      break;
    }
    case Workload::kOrderedSearch: {
      OrderedIndexConfig table;
      table.keys_per_shard = config_.keys_per_shard;
      table.shard_count = servers.size();
      table.seed = config_.seed;
      TC_ASSIGN_OR_RETURN(index_, ShardedOrderedIndex::build(table));
      for (std::size_t s = 0; s < servers.size(); ++s) {
        attach_shard(s, index_.shard(s));
      }
      break;
    }
    case Workload::kBfs: {
      CsrGraphConfig table;
      table.vertices_per_shard = config_.vertices_per_shard;
      table.shard_count = servers.size();
      table.avg_degree = config_.avg_degree;
      table.seed = config_.seed;
      TC_ASSIGN_OR_RETURN(graph_, ShardedCsrGraph::build(table));
      const std::uint64_t bitmap_words =
          (config_.vertices_per_shard + 63) / 64;
      cells_.reserve(servers.size());
      bitmaps_.resize(servers.size());
      worklists_.resize(servers.size());
      for (std::size_t s = 0; s < servers.size(); ++s) {
        attach_shard(s, graph_.shard(s));
        cells_.push_back(std::make_unique<WorkloadCell[]>(config_.lanes));
        bitmaps_[s].assign(config_.lanes,
                           std::vector<std::uint64_t>(bitmap_words, 0));
        worklists_[s].assign(
            config_.lanes,
            std::vector<std::uint64_t>(graph_.worklist_bound(s), 0));
        for (std::size_t lane = 0; lane < config_.lanes; ++lane) {
          cells_[s][lane].bitmap.store(
              reinterpret_cast<std::uint64_t>(bitmaps_[s][lane].data()),
              std::memory_order_release);
          cells_[s][lane].worklist.store(
              reinterpret_cast<std::uint64_t>(worklists_[s][lane].data()),
              std::memory_order_release);
        }
        if (is_am_mode()) {
          cluster_->am_runtime(servers[s]).set_target_ptr(cells_[s].get());
        } else {
          cluster_->runtime(servers[s]).set_target_ptr(cells_[s].get());
        }
      }
      break;
    }
  }
  return Status::ok();
}

Status WorkloadEngine::setup_lanes() {
  if (is_am_mode()) {
    // Predeployment discipline: the handler is registered on every node in
    // the same order, so the index is cluster-wide.
    TC_ASSIGN_OR_RETURN(
        am::AmHandlerFn handler,
        make_workload_handler(config_.workload, config_.lanes));
    const std::size_t node_count = cluster_->node_count();
    for (fabric::NodeId node = 0; node < node_count; ++node) {
      TC_ASSIGN_OR_RETURN(am_handler_index_,
                          cluster_->am_runtime(node).register_handler(handler));
    }
  }
  lanes_.resize(config_.lanes);
  for (std::size_t i = 0; i < config_.lanes; ++i) {
    Lane& lane = lanes_[i];
    lane.index = i;
    lane.node = cluster_->client_nodes()[i];
    if (!is_am_mode()) {
      TC_ASSIGN_OR_RETURN(
          lane.ifunc_id,
          core::register_stock_kernel(
              cluster_->runtime(lane.node), kernel_for(config_.workload),
              code_repr(config_.mode),
              {.hll_guards = config_.mode == WorkloadMode::kHllBitcode}));
    }
    install_result_handler(i);
  }
  return Status::ok();
}

void WorkloadEngine::install_result_handler(std::size_t lane_index) {
  // Replies for lane i return to client node i and fire on that node's
  // progress context — the lane state below is only ever touched by its
  // own driving thread.
  auto on_result = [this, lane_index](ByteSpan data, fabric::NodeId) {
    Lane& lane = lanes_[lane_index];
    if (data.size() != 16) {
      lane.failed = true;
      return;
    }
    const std::uint64_t first = read_u64(data.data());
    const std::uint64_t second = read_u64(data.data() + 8);
    if (config_.workload == Workload::kBfs) {
      // The one Dijkstra-Scholten completion reply per run: [lane][0]
      // from the engagement-root server once its deficit drained.
      if (first != lane_index || second != 0 || lane.outstanding == 0) {
        lane.failed = true;
        return;
      }
      lane.outstanding = 0;
    } else {
      on_lookup_reply(lane, second, first);  // [value][tag]
    }
  };
  if (is_am_mode()) {
    cluster_->am_runtime(lanes_[lane_index].node)
        .set_result_handler(on_result);
  } else {
    cluster_->runtime(lanes_[lane_index].node).set_result_handler(on_result);
  }
}

// --- query generation and ground truth ---------------------------------------

std::uint64_t WorkloadEngine::universe() const {
  switch (config_.workload) {
    case Workload::kHashProbe: return hash_.capacity();
    case Workload::kOrderedSearch: return index_.node_count();
    case Workload::kBfs: return graph_.total_vertices();
  }
  return 0;
}

std::uint64_t WorkloadEngine::expected_lookup(std::uint64_t key) const {
  return config_.workload == Workload::kHashProbe ? hash_.lookup(key)
                                                  : index_.lookup(key);
}

std::uint64_t WorkloadEngine::expected_bfs(std::uint64_t source) const {
  return graph_.reachable_count(source);
}

std::vector<std::uint64_t> WorkloadEngine::sample_queries(
    std::size_t lane, std::size_t count, unsigned hit_percent) const {
  const std::vector<std::uint64_t>& present =
      config_.workload == Workload::kHashProbe ? hash_.keys()
                                               : index_.keys();
  Xoshiro256 rng(config_.seed ^ 0x9e3779b97f4a7c15ull * (lane + 1));
  std::vector<std::uint64_t> queries;
  queries.reserve(count);
  while (queries.size() < count) {
    if (rng.below(100) < hit_percent && !present.empty()) {
      queries.push_back(present[rng.below(present.size())]);
    } else {
      // A guaranteed miss: draw until the reference lookup rejects it.
      std::uint64_t candidate = 0;
      do {
        candidate = (rng() >> 1) | 1;
      } while (expected_lookup(candidate) != kMiss);
      queries.push_back(candidate);
    }
  }
  return queries;
}

// --- lookup issue / completion -----------------------------------------------

Status WorkloadEngine::send_payload(Lane& lane, fabric::NodeId dst,
                                    ByteSpan payload) {
  if (is_am_mode()) {
    return cluster_->am_runtime(lane.node).send(dst, am_handler_index_,
                                                payload);
  }
  return cluster_->runtime(lane.node).send_ifunc(dst, lane.ifunc_id, payload);
}

Status WorkloadEngine::issue_lookup(Lane& lane, std::uint64_t index) {
  if (e2e_hist_ != nullptr && index < lane.issue_ns.size()) {
    lane.issue_ns[index] = cluster_->transport().now_ns();
  }
  const std::uint64_t key = (*lane.queries)[index];
  // Both payloads are four little-endian words, built on the stack.
  std::uint8_t payload[4 * sizeof(std::uint64_t)] = {};
  const auto put = [&payload](std::size_t word, std::uint64_t v) {
    for (std::size_t i = 0; i < sizeof(v); ++i) {
      payload[word * sizeof(v) + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  fabric::NodeId dst = 0;
  if (config_.workload == Workload::kHashProbe) {
    const std::uint64_t slot = hash_.start_slot(key);
    put(0, key);
    put(1, slot);
    put(2, hash_.capacity());  // probe budget: at most one full cycle
    put(3, index);             // routing tag
    dst = cluster_->server_nodes()[slot / hash_.buckets_per_shard()];
  } else {
    put(0, key);
    put(1, 0);  // the descent starts at the head node
    put(2, ShardedOrderedIndex::kLevels - 1);
    put(3, index);
    dst = cluster_->server_nodes()[0];  // node 0 lives on server 0
  }
  return send_payload(lane, dst, payload);
}

void WorkloadEngine::on_lookup_reply(Lane& lane, std::uint64_t tag,
                                     std::uint64_t value) {
  if (lane.queries == nullptr || tag >= lane.queries->size()) {
    lane.failed = true;
    return;
  }
  lane.values[tag] = value;
  if (e2e_hist_ != nullptr && tag < lane.issue_ns.size()) {
    const std::int64_t delta =
        cluster_->transport().now_ns() - lane.issue_ns[tag];
    e2e_hist_->record(delta > 0 ? static_cast<std::uint64_t>(delta) : 0);
  }
  ++lane.completed;
  if (lane.next_query < lane.queries->size()) {
    Status status = issue_lookup(lane, lane.next_query++);
    if (!status.is_ok()) lane.failed = true;
  }
}

Status WorkloadEngine::issue_bfs_seed(Lane& lane, std::uint64_t source) {
  ByteWriter w;
  w.u64(0);           // kind: visit
  w.u64(lane.index);
  w.u64(source);
  w.u64(~0ull);       // from: the chain origin engages the first server
  const fabric::NodeId dst =
      cluster_->server_nodes()[source / graph_.vertices_per_shard()];
  return send_payload(lane, dst, as_span(w.bytes()));
}

void WorkloadEngine::reset_bfs_lane(std::size_t lane_index) {
  for (std::size_t s = 0; s < cluster_->server_nodes().size(); ++s) {
    std::fill(bitmaps_[s][lane_index].begin(),
              bitmaps_[s][lane_index].end(), 0);
    cells_[s][lane_index].visited.store(0, std::memory_order_release);
    cells_[s][lane_index].engaged.store(0, std::memory_order_release);
    cells_[s][lane_index].parent.store(0, std::memory_order_release);
    cells_[s][lane_index].deficit.store(0, std::memory_order_release);
  }
  lanes_[lane_index].outstanding = 1;  // the seed message
  lanes_[lane_index].failed = false;
}

std::uint64_t WorkloadEngine::sum_bfs_visited(std::size_t lane_index) const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < cells_.size(); ++s) {
    total += cells_[s][lane_index].visited.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t WorkloadEngine::bfs_visited(std::size_t server,
                                          std::size_t lane) const {
  return cells_.at(server)[lane].visited.load(std::memory_order_acquire);
}

// --- run paths ---------------------------------------------------------------

void WorkloadEngine::reset_lookup_lane(std::size_t lane_index,
                                       const std::vector<std::uint64_t>& keys) {
  Lane& lane = lanes_[lane_index];
  lane.queries = &keys;
  lane.values.assign(keys.size(), 0);
  if (e2e_hist_ != nullptr) lane.issue_ns.assign(keys.size(), 0);
  lane.completed = 0;
  lane.failed = false;
}

StatusOr<WorkloadResult> WorkloadEngine::run_lookups(
    const std::vector<std::uint64_t>& keys, std::size_t lane_index) {
  if (config_.workload == Workload::kBfs) {
    return invalid_argument("run_lookups: BFS runs via run_bfs()");
  }
  if (lane_index >= lanes_.size()) {
    return invalid_argument("workloads: lane out of range");
  }
  if (keys.empty()) return invalid_argument("run_lookups: no queries");
  reset_lookup_lane(lane_index, keys);
  return drive_lookups(lane_index, 1);
}

StatusOr<WorkloadResult> WorkloadEngine::run_lookups_all(
    const std::vector<std::vector<std::uint64_t>>& per_lane) {
  if (config_.workload == Workload::kBfs) {
    return invalid_argument("run_lookups_all: BFS runs via run_bfs_all()");
  }
  if (per_lane.empty() || per_lane.size() > lanes_.size()) {
    return invalid_argument("workloads: run_lookups_all needs 1..lanes "
                            "query streams");
  }
  for (std::size_t i = 0; i < per_lane.size(); ++i) {
    if (per_lane[i].empty()) {
      return invalid_argument("run_lookups_all: empty query stream");
    }
    reset_lookup_lane(i, per_lane[i]);
  }
  return drive_lookups(0, per_lane.size());
}

StatusOr<WorkloadResult> WorkloadEngine::drive_lookups(std::size_t first,
                                                       std::size_t count) {
  const hetsim::Cluster::FramesSent frames0 = cluster_->frames_sent();
  fabric::Transport& transport = cluster_->transport();
  const auto t0 = transport.now_ns();
  TC_RETURN_IF_ERROR(cluster_->drive_initiators(
      std::span(cluster_->client_nodes()).subspan(first, count),
      [this, first](std::size_t i) -> Status {
        Lane& lane = lanes_[first + i];
        const std::uint64_t initial =
            std::min<std::uint64_t>(config_.window, lane.queries->size());
        lane.next_query = initial;
        for (std::uint64_t q = 0; q < initial; ++q) {
          TC_RETURN_IF_ERROR(issue_lookup(lane, q));
        }
        return Status::ok();
      },
      [this, first](std::size_t i) {
        const Lane& lane = lanes_[first + i];
        return lane.completed == lane.queries->size();
      },
      [this, first](std::size_t i) { return lanes_[first + i].failed; }));
  cluster_->settle();

  WorkloadResult result;
  result.elapsed_ns = transport.now_ns() - t0;
  result.wall_clock = !transport.deterministic();
  for (std::size_t i = first; i < first + count; ++i) {
    if (lanes_[i].failed) {
      return internal_error("workload lookups failed mid-flight");
    }
    result.completed += lanes_[i].completed;
    for (std::uint64_t v : lanes_[i].values) {
      if (v != kMiss) ++result.hits;
      result.values.push_back(v);
    }
  }
  result.ops_per_second =
      result.elapsed_ns > 0
          ? static_cast<double>(result.completed) * 1e9 /
                static_cast<double>(result.elapsed_ns)
          : 0.0;
  const hetsim::Cluster::FramesSent frames1 = cluster_->frames_sent();
  result.frames_full = frames1.full - frames0.full;
  result.frames_truncated = frames1.truncated - frames0.truncated;
  return result;
}

StatusOr<WorkloadResult> WorkloadEngine::run_bfs(std::uint64_t source,
                                                 std::size_t lane_index) {
  if (config_.workload != Workload::kBfs) {
    return invalid_argument("run_bfs: engine not configured for BFS");
  }
  if (lane_index >= lanes_.size()) {
    return invalid_argument("workloads: lane out of range");
  }
  if (source >= graph_.total_vertices()) {
    return invalid_argument("run_bfs: source vertex out of range");
  }
  reset_bfs_lane(lane_index);
  return drive_bfs(lane_index, std::span(&source, 1));
}

StatusOr<WorkloadResult> WorkloadEngine::run_bfs_all(
    const std::vector<std::uint64_t>& sources) {
  if (config_.workload != Workload::kBfs) {
    return invalid_argument("run_bfs_all: engine not configured for BFS");
  }
  if (sources.empty() || sources.size() > lanes_.size()) {
    return invalid_argument("workloads: run_bfs_all needs 1..lanes sources");
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (sources[i] >= graph_.total_vertices()) {
      return invalid_argument("run_bfs_all: source vertex out of range");
    }
    reset_bfs_lane(i);
  }
  return drive_bfs(0, sources);
}

StatusOr<WorkloadResult> WorkloadEngine::drive_bfs(
    std::size_t first, std::span<const std::uint64_t> sources) {
  const std::size_t count = sources.size();
  const hetsim::Cluster::FramesSent frames0 = cluster_->frames_sent();
  fabric::Transport& transport = cluster_->transport();
  const auto t0 = transport.now_ns();
  TC_RETURN_IF_ERROR(cluster_->drive_initiators(
      std::span(cluster_->client_nodes()).subspan(first, count),
      [this, first, sources](std::size_t i) {
        return issue_bfs_seed(lanes_[first + i], sources[i]);
      },
      [this, first](std::size_t i) {
        return lanes_[first + i].outstanding == 0;
      },
      [this, first](std::size_t i) { return lanes_[first + i].failed; }));
  cluster_->settle();

  WorkloadResult result;
  result.elapsed_ns = transport.now_ns() - t0;
  result.wall_clock = !transport.deterministic();
  for (std::size_t i = first; i < first + count; ++i) {
    if (lanes_[i].failed) return internal_error("BFS failed mid-flight");
    ++result.completed;
    const std::uint64_t visited = sum_bfs_visited(i);
    result.hits += visited;
    result.values.push_back(visited);
  }
  result.ops_per_second =
      result.elapsed_ns > 0
          ? static_cast<double>(result.hits) * 1e9 /
                static_cast<double>(result.elapsed_ns)
          : 0.0;
  const hetsim::Cluster::FramesSent frames1 = cluster_->frames_sent();
  result.frames_full = frames1.full - frames0.full;
  result.frames_truncated = frames1.truncated - frames0.truncated;
  return result;
}

}  // namespace tc::workloads
