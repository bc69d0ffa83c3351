#include "workloads/workload_engine.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "common/bytes.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "ir/kernels.hpp"
#include "kir/am_backend.hpp"
#include "kir/kernels.hpp"
#if TC_WITH_LLVM
#include "ir/kernel_builder.hpp"
#include "jit/compiler.hpp"
#endif

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

/// The registered name build_workload_library() will produce — computed up
/// front so the reuse check costs a lookup, not an archive build (the same
/// convention as the chaser and collective libraries).
std::string workload_library_name(ir::KernelKind kind, WorkloadMode mode) {
  switch (mode) {
    case WorkloadMode::kPortable: return core::portable_kernel_name(kind);
    case WorkloadMode::kObject:
      return std::string(ir::kernel_name(kind)) + "_bin";
    case WorkloadMode::kHllBitcode:
      return std::string(ir::kernel_name(kind)) + "_hll";
    case WorkloadMode::kBitcode:
    case WorkloadMode::kActiveMessage: break;
  }
  return ir::kernel_name(kind);
}

/// Builds a workload kernel library in the requested representation,
/// mirroring build_chaser_library(): portable archives work in every build
/// flavor, bitcode/object/HLL need LLVM.
StatusOr<core::IfuncLibrary> build_workload_library(ir::KernelKind kind,
                                                    WorkloadMode mode) {
  if (mode == WorkloadMode::kPortable) {
    return core::IfuncLibrary::from_portable_kernel(kind);
  }
#if TC_WITH_LLVM
  ir::KernelOptions options;
  options.hll_guards = mode == WorkloadMode::kHllBitcode;
  TC_ASSIGN_OR_RETURN(ir::FatBitcode archive,
                      ir::build_default_fat_kernel(kind, options));
  std::string name = ir::kernel_name(kind);
  if (mode == WorkloadMode::kHllBitcode) name += "_hll";
  if (mode == WorkloadMode::kObject) {
    TC_ASSIGN_OR_RETURN(archive, jit::compile_archive_to_objects(archive));
    name += "_bin";
  }
  return core::IfuncLibrary::from_archive(std::move(name),
                                          std::move(archive));
#else
  return failed_precondition(
      "bitcode/object/HLL workload libraries need LLVM (TC_WITH_LLVM=OFF); "
      "use WorkloadMode::kPortable");
#endif
}

StatusOr<std::uint64_t> register_or_reuse(core::Runtime& runtime,
                                          ir::KernelKind kind,
                                          WorkloadMode mode) {
  if (auto existing =
          runtime.ifunc_id_by_name(workload_library_name(kind, mode));
      existing.is_ok()) {
    return *existing;
  }
  TC_ASSIGN_OR_RETURN(core::IfuncLibrary library,
                      build_workload_library(kind, mode));
  return runtime.register_ifunc(std::move(library));
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void write_u64(std::uint8_t* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof(v));
}

// --- predeployed Active-Message handlers -------------------------------------
// The hash probe evaluates its KIR definition. The other two mirror their
// ifunc kernels instruction for instruction; the pairs are kept in lockstep
// by the workloads_test mode-equivalence matrix.

StatusOr<am::AmHandlerFn> make_hash_probe_handler() {
  // The validation gate (exact frame size, attached shard and peer table)
  // and the silent-drop contract live here; the sim charges the calibrated
  // AM exec cost whatever the handler body does.
  TC_ASSIGN_OR_RETURN(kir::Def def,
                      kir::prepared_def(ir::KernelKind::kHashProbe, {}));
  return am::AmHandlerFn([def = std::move(def)](am::AmContext& ctx,
                                                std::uint8_t* p,
                                                std::uint64_t n) {
    if (n != 32 || ctx.shard_base == nullptr || ctx.peers == nullptr) return;
    Status status = kir::run_in_am_context(def, ctx, p, n);
    if (!status.is_ok()) {
      TC_LOG(kWarn, "workloads") << "AM hash_probe: " << status.message();
    }
  });
}

am::AmHandlerFn make_ordered_search_handler() {
  return [](am::AmContext& ctx, std::uint8_t* p, std::uint64_t n) {
    if (n != 32 || ctx.shard_base == nullptr || ctx.peers == nullptr) return;
    const std::uint64_t target = read_u64(p);
    std::uint64_t node = read_u64(p + 8);
    std::uint64_t level = read_u64(p + 16);
    const std::uint64_t tag = read_u64(p + 24);
    const std::uint64_t nps =
        ctx.shard_size / ShardedOrderedIndex::kRecordWords;
    while (true) {
      const std::uint64_t owner = node / nps;
      if (owner != ctx.self_peer) {
        write_u64(p + 8, node);
        write_u64(p + 16, level);
        (void)ctx.runtime->send((*ctx.peers)[owner], ctx.handler_index,
                                ByteSpan(p, n), ctx.origin_node);
        return;
      }
      const std::uint64_t* rec =
          ctx.shard_base + (node % nps) * ShardedOrderedIndex::kRecordWords;
      bool hopped = false;
      while (true) {
        const std::uint64_t next_id = rec[2 + 2 * level];
        const std::uint64_t next_key = rec[3 + 2 * level];
        if (next_id != ShardedOrderedIndex::kNil && next_key <= target) {
          node = next_id;
          hopped = true;
          break;
        }
        if (level == 0) break;
        --level;
      }
      if (hopped) continue;
      write_u64(p, rec[0] == target ? rec[1] : kMiss);
      write_u64(p + 8, tag);
      (void)ctx.runtime->reply(ctx, ByteSpan(p, 16));
      return;
    }
  };
}

am::AmHandlerFn make_bfs_handler() {
  return [](am::AmContext& ctx, std::uint8_t* p, std::uint64_t n) {
    if ((n != 16 && n != 32) || ctx.peers == nullptr ||
        ctx.target_ptr == nullptr) {
      return;
    }
    const std::uint64_t kind = read_u64(p);
    // Size must match the kind: a visit carries [0][lane][vertex][from],
    // an ack just [1][lane] — a truncated visit must not be read past.
    if ((kind == 0 && n != 32) || (kind == 1 && n != 16) || kind > 1) {
      return;
    }
    const std::uint64_t lane = read_u64(p + 8);
    WorkloadCell& cell = static_cast<WorkloadCell*>(ctx.target_ptr)[lane];
    // Resolves a finished engagement: ack our own DS parent, or reply
    // [lane][0] to the chain origin at the engagement root.
    auto resolve = [&](std::uint64_t parent) {
      if (parent == ~0ull) {
        write_u64(p, lane);
        write_u64(p + 8, 0);
        (void)ctx.runtime->reply(ctx, ByteSpan(p, 16));
        return;
      }
      write_u64(p, 1);  // kind = ack
      write_u64(p + 8, lane);
      (void)ctx.runtime->send((*ctx.peers)[parent], ctx.handler_index,
                              ByteSpan(p, 16), ctx.origin_node);
    };
    if (kind == 1) {  // a child server acked
      const std::uint64_t deficit =
          cell.deficit.load(std::memory_order_relaxed) - 1;
      cell.deficit.store(deficit, std::memory_order_relaxed);
      if (deficit != 0) return;
      cell.engaged.store(0, std::memory_order_relaxed);
      resolve(cell.parent.load(std::memory_order_relaxed));
      return;
    }
    if (ctx.shard_base == nullptr) return;
    const std::uint64_t v = read_u64(p + 16);
    const std::uint64_t from = read_u64(p + 24);
    const std::uint64_t* shard = ctx.shard_base;
    const std::uint64_t vps = shard[0];
    const std::uint64_t owner = v / vps;
    if (owner != ctx.self_peer) {
      (void)ctx.runtime->send((*ctx.peers)[owner], ctx.handler_index,
                              ByteSpan(p, n), ctx.origin_node);
      return;
    }
    auto* bitmap = reinterpret_cast<std::uint64_t*>(
        cell.bitmap.load(std::memory_order_relaxed));
    auto* worklist = reinterpret_cast<std::uint64_t*>(
        cell.worklist.load(std::memory_order_relaxed));
    std::uint64_t sp = 0, spawned = 0;
    worklist[sp++] = v;
    while (sp != 0) {
      const std::uint64_t lu = worklist[--sp] % vps;
      std::uint64_t& word = bitmap[lu >> 6];
      const std::uint64_t bit = 1ull << (lu & 63);
      if ((word & bit) != 0) continue;
      word |= bit;
      cell.visited.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t row = shard[1 + lu];
      const std::uint64_t end = shard[2 + lu];
      for (std::uint64_t e = row; e < end; ++e) {
        const std::uint64_t nb = shard[2 + vps + e];
        const std::uint64_t nb_owner = nb / vps;
        if (nb_owner == ctx.self_peer) {
          worklist[sp++] = nb;
        } else {
          write_u64(p + 16, nb);
          write_u64(p + 24, ctx.self_peer);  // the child acks us
          (void)ctx.runtime->send((*ctx.peers)[nb_owner], ctx.handler_index,
                                  ByteSpan(p, 32), ctx.origin_node);
          ++spawned;
        }
      }
    }
    cell.deficit.fetch_add(spawned, std::memory_order_relaxed);
    if (cell.engaged.load(std::memory_order_relaxed) != 0) {
      resolve(from);  // engaged elsewhere: ack the sender right away
      return;
    }
    if (spawned == 0) {
      resolve(from);  // neutral and childless: resolve immediately
      return;
    }
    cell.parent.store(from, std::memory_order_relaxed);
    cell.engaged.store(1, std::memory_order_relaxed);
  };
}

StatusOr<am::AmHandlerFn> make_workload_handler(Workload workload) {
  switch (workload) {
    case Workload::kHashProbe: return make_hash_probe_handler();
    case Workload::kOrderedSearch: return make_ordered_search_handler();
    case Workload::kBfs: return make_bfs_handler();
  }
  return invalid_argument("workloads: unknown workload");
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
    TC_ASSIGN_OR_RETURN(am::AmHandlerFn handler,
                        make_workload_handler(config_.workload));
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
          register_or_reuse(cluster_->runtime(lane.node),
                            kernel_for(config_.workload), config_.mode));
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
  ByteWriter w;
  fabric::NodeId dst = 0;
  if (config_.workload == Workload::kHashProbe) {
    const std::uint64_t slot = hash_.start_slot(key);
    w.u64(key);
    w.u64(slot);
    w.u64(hash_.capacity());  // probe budget: at most one full cycle
    w.u64(index);             // routing tag
    dst = cluster_->server_nodes()[slot / hash_.buckets_per_shard()];
  } else {
    w.u64(key);
    w.u64(0);  // the descent starts at the head node
    w.u64(ShardedOrderedIndex::kLevels - 1);
    w.u64(index);
    dst = cluster_->server_nodes()[0];  // node 0 lives on server 0
  }
  return send_payload(lane, dst, as_span(w.bytes()));
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

std::pair<std::uint64_t, std::uint64_t> WorkloadEngine::frame_counts() const {
  if (is_am_mode()) return {0, 0};
  std::uint64_t full = 0, truncated = 0;
  const std::size_t nodes = cluster_->node_count();
  for (fabric::NodeId node = 0; node < nodes; ++node) {
    const auto& stats = cluster_->runtime(node).stats();
    full += stats.frames_sent_full;
    truncated += stats.frames_sent_truncated;
  }
  return {full, truncated};
}

// --- run paths ---------------------------------------------------------------

StatusOr<WorkloadResult> WorkloadEngine::run_lookups(
    const std::vector<std::uint64_t>& keys, std::size_t lane_index) {
  if (config_.workload == Workload::kBfs) {
    return invalid_argument("run_lookups: BFS runs via run_bfs()");
  }
  if (lane_index >= lanes_.size()) {
    return invalid_argument("workloads: lane out of range");
  }
  if (keys.empty()) return invalid_argument("run_lookups: no queries");
  Lane& lane = lanes_[lane_index];
  lane.queries = &keys;
  lane.values.assign(keys.size(), 0);
  if (e2e_hist_ != nullptr) lane.issue_ns.assign(keys.size(), 0);
  lane.completed = 0;
  lane.failed = false;

  const auto frames0 = frame_counts();
  fabric::Transport& transport = cluster_->transport();
  const auto t0 = transport.now_ns();
  const std::uint64_t initial =
      std::min<std::uint64_t>(config_.window, keys.size());
  lane.next_query = initial;
  for (std::uint64_t i = 0; i < initial; ++i) {
    TC_RETURN_IF_ERROR(issue_lookup(lane, i));
  }
  TC_RETURN_IF_ERROR(cluster_->drive_until(lane.node, [&lane, &keys] {
    return lane.failed || lane.completed == keys.size();
  }));
  cluster_->settle();
  if (lane.failed) {
    return internal_error("workload lookup failed mid-flight");
  }

  WorkloadResult result;
  result.elapsed_ns = transport.now_ns() - t0;
  result.wall_clock = !transport.deterministic();
  result.completed = lane.completed;
  result.values = lane.values;
  for (std::uint64_t v : lane.values) {
    if (v != kMiss) ++result.hits;
  }
  result.ops_per_second =
      result.elapsed_ns > 0
          ? static_cast<double>(result.completed) * 1e9 /
                static_cast<double>(result.elapsed_ns)
          : 0.0;
  const auto frames1 = frame_counts();
  result.frames_full = frames1.first - frames0.first;
  result.frames_truncated = frames1.second - frames0.second;
  return result;
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
  const std::size_t m = per_lane.size();
  for (std::size_t i = 0; i < m; ++i) {
    if (per_lane[i].empty()) {
      return invalid_argument("run_lookups_all: empty query stream");
    }
    Lane& lane = lanes_[i];
    lane.queries = &per_lane[i];
    lane.values.assign(per_lane[i].size(), 0);
    if (e2e_hist_ != nullptr) lane.issue_ns.assign(per_lane[i].size(), 0);
    lane.completed = 0;
    lane.failed = false;
  }

  const auto frames0 = frame_counts();
  fabric::Transport& transport = cluster_->transport();
  const auto t0 = transport.now_ns();

  if (cluster_->backend() == hetsim::Backend::kSim) {
    // Deterministic interleaving: every lane issues into the one virtual
    // timeline, a single event loop drains them all.
    for (std::size_t i = 0; i < m; ++i) {
      Lane& lane = lanes_[i];
      const std::uint64_t initial =
          std::min<std::uint64_t>(config_.window, per_lane[i].size());
      lane.next_query = initial;
      for (std::uint64_t q = 0; q < initial; ++q) {
        TC_RETURN_IF_ERROR(issue_lookup(lane, q));
      }
    }
    TC_RETURN_IF_ERROR(
        cluster_->drive_until(cluster_->client_node(), [this, m] {
          for (std::size_t i = 0; i < m; ++i) {
            if (lanes_[i].failed) return true;
            if (lanes_[i].completed != lanes_[i].queries->size()) {
              return false;
            }
          }
          return true;
        }));
  } else {
    // Real concurrency: one OS thread per initiator issues and completes
    // its own lane on its own client node.
    std::vector<std::thread> threads;
    std::vector<Status> status(m, Status::ok());
    for (std::size_t i = 0; i < m; ++i) {
      threads.emplace_back([this, i, &status] {
        Lane& lane = lanes_[i];
        const std::uint64_t n = lane.queries->size();
        const std::uint64_t initial =
            std::min<std::uint64_t>(config_.window, n);
        lane.next_query = initial;
        for (std::uint64_t q = 0; q < initial; ++q) {
          Status s = issue_lookup(lane, q);
          if (!s.is_ok()) {
            status[i] = std::move(s);
            lane.failed = true;
            return;
          }
        }
        status[i] = cluster_->drive_until(lane.node, [&lane, n] {
          return lane.failed || lane.completed == n;
        });
      });
    }
    for (std::thread& t : threads) t.join();
    for (Status& s : status) {
      if (!s.is_ok()) return std::move(s);
    }
  }
  cluster_->settle();

  WorkloadResult result;
  result.elapsed_ns = transport.now_ns() - t0;
  result.wall_clock = !transport.deterministic();
  for (std::size_t i = 0; i < m; ++i) {
    if (lanes_[i].failed) {
      return internal_error("concurrent workload lookups failed mid-flight");
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
  const auto frames1 = frame_counts();
  result.frames_full = frames1.first - frames0.first;
  result.frames_truncated = frames1.second - frames0.second;
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
  Lane& lane = lanes_[lane_index];
  reset_bfs_lane(lane_index);
  lane.outstanding = 1;  // the seed message
  lane.failed = false;

  const auto frames0 = frame_counts();
  fabric::Transport& transport = cluster_->transport();
  const auto t0 = transport.now_ns();
  TC_RETURN_IF_ERROR(issue_bfs_seed(lane, source));
  TC_RETURN_IF_ERROR(cluster_->drive_until(lane.node, [&lane] {
    return lane.failed || lane.outstanding == 0;
  }));
  cluster_->settle();
  if (lane.failed) return internal_error("BFS failed mid-flight");

  WorkloadResult result;
  result.elapsed_ns = transport.now_ns() - t0;
  result.wall_clock = !transport.deterministic();
  result.completed = 1;
  result.hits = sum_bfs_visited(lane_index);
  result.values = {result.hits};
  result.ops_per_second =
      result.elapsed_ns > 0
          ? static_cast<double>(result.hits) * 1e9 /
                static_cast<double>(result.elapsed_ns)
          : 0.0;
  const auto frames1 = frame_counts();
  result.frames_full = frames1.first - frames0.first;
  result.frames_truncated = frames1.second - frames0.second;
  return result;
}

StatusOr<WorkloadResult> WorkloadEngine::run_bfs_all(
    const std::vector<std::uint64_t>& sources) {
  if (config_.workload != Workload::kBfs) {
    return invalid_argument("run_bfs_all: engine not configured for BFS");
  }
  if (sources.empty() || sources.size() > lanes_.size()) {
    return invalid_argument("workloads: run_bfs_all needs 1..lanes sources");
  }
  const std::size_t m = sources.size();
  for (std::size_t i = 0; i < m; ++i) {
    if (sources[i] >= graph_.total_vertices()) {
      return invalid_argument("run_bfs_all: source vertex out of range");
    }
    reset_bfs_lane(i);
    lanes_[i].outstanding = 1;
    lanes_[i].failed = false;
  }

  const auto frames0 = frame_counts();
  fabric::Transport& transport = cluster_->transport();
  const auto t0 = transport.now_ns();

  if (cluster_->backend() == hetsim::Backend::kSim) {
    for (std::size_t i = 0; i < m; ++i) {
      TC_RETURN_IF_ERROR(issue_bfs_seed(lanes_[i], sources[i]));
    }
    TC_RETURN_IF_ERROR(
        cluster_->drive_until(cluster_->client_node(), [this, m] {
          for (std::size_t i = 0; i < m; ++i) {
            if (lanes_[i].failed) return true;
            if (lanes_[i].outstanding != 0) return false;
          }
          return true;
        }));
  } else {
    std::vector<std::thread> threads;
    std::vector<Status> status(m, Status::ok());
    for (std::size_t i = 0; i < m; ++i) {
      threads.emplace_back([this, i, &sources, &status] {
        Lane& lane = lanes_[i];
        Status s = issue_bfs_seed(lane, sources[i]);
        if (!s.is_ok()) {
          status[i] = std::move(s);
          lane.failed = true;
          return;
        }
        status[i] = cluster_->drive_until(lane.node, [&lane] {
          return lane.failed || lane.outstanding == 0;
        });
      });
    }
    for (std::thread& t : threads) t.join();
    for (Status& s : status) {
      if (!s.is_ok()) return std::move(s);
    }
  }
  cluster_->settle();

  WorkloadResult result;
  result.elapsed_ns = transport.now_ns() - t0;
  result.wall_clock = !transport.deterministic();
  for (std::size_t i = 0; i < m; ++i) {
    if (lanes_[i].failed) {
      return internal_error("concurrent BFS failed mid-flight");
    }
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
  const auto frames1 = frame_counts();
  result.frames_full = frames1.first - frames0.first;
  result.frames_truncated = frames1.second - frames0.second;
  return result;
}

}  // namespace tc::workloads
