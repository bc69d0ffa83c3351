#include "xrdma/dapc.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "common/log.hpp"
#if TC_WITH_LLVM
#include "hll/frontend.hpp"
#endif

namespace tc::xrdma {

const char* chase_mode_name(ChaseMode mode) {
  switch (mode) {
    case ChaseMode::kActiveMessage: return "active_message";
    case ChaseMode::kGet: return "get";
    case ChaseMode::kCachedBitcode: return "cached_bitcode";
    case ChaseMode::kCachedBinary: return "cached_binary";
    case ChaseMode::kInterpreted: return "interpreted";
    case ChaseMode::kHllBitcode: return "hll_bitcode";
    case ChaseMode::kHllDrivesC: return "hll_drives_c";
  }
  return "unknown";
}

DapcDriver::~DapcDriver() {
  // Detach everything this driver hung on the shared cluster: the result
  // handlers' lambdas capture this driver, and stale replies still queued
  // in the fabric (e.g. after a mid-run failure) must not dispatch into a
  // destroyed object.
  detach_result_handlers();
  if (batch_overridden_) {
    for (const Initiator& init : initiators_) {
      cluster_->runtime(init.node).set_batch_options(
          saved_batch_[init.index]);
    }
  }
}

void DapcDriver::detach_result_handlers() {
  for (const Initiator& init : initiators_) {
    if (mode_ == ChaseMode::kActiveMessage) {
      cluster_->am_runtime(init.node).set_result_handler({});
    } else if (mode_ != ChaseMode::kGet) {
      cluster_->runtime(init.node).set_result_handler({});
    }
  }
}

StatusOr<std::unique_ptr<DapcDriver>> DapcDriver::create(
    hetsim::Cluster& cluster, ChaseMode mode, DapcConfig config) {
  if (config.depth == 0 || config.chases == 0) {
    return invalid_argument("DAPC: depth and chases must be positive");
  }
  if (config.window == 0) {
    return invalid_argument("DAPC: window must be at least 1");
  }
  if (config.initiators == 0) {
    return invalid_argument("DAPC: initiators must be at least 1");
  }
  if (config.initiators > cluster.client_nodes().size()) {
    return invalid_argument(
        "DAPC: " + std::to_string(config.initiators) +
        " initiators but the cluster has only " +
        std::to_string(cluster.client_nodes().size()) + " client node(s)");
  }
  auto driver = std::unique_ptr<DapcDriver>(
      new DapcDriver(cluster, mode, config));
  driver->alive_token_ = std::make_shared<DapcDriver*>(driver.get());
  TC_RETURN_IF_ERROR(driver->setup());
  return driver;
}

Status DapcDriver::setup() {
  PointerTableConfig table_config;
  table_config.entries_per_shard = config_.entries_per_shard;
  table_config.shard_count = cluster_->server_nodes().size();
  table_config.seed = config_.seed;
  TC_ASSIGN_OR_RETURN(table_, DistributedPointerTable::build(table_config));

  initiators_.resize(config_.initiators);
  for (std::size_t i = 0; i < config_.initiators; ++i) {
    initiators_[i].index = i;
    initiators_[i].node = cluster_->client_nodes()[i];
  }
  if (cluster_->metrics() != nullptr) {
    e2e_hist_ = &cluster_->metrics()->histogram(
        std::string("e2e_ns/dapc/") + chase_mode_name(mode_));
  }

  const auto& servers = cluster_->server_nodes();
  switch (mode_) {
    case ChaseMode::kCachedBitcode:
    case ChaseMode::kCachedBinary:
    case ChaseMode::kInterpreted:
    case ChaseMode::kHllBitcode:
    case ChaseMode::kHllDrivesC: {
      ir::CodeRepr repr = ir::CodeRepr::kBitcode;
      if (mode_ == ChaseMode::kCachedBinary) repr = ir::CodeRepr::kObject;
      if (mode_ == ChaseMode::kInterpreted) repr = ir::CodeRepr::kPortable;
      // Window > 1 deploys the *tagged* chaser variant, whose replies
      // carry the routing tag for out-of-order completion.
      const bool tagged = config_.window > 1;
      // Every initiator runtime registers its own copy of the library; the
      // wire identity (content hash) is common, so server-side caching is
      // shared across initiators exactly as with one sender.
      for (const Initiator& init : initiators_) {
        StatusOr<core::IfuncLibrary> library_or =
#if TC_WITH_LLVM
            mode_ == ChaseMode::kHllDrivesC
                ? hll::build_library(ir::KernelKind::kChaser,
                                     /*drive_with_c=*/true, tagged)
                : build_chaser_library(repr, mode_ == ChaseMode::kHllBitcode,
                                       tagged);
#else
            build_chaser_library(repr, mode_ == ChaseMode::kHllBitcode,
                                 tagged);
#endif
        if (!library_or.is_ok()) return library_or.status();
        core::IfuncLibrary library = std::move(library_or).value();
        TC_ASSIGN_OR_RETURN(
            chaser_ifunc_id_,
            cluster_->runtime(init.node).register_ifunc(std::move(library)));
      }
      for (std::size_t i = 0; i < servers.size(); ++i) {
        auto& shard = table_.shard(i);
        cluster_->runtime(servers[i]).set_shard(shard.data(), shard.size());
      }
      if (config_.window > 1 && config_.batch_frames > 1) {
        // Pipelined issue: back-to-back frames from an initiator destined
        // for the same server coalesce into batched wire messages. Each
        // runtime's previous options are restored when this driver is
        // destroyed.
        batch_overridden_ = true;
        core::BatchOptions batch;
        batch.max_frames = config_.batch_frames;
        for (const Initiator& init : initiators_) {
          saved_batch_.push_back(
              cluster_->runtime(init.node).batch_options());
          cluster_->runtime(init.node).set_batch_options(batch);
        }
      }
      break;
    }
    case ChaseMode::kActiveMessage: {
      // Predeployment: the handler is registered on every node, same index.
      TC_ASSIGN_OR_RETURN(am::AmHandlerFn handler, make_chase_am_handler());
      const std::size_t node_count = cluster_->node_count();
      for (fabric::NodeId node = 0; node < node_count; ++node) {
        TC_ASSIGN_OR_RETURN(
            am_handler_index_,
            cluster_->am_runtime(node).register_handler(handler));
      }
      for (std::size_t i = 0; i < servers.size(); ++i) {
        auto& shard = table_.shard(i);
        cluster_->am_runtime(servers[i])
            .set_shard(shard.data(), shard.size());
      }
      break;
    }
    case ChaseMode::kGet: {
      // Expose each shard for one-sided access and record its rkey.
      for (std::size_t i = 0; i < servers.size(); ++i) {
        auto& shard = table_.shard(i);
        TC_ASSIGN_OR_RETURN(
            fabric::MemRegion region,
            cluster_->transport().register_window(
                servers[i], shard.data(),
                shard.size() * sizeof(std::uint64_t)));
        shard_regions_.push_back(region);
      }
      break;
    }
  }
  return Status::ok();
}

StatusOr<DapcResult> DapcDriver::run() {
  // Deterministic workload: the same starts in warmup and timed runs, so the
  // warmup walks exactly the paths whose code/caches the timed run needs.
  // Initiator 0 draws the classic sequence (bit-for-bit with the
  // single-initiator driver); further initiators perturb the stream seed.
  for (Initiator& init : initiators_) {
    Xoshiro256 rng(config_.seed ^ 0x5eedull ^
                   (0x9E3779B97F4A7C15ull * init.index));
    init.starts.clear();
    init.expected.clear();
    for (std::uint64_t i = 0; i < config_.chases; ++i) {
      const std::uint64_t start = rng.below(table_.total_entries());
      init.starts.push_back(start);
      init.expected.push_back(table_.chase_expected(start, config_.depth));
    }
  }

  if (config_.warmup) {
    TC_ASSIGN_OR_RETURN(DapcResult warm, run_batch());
    if (warm.correct != warm.completed) {
      return internal_error("DAPC warmup produced incorrect results");
    }
  }
  return run_batch();
}

void DapcDriver::install_result_handler(Initiator& init) {
  // Route results: record the value, then refill the window. With window
  // == 1 this is the paper's sequential rate measurement; with window > 1
  // replies are tagged so out-of-order completions route to their chase.
  Initiator* state = &init;
  auto on_result = [this, state](ByteSpan data, fabric::NodeId) {
    auto reply_or = decode_chase_reply(data);
    if (!reply_or.is_ok()) {
      state->failed = true;
      return;
    }
    if (config_.window > 1) {
      if (!reply_or->tagged || reply_or->tag >= config_.chases) {
        state->failed = true;
        return;
      }
      on_chase_complete(*state, reply_or->tag, reply_or->value);
    } else {
      if (reply_or->tagged) {
        state->failed = true;
        return;
      }
      on_chase_complete(*state, state->completed, reply_or->value);
    }
  };
  if (mode_ == ChaseMode::kActiveMessage) {
    cluster_->am_runtime(init.node).set_result_handler(on_result);
  } else if (mode_ != ChaseMode::kGet) {
    cluster_->runtime(init.node).set_result_handler(on_result);
  }
}

StatusOr<DapcResult> DapcDriver::run_batch() {
  for (Initiator& init : initiators_) {
    init.values.assign(config_.chases, 0);
    if (e2e_hist_ != nullptr) init.issue_ns.assign(config_.chases, 0);
    init.next_chase = 0;
    init.completed = 0;
    init.failed = false;
    install_result_handler(init);
  }

  const std::uint64_t initial =
      std::min<std::uint64_t>(config_.window, config_.chases);
  fabric::Transport& transport = cluster_->transport();
  const auto t0 = transport.now_ns();
  // next_chase is set *before* issuing so a completion delivered mid-issue
  // (possible on backpressure-driven progress) refills from the right index.
  TC_RETURN_IF_ERROR(cluster_->drive_initiators(
      std::span(cluster_->client_nodes()).first(initiators_.size()),
      [this, initial](std::size_t i) -> Status {
        Initiator& init = initiators_[i];
        init.next_chase = initial;
        for (std::uint64_t c = 0; c < initial; ++c) {
          TC_RETURN_IF_ERROR(issue_chase(init, c));
        }
        return Status::ok();
      },
      [this](std::size_t i) {
        return initiators_[i].completed == config_.chases;
      },
      [this](std::size_t i) { return initiators_[i].failed; }));
  const auto elapsed = transport.now_ns() - t0;

  DapcResult result;
  result.wall_clock = !transport.deterministic();
  result.virtual_ns = elapsed;
  for (const Initiator& init : initiators_) {
    if (init.failed) return internal_error("DAPC chase failed mid-run");
    result.completed += init.completed;
    for (std::uint64_t i = 0; i < config_.chases; ++i) {
      if (init.values[i] == init.expected[i]) ++result.correct;
      result.values.push_back(init.values[i]);
    }
  }
  result.chases_per_second =
      elapsed > 0 ? static_cast<double>(result.completed) * 1e9 /
                        static_cast<double>(elapsed)
                  : 0.0;
  return result;
}

void DapcDriver::on_chase_complete(Initiator& init, std::uint64_t index,
                                   std::uint64_t value) {
  init.values[index] = value;
  if (e2e_hist_ != nullptr && index < init.issue_ns.size()) {
    const std::int64_t delta =
        cluster_->transport().now_ns() - init.issue_ns[index];
    e2e_hist_->record(delta > 0 ? static_cast<std::uint64_t>(delta) : 0);
  }
  ++init.completed;
  if (init.next_chase < config_.chases) {
    Status status = issue_chase(init, init.next_chase++);
    if (!status.is_ok()) init.failed = true;
  }
}

Status DapcDriver::issue_chase(Initiator& init, std::uint64_t index) {
  if (e2e_hist_ != nullptr && index < init.issue_ns.size()) {
    init.issue_ns[index] = cluster_->transport().now_ns();
  }
  const std::uint64_t start = init.starts[index];
  const std::uint64_t owner = table_.owner_of(start);
  const fabric::NodeId dst = cluster_->server_nodes()[owner];
  const ChaseRequest request{start, config_.depth};
  // Pipelined windows carry the chase index as the routing tag; the
  // classic window keeps the paper's 16-byte payload byte-for-byte. Tags
  // are initiator-local: each initiator's replies return to its own node.
  auto payload = [&] {
    return config_.window > 1 ? encode_tagged_chase_payload(request, index)
                              : encode_chase_payload(request);
  };

  switch (mode_) {
    case ChaseMode::kCachedBitcode:
    case ChaseMode::kCachedBinary:
    case ChaseMode::kInterpreted:
    case ChaseMode::kHllBitcode:
    case ChaseMode::kHllDrivesC:
      return cluster_->runtime(init.node).send_ifunc(dst, chaser_ifunc_id_,
                                                     as_span(payload()));
    case ChaseMode::kActiveMessage:
      return cluster_->am_runtime(init.node)
          .send(dst, am_handler_index_, as_span(payload()));
    case ChaseMode::kGet:
      return issue_get_step(init, index, start, config_.depth);
  }
  return internal_error("unreachable");
}

Status DapcDriver::issue_get_step(Initiator& init, std::uint64_t chase_index,
                                  std::uint64_t address,
                                  std::uint64_t depth_left) {
  // GBPC: the client walks the chain itself, one RDMA GET per step (paper
  // §IV-D) — simpler code, but every hop is a full client round trip. With
  // window > 1 several of these walks run concurrently; each carries its
  // chase index down the callback chain.
  const std::uint64_t owner = table_.owner_of(address);
  const std::uint64_t slot = table_.slot_of(address);
  const fabric::NodeId server = cluster_->server_nodes()[owner];
  fabric::RemoteAddr remote{server, shard_regions_[owner].rkey,
                            slot * sizeof(std::uint64_t)};

  // Stale completions (stashed in the transport or queued as sim events
  // past a mid-run failure) must not dispatch into a destroyed driver:
  // resolve the initiator through the weak liveness token, by index.
  const std::size_t init_index = init.index;
  cluster_->transport().post_get(
      init.node, remote, sizeof(std::uint64_t),
      [alive = std::weak_ptr<DapcDriver*>(alive_token_), init_index,
       chase_index, depth_left](StatusOr<Bytes> data) {
        auto token = alive.lock();
        if (!token) return;
        DapcDriver& self = **token;
        Initiator& state = self.initiators_[init_index];
        if (!data.is_ok() || data->size() != sizeof(std::uint64_t)) {
          state.failed = true;
          return;
        }
        std::uint64_t value = 0;
        std::memcpy(&value, data->data(), sizeof(value));
        if (depth_left == 1) {
          self.on_chase_complete(state, chase_index, value);
          return;
        }
        if (!self.issue_get_step(state, chase_index, value, depth_left - 1)
                 .is_ok()) {
          state.failed = true;
        }
      });
  return Status::ok();
}

}  // namespace tc::xrdma
