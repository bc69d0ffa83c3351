#include "hetsim/cluster.hpp"

#include <cstdlib>
#include <thread>

#include "common/log.hpp"

namespace tc::hetsim {

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kSim: return "sim";
    case Backend::kShm: return "shm";
    case Backend::kSocket: return "socket";
  }
  return "unknown";
}

core::RuntimeOptions runtime_options_for(const HwProfile& profile) {
  core::RuntimeOptions options;
  options.jit_cost_ns = profile.jit_cost_ns;
  options.link_cost_ns = profile.link_cost_ns;
  options.lookup_exec_cost_ns = profile.ifunc_exec_ns;
  options.hll_guard_cost_ns = profile.hll_guard_ns;
  options.interp_op_ns = profile.interp_op_ns;
  options.portable_load_cost_ns = profile.vm_load_ns;
  options.batch_unpack_cost_ns = profile.batch_unpack_ns;
  return options;
}

am::AmRuntime::Options am_options_for(const HwProfile& profile) {
  am::AmRuntime::Options options;
  options.exec_cost_ns = profile.am_exec_ns;
  return options;
}

Cluster::~Cluster() {
  // The wall-clock progress threads dispatch into the runtimes (delivery
  // notifiers, AM handlers); they must stop before any runtime is freed.
  if (wall_clock_ != nullptr) wall_clock_->stop_progress_threads();
}

Status Cluster::drive_until(fabric::NodeId node,
                            const std::function<bool()>& pred) {
  Status status = transport_->run_until(node, pred);
  if (!status.is_ok()) dump_stuck_state(node, status);
  return status;
}

Status Cluster::drive_initiators(
    std::span<const fabric::NodeId> nodes,
    const std::function<Status(std::size_t)>& start,
    const std::function<bool(std::size_t)>& done,
    const std::function<bool(std::size_t)>& failed) {
  const std::size_t m = nodes.size();
  if (m == 0) return invalid_argument("drive_initiators: no initiators");
  if (backend_ == Backend::kSim || m == 1) {
    for (std::size_t i = 0; i < m; ++i) TC_RETURN_IF_ERROR(start(i));
    return drive_until(nodes.front(), [&done, &failed, m] {
      bool all_done = true;
      for (std::size_t i = 0; i < m; ++i) {
        if (failed(i)) return true;
        all_done = all_done && done(i);
      }
      return all_done;
    });
  }
  std::vector<Status> status(m, Status::ok());
  {
    std::vector<std::jthread> threads;
    threads.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      threads.emplace_back([&, i] {
        status[i] = start(i);
        if (!status[i].is_ok()) return;
        status[i] = drive_until(nodes[i], [&done, &failed, i] {
          return failed(i) || done(i);
        });
      });
    }
  }  // joins every thread
  for (Status& s : status) {
    if (!s.is_ok()) return std::move(s);
  }
  return Status::ok();
}

void Cluster::settle() {
  if (backend_ == Backend::kSim) fabric_.run_until_idle();
}

Cluster::FramesSent Cluster::frames_sent() const {
  FramesSent frames;
  for (const auto& runtime : runtimes_) {
    frames.full += runtime->stats().frames_sent_full;
    frames.truncated += runtime->stats().frames_sent_truncated;
  }
  return frames;
}

void Cluster::dump_stuck_state(fabric::NodeId node, const Status& status) {
  TC_LOG(kError, "hetsim")
      << "drive_until(node " << node
      << ") gave up: " << status.to_string()
      << " — dumping per-node state (a completion was probably lost)";
  for (std::size_t n = 0; n < runtimes_.size(); ++n) {
    const core::Runtime::Stats& s = runtimes_[n]->stats();
    TC_LOG(kError, "hetsim")
        << "  node " << n << ": sent full=" << s.frames_sent_full.load()
        << " trunc=" << s.frames_sent_truncated.load()
        << " recv=" << s.frames_received.load()
        << " exec=" << s.frames_executed.load()
        << " nacks tx/rx=" << s.nacks_sent.load() << "/"
        << s.nacks_received.load()
        << " retries=" << s.send_retries.load()
        << " exhausted=" << s.send_retries_exhausted.load()
        << " fwd_fail=" << s.forward_send_failures.load()
        << " proto_err=" << s.protocol_errors.load()
        << " pending_nack_payloads=" << runtimes_[n]->pending_payload_count();
  }
  if (faulty_ != nullptr) {
    const fabric::FaultyTransport::StatsSnapshot fs = faulty_->stats();
    TC_LOG(kError, "hetsim")
        << "  fault shim: intercepted=" << fs.frames_intercepted
        << " drops=" << fs.drops << " dups=" << fs.duplicates
        << " delays=" << fs.delays << " truncates=" << fs.truncates
        << " rx_discards=" << fs.dup_discards + fs.truncate_discards;
    const std::vector<fabric::InjectionEvent> log = faulty_->injection_log();
    const std::size_t tail = log.size() > 16 ? log.size() - 16 : 0;
    for (std::size_t i = tail; i < log.size(); ++i) {
      const fabric::InjectionEvent& e = log[i];
      TC_LOG(kError, "hetsim")
          << "  injection[" << i << "]: " << fabric::fault_kind_name(e.kind)
          << " src=" << e.src << " dst=" << e.dst << " seq=" << e.seq
          << " size=" << e.size << " at_ns=" << e.at_ns;
    }
  }
}

fabric::Fabric& Cluster::fabric() {
  if (backend_ != Backend::kSim) {
    // Returning the empty fabric_ would surface as an out-of-bounds node
    // access far from the caller; fail here, loudly, in every build type.
    TC_LOG(kError, "hetsim")
        << "Cluster::fabric() called on the '" << backend_name(backend_)
        << "' backend; use transport()";
    std::abort();
  }
  return fabric_;
}

StatusOr<std::unique_ptr<Cluster>> Cluster::create(
    const ClusterConfig& config) {
  if (config.server_count == 0) {
    return invalid_argument("cluster needs at least one server");
  }
  if (config.client_count == 0) {
    return invalid_argument("cluster needs at least one client");
  }
  auto cluster = std::unique_ptr<Cluster>(new Cluster());
  cluster->backend_ = config.backend;
  cluster->profile_ = &profile_for(config.platform);
  const HwProfile& profile = *cluster->profile_;

  const std::size_t node_count = config.client_count + config.server_count;
  if (config.backend == Backend::kSim) {
    cluster->fabric_.set_default_link(profile.link);
    for (std::size_t i = 0; i < config.client_count; ++i) {
      cluster->fabric_.add_node(
          config.client_count == 1 ? "client" : "client" + std::to_string(i));
    }
    for (std::size_t i = 0; i < config.server_count; ++i) {
      cluster->fabric_.add_node("server" + std::to_string(i),
                                profile.server_compute_scale);
    }
    cluster->transport_ = &cluster->fabric_;
  } else if (config.backend == Backend::kShm) {
    fabric::ShmTransportOptions shm_options;
    if (config.shm_run_until_timeout_ms >= 0) {
      shm_options.run_until_timeout_ms = config.shm_run_until_timeout_ms;
    }
    cluster->wall_clock_ =
        std::make_unique<fabric::ShmTransport>(node_count, shm_options);
    cluster->transport_ = cluster->wall_clock_.get();
  } else {
    fabric::SocketTransportOptions socket_options;
    if (config.shm_run_until_timeout_ms >= 0) {
      socket_options.run_until_timeout_ms = config.shm_run_until_timeout_ms;
    }
    auto socket_or = fabric::SocketTransport::create_threaded(
        node_count, socket_options);
    if (!socket_or.is_ok()) return socket_or.status();
    cluster->wall_clock_ = std::move(*socket_or);
    cluster->transport_ = cluster->wall_clock_.get();
  }
  for (std::size_t i = 0; i < config.client_count; ++i) {
    cluster->clients_.push_back(static_cast<fabric::NodeId>(i));
  }
  for (std::size_t i = 0; i < config.server_count; ++i) {
    cluster->servers_.push_back(
        static_cast<fabric::NodeId>(config.client_count + i));
  }

  if (config.faults.enabled()) {
    // Chaos mode: the shim decorates whichever backend was just built, and
    // every runtime attaches through it so all frame traffic crosses the
    // lossy layer.
    cluster->faulty_ = std::make_unique<fabric::FaultyTransport>(
        *cluster->transport_, config.faults, config.tracer, config.metrics);
    cluster->transport_ = cluster->faulty_.get();
  }

  core::RuntimeOptions runtime_options = runtime_options_for(profile);
  runtime_options.max_send_retries = config.max_send_retries;
  am::AmRuntime::Options am_options = am_options_for(profile);
  // Clusters host the DAPC-class workloads: per-hop request processing on
  // the servers is heavier than the bare TSI ping (see HwProfile).
  runtime_options.lookup_exec_cost_ns =
      profile.ifunc_exec_ns + profile.dapc_ifunc_hop_ns;
  am_options.exec_cost_ns = profile.am_exec_ns + profile.dapc_am_hop_ns;

  if (config.tracer != nullptr) {
    config.tracer->ensure_nodes(node_count);
    runtime_options.tracer = config.tracer;
  }
  runtime_options.metrics = config.metrics;
  cluster->tracer_ = config.tracer;
  cluster->metrics_ = config.metrics;

  for (fabric::NodeId node = 0; node < node_count; ++node) {
    auto runtime_or =
        core::Runtime::create(*cluster->transport_, node, runtime_options);
    if (!runtime_or.is_ok()) return runtime_or.status();
    (*runtime_or)->set_peers(cluster->servers_);
    cluster->runtimes_.push_back(std::move(*runtime_or));
    auto am_or = am::AmRuntime::create(*cluster->transport_, node, am_options);
    if (!am_or.is_ok()) return am_or.status();
    (*am_or)->set_peers(cluster->servers_);
    cluster->am_runtimes_.push_back(std::move(*am_or));
  }

  if (cluster->wall_clock_ != nullptr) {
    // Servers run the paper's daemon-thread model for real; initiator
    // nodes are driven by drive_initiators.
    cluster->wall_clock_->start_progress_threads(cluster->servers_);
  }
  return cluster;
}

}  // namespace tc::hetsim
