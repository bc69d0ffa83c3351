#include "obs/collect.hpp"

#include <string>

#include "fabric/shm_transport.hpp"
#include "fabric/socket_transport.hpp"

namespace tc::obs {

namespace {

void collect_worker(const std::string& prefix, const fabric::Worker::Stats& w,
                    MetricsRegistry& registry) {
  registry.counter(prefix + "ams_delivered").set(w.ams_delivered);
  registry.counter(prefix + "messages_delivered").set(w.messages_delivered);
  registry.counter(prefix + "am_dispatch_misses").set(w.am_dispatch_misses);
}

std::string node_prefix(fabric::NodeId node) {
  return "node" + std::to_string(node) + ".";
}

void collect_runtime(const std::string& prefix, const core::Runtime& runtime,
                     MetricsRegistry& registry) {
  const core::Runtime::Stats& s = runtime.stats();
  const auto set = [&](const char* name, const auto& atomic_value) {
    registry.counter(prefix + name)
        .set(static_cast<std::uint64_t>(
            atomic_value.load(std::memory_order_relaxed)));
  };
  set("runtime.frames_sent_full", s.frames_sent_full);
  set("runtime.frames_sent_truncated", s.frames_sent_truncated);
  set("runtime.code_bytes_sent", s.code_bytes_sent);
  set("runtime.code_bytes_saved", s.code_bytes_saved);
  set("runtime.frames_received", s.frames_received);
  set("runtime.frames_executed", s.frames_executed);
  set("runtime.auto_registered", s.auto_registered);
  set("runtime.jit_compiles", s.jit_compiles);
  set("runtime.object_links", s.object_links);
  set("runtime.forwards", s.forwards);
  set("runtime.injects", s.injects);
  set("runtime.replies_sent", s.replies_sent);
  set("runtime.results_received", s.results_received);
  set("runtime.protocol_errors", s.protocol_errors);
  set("runtime.remote_writes", s.remote_writes);
  set("runtime.nacks_sent", s.nacks_sent);
  set("runtime.nacks_received", s.nacks_received);
  set("runtime.batches_sent", s.batches_sent);
  set("runtime.frames_coalesced", s.frames_coalesced);
  set("runtime.batch_full_flushes", s.batch_full_flushes);
  set("runtime.batch_deadline_flushes", s.batch_deadline_flushes);
  set("runtime.batches_received", s.batches_received);
  set("runtime.cache_evictions", s.cache_evictions);
  set("runtime.portable_loads", s.portable_loads);
  set("runtime.interp_executions", s.interp_executions);
  set("runtime.interp_instrs", s.interp_instrs);
  set("runtime.tier_promotions", s.tier_promotions);
  set("runtime.promotions_failed", s.promotions_failed);
  set("runtime.forward_send_failures", s.forward_send_failures);
  set("runtime.send_retries", s.send_retries);
  set("runtime.send_retries_exhausted", s.send_retries_exhausted);
  set("runtime.real_jit_ns_total", s.real_jit_ns_total);
  set("cache.hits", s.cache_hits);
  set("cache.total_compile_ns", s.cache_compile_ns);
}

void collect_am(const std::string& prefix, const am::AmRuntime& am,
                MetricsRegistry& registry) {
  const am::AmRuntime::Stats& s = am.stats();
  registry.counter(prefix + "am.sent").set(s.sent);
  registry.counter(prefix + "am.executed").set(s.executed);
  registry.counter(prefix + "am.replies").set(s.replies);
  registry.counter(prefix + "am.results_received").set(s.results_received);
  registry.counter(prefix + "am.errors").set(s.errors);
}

}  // namespace

void collect_cluster_metrics(hetsim::Cluster& cluster,
                             MetricsRegistry& registry) {
  for (fabric::NodeId node = 0; node < cluster.node_count(); ++node) {
    const std::string prefix = node_prefix(node);
    collect_runtime(prefix, cluster.runtime(node), registry);
    collect_am(prefix, cluster.am_runtime(node), registry);
  }

  if (cluster.backend() == hetsim::Backend::kSim) {
    const fabric::Fabric::Stats& s = cluster.fabric().stats();
    registry.counter("fabric.events").set(s.events);
    registry.counter("fabric.puts").set(s.puts);
    registry.counter("fabric.gets").set(s.gets);
    registry.counter("fabric.ams").set(s.ams);
    registry.counter("fabric.sends").set(s.sends);
    registry.counter("fabric.bytes_on_wire").set(s.bytes_on_wire);
    for (fabric::NodeId node = 0; node < cluster.node_count(); ++node) {
      collect_worker(node_prefix(node) + "worker.",
                     cluster.fabric().node(node).worker.stats(), registry);
    }
    return;
  }
  // Under fault injection transport() is the shim; the counters live on
  // the backend it decorates.
  fabric::Transport* backend = &cluster.transport();
  if (fabric::FaultyTransport* shim = cluster.fault_shim()) {
    backend = &shim->inner();
  }
  auto* core = dynamic_cast<fabric::WallClockTransport*>(backend);
  if (core == nullptr) return;
  if (auto* shm = dynamic_cast<fabric::ShmTransport*>(core)) {
    const fabric::ShmTransport::Stats s = shm->stats();
    registry.counter("shm.ops_pushed").set(s.ops_pushed);
    registry.counter("shm.ops_drained").set(s.ops_drained);
    registry.counter("shm.producer_stalls").set(s.producer_stalls);
    registry.counter("shm.ops_dropped").set(s.ops_dropped);
    registry.counter("shm.backpressure_failures").set(s.backpressure_failures);
  } else if (auto* socket = dynamic_cast<fabric::SocketTransport*>(core)) {
    const fabric::SocketTransport::Stats s = socket->stats();
    registry.counter("socket.frames_sent").set(s.frames_sent);
    registry.counter("socket.frames_received").set(s.frames_received);
    registry.counter("socket.bytes_sent").set(s.bytes_sent);
    registry.counter("socket.bytes_received").set(s.bytes_received);
    registry.counter("socket.writes").set(s.writes);
    registry.counter("socket.partial_writes").set(s.partial_writes);
    registry.counter("socket.backpressure_rejects")
        .set(s.backpressure_rejects);
    registry.counter("socket.control_overflows").set(s.control_overflows);
    registry.counter("socket.disconnects").set(s.disconnects);
    registry.counter("socket.rx_partial_discards").set(s.rx_partial_discards);
  }
  for (fabric::NodeId node = 0; node < cluster.node_count(); ++node) {
    collect_worker(node_prefix(node) + "worker.", core->worker_stats(node),
                   registry);
  }
}

void collect_tracer_gauges(const Tracer& tracer, MetricsRegistry& registry) {
  for (std::uint32_t node = 0; node < tracer.node_count(); ++node) {
    const std::string prefix = node_prefix(node) + "trace_ring.";
    registry.gauge(prefix + "occupancy")
        .set(static_cast<std::int64_t>(tracer.ring(node).size()));
    registry.gauge(prefix + "dropped")
        .set(static_cast<std::int64_t>(tracer.ring(node).dropped()));
  }
}

}  // namespace tc::obs
