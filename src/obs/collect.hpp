// Cluster-wide stats collection: funnels every legacy counter struct —
// core::Runtime::Stats (including its code-cache counters, exported as
// "cache.hits" and "cache.total_compile_ns"), am::AmRuntime::Stats,
// fabric::Fabric::Stats / ShmTransport::Stats, fabric::Worker::Stats — into
// one MetricsRegistry under stable dotted names ("node3.runtime.forwards",
// "shm.producer_stalls"), so a single snapshot() -> metrics_text/json call
// dumps the whole system. Also mirrors tracer ring occupancy/drop counts as
// gauges.
//
// This is deliberately the only obs/ file that includes core/hetsim: the
// rest of the module stays below core in the dependency order so the
// runtime itself can record spans and metrics.
#pragma once

#include "hetsim/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tc::obs {

/// Snapshots every per-node and per-transport counter in `cluster` into
/// `registry`. Counters are monotone set-to-current (collect is idempotent:
/// calling twice overwrites, it does not double-count). Call post-run.
void collect_cluster_metrics(hetsim::Cluster& cluster,
                             MetricsRegistry& registry);

/// Mirrors per-node trace-ring occupancy and dropped counts as gauges
/// ("nodeN.trace_ring.occupancy" / ".dropped"). Call before draining.
void collect_tracer_gauges(const Tracer& tracer, MetricsRegistry& registry);

}  // namespace tc::obs
