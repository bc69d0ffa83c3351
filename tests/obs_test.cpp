// Tests for the observability layer: the bounded trace ring's
// oldest-dropped overflow accounting, the log2 histogram's bucket
// boundaries, the v3 trace-context frame round trip (header-level and
// through a live cluster on both transport backends), the exporters'
// emit/parse-back loop, and the cluster counter dump, fault shim included.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "core/frame.hpp"
#include "core/ifunc.hpp"
#include "core/runtime.hpp"
#include "hetsim/cluster.hpp"
#include "obs/collect.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads/workload_engine.hpp"

namespace tc::obs {
namespace {

/// The value of counter `name` in `snap`, if it was exported.
std::optional<std::uint64_t> counter_value(
    const MetricsRegistry::Snapshot& snap, const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return std::nullopt;
}

/// Runs `count` portable hash-probe lookups on lane 0 of `cluster`.
void run_probes(hetsim::Cluster& cluster, std::size_t count) {
  workloads::WorkloadConfig config;
  config.workload = workloads::Workload::kHashProbe;
  config.mode = workloads::WorkloadMode::kPortable;
  config.buckets_per_shard = 32;
  auto engine = workloads::WorkloadEngine::create(cluster, config);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  auto result = (*engine)->run_lookups((*engine)->sample_queries(0, count));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->completed, count);
}

TraceEvent make_event(std::uint64_t trace_id, std::uint32_t span_id,
                      std::int64_t ts_ns) {
  TraceEvent event;
  event.trace_id = trace_id;
  event.span_id = span_id;
  event.ts_ns = ts_ns;
  return event;
}

// --- TraceRing ---------------------------------------------------------------

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(0).capacity(), 2u);
  EXPECT_EQ(TraceRing(1).capacity(), 2u);
  EXPECT_EQ(TraceRing(2).capacity(), 2u);
  EXPECT_EQ(TraceRing(3).capacity(), 4u);
  EXPECT_EQ(TraceRing(100).capacity(), 128u);
}

TEST(TraceRingTest, DrainReturnsEventsOldestFirst) {
  TraceRing ring(8);
  for (std::uint32_t i = 0; i < 5; ++i) {
    ring.push(make_event(1, i, 10 * i));
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.drain();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].span_id, i);
  }
  EXPECT_EQ(ring.size(), 0u);  // drain resets the ring
}

TEST(TraceRingTest, OverflowDropsOldestAndCountsExactly) {
  TraceRing ring(4);
  ASSERT_EQ(ring.capacity(), 4u);
  // 11 pushes into 4 slots: the first 7 must be dropped, oldest first,
  // leaving exactly the most recent window {7, 8, 9, 10}.
  for (std::uint32_t i = 0; i < 11; ++i) {
    ring.push(make_event(1, i, i));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 7u);
  const auto events = ring.drain();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].span_id, 7 + i);
  }
  // The dropped total persists across the drain (it is a run-level stat).
  EXPECT_EQ(ring.dropped(), 7u);
}

TEST(TracerTest, MergesRingsSortedByTimestamp) {
  Tracer tracer(/*node_count=*/3, /*ring_capacity=*/16);
  tracer.ring(0).push(make_event(1, 3, 300));
  tracer.ring(1).push(make_event(1, 1, 100));
  tracer.ring(2).push(make_event(1, 2, 200));
  // Same timestamp on two nodes: span id breaks the tie deterministically.
  tracer.ring(0).push(make_event(2, 5, 400));
  tracer.ring(1).push(make_event(2, 4, 400));
  const auto events = tracer.drain_all();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_LE(events[i].ts_ns, events[i + 1].ts_ns);
  }
  EXPECT_EQ(events[3].span_id, 4u);
  EXPECT_EQ(events[4].span_id, 5u);
}

TEST(TracerTest, IdAllocatorsStartNonZero) {
  Tracer tracer(1);
  EXPECT_NE(tracer.next_trace_id(), 0u);  // 0 is the untraced sentinel
  EXPECT_NE(tracer.next_span_id(), 0u);
}

// --- Histogram ---------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // bucket 0 = {0}, bucket 1 = {1}, bucket 2 = {2,3}, bucket 3 = {4..7}:
  // each boundary value must land exactly at a bucket edge.
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(7), 3u);
  EXPECT_EQ(Histogram::bucket_index(8), 4u);
  EXPECT_EQ(Histogram::bucket_index(1023), 10u);
  EXPECT_EQ(Histogram::bucket_index(1024), 11u);
  EXPECT_EQ(Histogram::bucket_index(~0ull), 64u);

  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper_bound(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper_bound(10), 1023u);
  EXPECT_EQ(Histogram::bucket_upper_bound(64), ~0ull);

  // Every bucket's recorded value is <= its upper bound and > the previous
  // bucket's upper bound (the binning is exhaustive and non-overlapping).
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 1023ull, 1024ull,
                          (1ull << 40), ~0ull}) {
    const std::size_t b = Histogram::bucket_index(v);
    EXPECT_LE(v, Histogram::bucket_upper_bound(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, Histogram::bucket_upper_bound(b - 1)) << v;
    }
  }
}

TEST(HistogramTest, RecordCountsAndQuantiles) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.record(100);    // bucket 7 (64..127)
  for (int i = 0; i < 49; ++i) h.record(1000);   // bucket 10 (512..1023)
  h.record(100000);                              // bucket 17
  EXPECT_EQ(h.total_count(), 100u);
  EXPECT_EQ(h.bucket_count(7), 50u);
  EXPECT_EQ(h.bucket_count(10), 49u);
  EXPECT_EQ(h.bucket_count(17), 1u);
  EXPECT_EQ(h.sum(), 50u * 100 + 49u * 1000 + 100000);
  EXPECT_EQ(h.quantile_bound(0.5), 127u);    // the median is in bucket 7
  EXPECT_EQ(h.quantile_bound(0.99), 1023u);  // p99 in bucket 10
  EXPECT_EQ(h.quantile_bound(1.0), 131071u);  // the max lands in bucket 17
}

TEST(MetricsRegistryTest, StableInstrumentsAndSortedSnapshot) {
  MetricsRegistry registry;
  Counter& c = registry.counter("b.count");
  c.increment();
  c.add(4);
  EXPECT_EQ(&registry.counter("b.count"), &c);  // same name, same instrument
  registry.gauge("a.depth").set(-3);
  registry.histogram("c.lat").record(5);

  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "b.count");
  EXPECT_EQ(snap.counters[0].value, 5u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, -3);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].sum, 5u);
}

// --- cluster stats collection ------------------------------------------------

TEST(CollectTest, RuntimeInterpreterCountersMirrorStats) {
  // Portable ifuncs on a sim cluster: collect mirrors the server's
  // interpreter counters, and the executed-instruction count is the only
  // interpreter work counter it exports.
  hetsim::ClusterConfig config;
  config.server_count = 1;
  auto cluster = hetsim::Cluster::create(config);
  ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
  core::Runtime& client = (*cluster)->client_runtime();
  auto lib = core::IfuncLibrary::from_portable_kernel(
      ir::KernelKind::kTargetSideIncrement);
  ASSERT_TRUE(lib.is_ok()) << lib.status().to_string();
  auto id = client.register_ifunc(std::move(*lib));
  ASSERT_TRUE(id.is_ok());
  const fabric::NodeId server = (*cluster)->server_nodes().front();
  core::Runtime& server_rt = (*cluster)->runtime(server);
  std::uint64_t counter = 0;
  server_rt.set_target_ptr(&counter);

  const Bytes payload{0};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.send_ifunc(server, *id, as_span(payload)).is_ok());
  }
  ASSERT_TRUE((*cluster)
                  ->drive_until((*cluster)->client_node(),
                                [&] { return counter == 3; })
                  .is_ok());
  (*cluster)->settle();

  MetricsRegistry metrics;
  collect_cluster_metrics(**cluster, metrics);
  const auto snap = metrics.snapshot();
  auto value_of = [&](const std::string& name) {
    return counter_value(snap, name);
  };
  const std::string prefix = "node" + std::to_string(server) + ".runtime.";
  ASSERT_TRUE(value_of(prefix + "interp_executions").has_value());
  EXPECT_EQ(*value_of(prefix + "interp_executions"), 3u);
  ASSERT_TRUE(value_of(prefix + "interp_instrs").has_value());
  EXPECT_GT(*value_of(prefix + "interp_instrs"), 0u);
  EXPECT_EQ(*value_of(prefix + "interp_instrs"),
            server_rt.stats().interp_instrs.load());
  // Every invocation ran the same program, so the count splits evenly.
  EXPECT_EQ(*value_of(prefix + "interp_instrs") % 3, 0u);
  for (const auto& c : snap.counters) {
    EXPECT_EQ(c.name.find("interp_ops"), std::string::npos) << c.name;
  }
  // The node's registry is its code cache: the program was decoded once
  // and found materialized by the other two frames. Misses were never
  // counted, and evictions are runtime.cache_evictions.
  const std::string cache = "node" + std::to_string(server) + ".cache.";
  ASSERT_TRUE(value_of(cache + "hits").has_value());
  EXPECT_EQ(*value_of(cache + "hits"), 2u);
  ASSERT_TRUE(value_of(cache + "total_compile_ns").has_value());
  EXPECT_GT(*value_of(cache + "total_compile_ns"), 0u);
  EXPECT_FALSE(value_of(cache + "misses").has_value());
  EXPECT_FALSE(value_of(cache + "evictions").has_value());
}

TEST(CollectTest, RetryCountersMirrorStatsUnderFaults) {
  // A lossy sim cluster with a retry budget: the run recovers, and the
  // dump carries every node's retry and promotion-failure counters.
  hetsim::ClusterConfig config;
  config.server_count = 4;
  config.faults.rates.drop = 0.1;
  config.max_send_retries = 10;
  auto cluster = hetsim::Cluster::create(config);
  ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
  run_probes(**cluster, 32);
  if (HasFatalFailure()) return;

  MetricsRegistry metrics;
  collect_cluster_metrics(**cluster, metrics);
  const auto snap = metrics.snapshot();
  std::uint64_t retries = 0;
  for (fabric::NodeId node = 0; node < (*cluster)->node_count(); ++node) {
    const core::Runtime::Stats& stats = (*cluster)->runtime(node).stats();
    const std::string prefix = "node" + std::to_string(node) + ".runtime.";
    const std::pair<const char*, std::uint64_t> expected[] = {
        {"promotions_failed", stats.promotions_failed.load()},
        {"send_retries", stats.send_retries.load()},
        {"send_retries_exhausted", stats.send_retries_exhausted.load()},
    };
    for (const auto& [name, value] : expected) {
      const auto exported = counter_value(snap, prefix + name);
      ASSERT_TRUE(exported.has_value()) << prefix << name;
      EXPECT_EQ(*exported, value) << prefix << name;
    }
    retries += stats.send_retries.load();
  }
  EXPECT_GT(retries, 0u);
}

TEST(CollectTest, WallClockCountersSeeThroughTheFaultShim) {
  // Faults enabled on shm: transport() is the shim, yet the ring and
  // worker counters of the backend beneath it are still exported.
  hetsim::ClusterConfig config;
  config.backend = hetsim::Backend::kShm;
  config.server_count = 2;
  config.faults.rates.delay = 0.05;  // enables the shim, loses nothing
  auto cluster = hetsim::Cluster::create(config);
  ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
  ASSERT_NE((*cluster)->fault_shim(), nullptr);
  run_probes(**cluster, 8);
  if (HasFatalFailure()) return;

  MetricsRegistry metrics;
  collect_cluster_metrics(**cluster, metrics);
  const auto snap = metrics.snapshot();
  const auto pushed = counter_value(snap, "shm.ops_pushed");
  ASSERT_TRUE(pushed.has_value());
  EXPECT_GT(*pushed, 0u);
  EXPECT_TRUE(
      counter_value(snap, "node0.worker.messages_delivered").has_value());
}

TEST(CollectTest, SocketWriteCountersAreExported) {
  // On socket, the dump counts write syscalls next to frames: a write may
  // carry several frames, never fewer than one.
  hetsim::ClusterConfig config;
  config.backend = hetsim::Backend::kSocket;
  config.server_count = 2;
  auto cluster = hetsim::Cluster::create(config);
  ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
  run_probes(**cluster, 8);
  if (HasFatalFailure()) return;

  MetricsRegistry metrics;
  collect_cluster_metrics(**cluster, metrics);
  const auto snap = metrics.snapshot();
  const auto writes = counter_value(snap, "socket.writes");
  const auto frames = counter_value(snap, "socket.frames_sent");
  ASSERT_TRUE(writes.has_value());
  ASSERT_TRUE(frames.has_value());
  EXPECT_GT(*writes, 0u);
  EXPECT_LE(*writes, *frames);
  const auto overflows = counter_value(snap, "socket.control_overflows");
  ASSERT_TRUE(overflows.has_value());
  EXPECT_EQ(*overflows, 0u);
}

// --- trace-context frame round trip (header level) ---------------------------

TEST(TraceFrameTest, TracedFrameRoundTripsContext) {
  const Bytes code(64, 0xAB);
  const Bytes payload{1, 2, 3, 4};
  const TraceContext trace{0x1122334455667788ull, 7, 42};
  auto frame = core::Frame::build(0xDEADBEEFull, ir::CodeRepr::kPortable,
                                  as_span(code), as_span(payload),
                                  /*origin_node=*/3, /*code_only=*/false,
                                  &trace);
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
  EXPECT_EQ(frame->truncated_size(),
            core::kHeaderSize + core::kTraceExtSize + payload.size() +
                core::kMagicSize);

  // Full and truncated transmissions both decode back the exact context.
  for (ByteSpan view : {frame->full_view(), frame->truncated_view()}) {
    auto header = core::Frame::peek_header(view);
    ASSERT_TRUE(header.is_ok()) << header.status().to_string();
    EXPECT_TRUE(header->traced());
    EXPECT_EQ(header->trace.trace_id, trace.trace_id);
    EXPECT_EQ(header->trace.hop, trace.hop);
    EXPECT_EQ(header->trace.parent_span, trace.parent_span);
    EXPECT_EQ(header->ifunc_id, 0xDEADBEEFull);
    ASSERT_TRUE(core::Frame::validate(view).is_ok());
    const ByteSpan p = core::Frame::payload_view(view, *header);
    ASSERT_EQ(p.size(), payload.size());
    EXPECT_EQ(p[0], 1);
  }
}

TEST(TraceFrameTest, UntracedFrameHasNoExtension) {
  const Bytes code(16, 0xCD);
  const Bytes payload{9};
  auto plain = core::Frame::build(1, ir::CodeRepr::kPortable, as_span(code),
                                  as_span(payload), 0);
  ASSERT_TRUE(plain.is_ok());
  EXPECT_FALSE(plain->header().traced());
  EXPECT_EQ(plain->header().prefix_size(), core::kHeaderSize);

  // An untraced TraceContext pointer attaches nothing either.
  const TraceContext untraced;
  auto same = core::Frame::build(1, ir::CodeRepr::kPortable, as_span(code),
                                 as_span(payload), 0, false, &untraced);
  ASSERT_TRUE(same.is_ok());
  EXPECT_EQ(same->full_size(), plain->full_size());
  EXPECT_EQ(same->bytes(), plain->bytes());
}

TEST(TraceFrameTest, WithTraceShipsTracedCopy) {
  const Bytes code(32, 0xEE);
  const Bytes payload{5, 6};
  auto plain = core::Frame::build(77, ir::CodeRepr::kPortable, as_span(code),
                                  as_span(payload), 2);
  ASSERT_TRUE(plain.is_ok());
  const TraceContext trace{99, 0, 0};
  auto traced = core::Frame::with_trace(*plain, trace);
  ASSERT_TRUE(traced.is_ok()) << traced.status().to_string();
  EXPECT_EQ(traced->full_size(),
            plain->full_size() + core::kTraceExtSize);
  auto header = core::Frame::peek_header(traced->full_view());
  ASSERT_TRUE(header.is_ok());
  EXPECT_EQ(header->trace.trace_id, 99u);
  EXPECT_EQ(header->ifunc_id, 77u);
  // The original is untouched (frames are immutable).
  EXPECT_FALSE(plain->header().traced());
}

TEST(TraceFrameTest, ResultFrameRoundTripsContext) {
  const Bytes data{1, 2, 3, 4, 5, 6, 7, 8};
  const TraceContext trace{0xABCDull, 3, 17};
  const Bytes traced = core::encode_result_frame(4, as_span(data), &trace);
  ASSERT_TRUE(core::is_result_frame(as_span(traced)));
  auto decoded = core::decode_result_frame(as_span(traced));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->origin_node, 4u);
  EXPECT_EQ(decoded->trace.trace_id, trace.trace_id);
  EXPECT_EQ(decoded->trace.hop, trace.hop);
  EXPECT_EQ(decoded->trace.parent_span, trace.parent_span);
  ASSERT_EQ(decoded->data.size(), data.size());

  // The untraced encoding is byte-identical to pre-v3 results.
  const Bytes plain = core::encode_result_frame(4, as_span(data));
  EXPECT_EQ(plain.size(), traced.size() - core::kTraceExtSize);
  auto plain_decoded = core::decode_result_frame(as_span(plain));
  ASSERT_TRUE(plain_decoded.is_ok());
  EXPECT_FALSE(plain_decoded->trace.traced());
}

// --- trace-context round trip across both transports -------------------------

class TracedClusterP : public ::testing::TestWithParam<hetsim::Backend> {};

TEST_P(TracedClusterP, CrossShardProbeRoundTripsTraceContext) {
  Tracer tracer;
  MetricsRegistry metrics;
  hetsim::ClusterConfig cluster_config;
  cluster_config.platform = hetsim::Platform::kThorXeon;
  cluster_config.backend = GetParam();
  cluster_config.server_count = 4;
  cluster_config.client_count = 1;
  cluster_config.tracer = &tracer;
  cluster_config.metrics = &metrics;
  auto cluster = hetsim::Cluster::create(cluster_config);
  ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();

  workloads::WorkloadConfig config;
  config.workload = workloads::Workload::kHashProbe;
  config.mode = workloads::default_workload_mode();
  // Small, highly occupied shards: collision chains regularly run off the
  // shard edge, so the query sample reliably includes cross-shard probes.
  config.buckets_per_shard = 32;
  config.fill_percent = 90;
  auto engine = workloads::WorkloadEngine::create(**cluster, config);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  EXPECT_GT((*engine)->hash_table().cross_shard_fraction(), 0.0);

  const auto queries = (*engine)->sample_queries(0, 32, /*hit_percent=*/70);
  auto result = (*engine)->run_lookups(queries);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->completed, queries.size());

  const auto events = tracer.drain_all();
  ASSERT_FALSE(events.empty());

  // Every query minted one chain: a root send at hop 0 whose context the
  // remote side decoded (arrival), executed under, and closed with a
  // result arrival back at the initiator — so the context survived the
  // wire in both directions.
  std::set<std::uint64_t> roots, arrivals, executes, results;
  std::uint64_t forwards = 0;
  for (const TraceEvent& event : events) {
    EXPECT_NE(event.trace_id, 0u);  // only traced work is recorded
    switch (event.kind) {
      case SpanKind::kRootSend:
        EXPECT_EQ(event.hop, 0u);
        EXPECT_EQ(event.node, 0u);  // the single initiator
        roots.insert(event.trace_id);
        break;
      case SpanKind::kArrival:
        arrivals.insert(event.trace_id);
        break;
      case SpanKind::kExecute:
        executes.insert(event.trace_id);
        break;
      case SpanKind::kResultArrival:
        EXPECT_EQ(event.node, 0u);  // replies land back home
        results.insert(event.trace_id);
        break;
      case SpanKind::kForwardSend:
        ++forwards;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(roots.size(), queries.size());
  EXPECT_EQ(arrivals, roots);
  EXPECT_EQ(executes, roots);
  EXPECT_EQ(results, roots);
  // Small shards guarantee at least one probe self-forwarded cross-shard.
  EXPECT_GT(forwards, 0u);

  // Arrival hop indices mirror what the sending side stamped: for every
  // (trace, hop) arrival there is a send at the same hop.
  std::set<std::pair<std::uint64_t, std::uint32_t>> sends_at, arrivals_at;
  for (const TraceEvent& event : events) {
    if (event.kind == SpanKind::kRootSend ||
        event.kind == SpanKind::kForwardSend) {
      sends_at.insert({event.trace_id, event.hop});
    }
    if (event.kind == SpanKind::kArrival) {
      arrivals_at.insert({event.trace_id, event.hop});
    }
  }
  EXPECT_EQ(sends_at, arrivals_at);

  // The exporter emits loadable JSON that parses back to the same count of
  // span events, with at least one forward flow arrow.
  const std::string json = chrome_trace_json(events);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  const ParsedSummary summary = summarize_chrome_trace(json);
  EXPECT_EQ(summary.traces, roots.size());
  EXPECT_EQ(summary.events, events.size());
  EXPECT_GE(summary.max_hops, 1u);

  // The metrics pipeline saw the same run: per-hop service latencies were
  // recorded, and collect mirrors the runtime counters in.
  collect_cluster_metrics(**cluster, metrics);
  collect_tracer_gauges(tracer, metrics);
  const auto snap = metrics.snapshot();
  bool saw_hop_hist = false, saw_e2e = false;
  for (const auto& h : snap.histograms) {
    if (h.name.rfind("hop_service_ns/", 0) == 0 && h.count > 0) {
      saw_hop_hist = true;
    }
    if (h.name.rfind("e2e_ns/hash_probe/", 0) == 0) {
      EXPECT_EQ(h.count, queries.size());
      saw_e2e = true;
    }
  }
  EXPECT_TRUE(saw_hop_hist);
  EXPECT_TRUE(saw_e2e);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TracedClusterP,
                         ::testing::Values(hetsim::Backend::kSim,
                                           hetsim::Backend::kShm,
                                           hetsim::Backend::kSocket),
                         [](const auto& info) {
                           return std::string(
                               hetsim::backend_name(info.param));
                         });

// Tracing off: the same run attaches nothing — no events, no wire change.
TEST(TracedClusterP, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  hetsim::ClusterConfig cluster_config;
  cluster_config.platform = hetsim::Platform::kThorXeon;
  cluster_config.server_count = 2;
  cluster_config.tracer = &tracer;
  auto cluster = hetsim::Cluster::create(cluster_config);
  ASSERT_TRUE(cluster.is_ok());
  workloads::WorkloadConfig config;
  config.workload = workloads::Workload::kHashProbe;
  config.buckets_per_shard = 32;
  auto engine = workloads::WorkloadEngine::create(**cluster, config);
  ASSERT_TRUE(engine.is_ok());
  const auto queries = (*engine)->sample_queries(0, 8);
  auto result = (*engine)->run_lookups(queries);
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(tracer.drain_all().empty());
  EXPECT_EQ(tracer.total_dropped(), 0u);
}

}  // namespace
}  // namespace tc::obs
