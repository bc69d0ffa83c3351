// Tests for the remote-data-structure workload suite: the sharded
// builders (hash table / ordered index / CSR graph), and the
// WorkloadEngine conformance matrix — every workload run against both
// cluster backends (deterministic sim, real-threads shm) and every
// available code representation (predeployed AM, fat bitcode, AOT
// objects, portable bytecode, HLL bitcode), including windowed lookups,
// cross-shard probe chains, BFS completeness against the single-node
// reference, and multi-initiator determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>

#include "common/bytes.hpp"
#include "workloads/workload_engine.hpp"

namespace tc::workloads {
namespace {

std::unique_ptr<hetsim::Cluster> make_cluster(
    std::size_t servers, hetsim::Backend backend = hetsim::Backend::kSim,
    std::size_t clients = 1) {
  hetsim::ClusterConfig config;
  config.platform = hetsim::Platform::kThorXeon;
  config.backend = backend;
  config.server_count = servers;
  config.client_count = clients;
  auto cluster = hetsim::Cluster::create(config);
  EXPECT_TRUE(cluster.is_ok());
  return std::move(cluster).value();
}

// Deferred ctx_forward sends must never fail in a healthy run: a nonzero
// counter means a cross-shard probe silently went nowhere (the bug class
// is logged-but-lost forwards).
void expect_no_forward_send_failures(hetsim::Cluster& cluster) {
  const std::size_t nodes = cluster.node_count();
  for (fabric::NodeId node = 0; node < nodes; ++node) {
    EXPECT_EQ(cluster.runtime(node).stats().forward_send_failures.load(), 0u)
        << "node " << node;
  }
}

// --- sharded builders --------------------------------------------------------

TEST(ShardedHashTableTest, ReferenceLookupHitsAndMisses) {
  HashTableConfig config;
  config.buckets_per_shard = 64;
  config.shard_count = 4;
  auto table = ShardedHashTable::build(config);
  ASSERT_TRUE(table.is_ok());
  EXPECT_EQ(table->capacity(), 256u);
  EXPECT_EQ(table->keys().size(), 256u * 70 / 100);
  for (std::uint64_t key : table->keys()) {
    EXPECT_NE(table->lookup(key), kMiss);
  }
  // A key not inserted (0 is reserved for empty buckets, 2 is even — keys
  // are generated odd, so it can never be present).
  EXPECT_EQ(table->lookup(2), kMiss);
}

TEST(ShardedHashTableTest, ProbeChainsCrossShards) {
  // At 70% fill with small shards, linear probing inevitably runs off
  // shard ends — the property the workload exists to exercise.
  HashTableConfig config;
  config.buckets_per_shard = 16;
  config.shard_count = 8;
  auto table = ShardedHashTable::build(config);
  ASSERT_TRUE(table.is_ok());
  EXPECT_GT(table->cross_shard_fraction(), 0.0);
}

TEST(ShardedHashTableTest, RejectsDegenerateConfigs) {
  HashTableConfig zero;
  zero.shard_count = 0;
  EXPECT_FALSE(ShardedHashTable::build(zero).is_ok());
  HashTableConfig full;
  full.fill_percent = 100;
  EXPECT_FALSE(ShardedHashTable::build(full).is_ok());
}

TEST(ShardedOrderedIndexTest, KeysSortedAndLookupMatches) {
  OrderedIndexConfig config;
  config.keys_per_shard = 32;
  config.shard_count = 4;
  auto index = ShardedOrderedIndex::build(config);
  ASSERT_TRUE(index.is_ok());
  EXPECT_EQ(index->node_count(), 128u);
  EXPECT_TRUE(std::is_sorted(index->keys().begin(), index->keys().end()));
  for (std::uint64_t key : index->keys()) {
    EXPECT_NE(index->lookup(key), kMiss);
  }
  EXPECT_EQ(index->lookup(2), kMiss);  // keys are generated odd
  // Tower links jump ranks, ranks map to shards: descents cross shards.
  EXPECT_GT(index->cross_shard_fraction(), 0.0);
}

TEST(ShardedCsrGraphTest, ReferenceBfsAndWorklistBound) {
  CsrGraphConfig config;
  config.vertices_per_shard = 32;
  config.shard_count = 4;
  auto graph = ShardedCsrGraph::build(config);
  ASSERT_TRUE(graph.is_ok());
  EXPECT_EQ(graph->total_vertices(), 128u);
  for (std::uint64_t source : {0ull, 17ull, 127ull}) {
    const std::uint64_t count = graph->reachable_count(source);
    EXPECT_GE(count, 1u);
    EXPECT_LE(count, graph->total_vertices());
  }
  for (std::uint64_t s = 0; s < graph->shard_count(); ++s) {
    EXPECT_GE(graph->worklist_bound(s), 1u);
  }
}

// --- the engine conformance matrix: backend x representation -----------------

struct SuiteParam {
  hetsim::Backend backend;
  WorkloadMode mode;
};

std::vector<SuiteParam> suite_params() {
  std::vector<SuiteParam> out;
  for (hetsim::Backend backend :
       {hetsim::Backend::kSim, hetsim::Backend::kShm,
        hetsim::Backend::kSocket}) {
    out.push_back({backend, WorkloadMode::kActiveMessage});
    out.push_back({backend, WorkloadMode::kPortable});
#if TC_WITH_LLVM
    out.push_back({backend, WorkloadMode::kBitcode});
    out.push_back({backend, WorkloadMode::kObject});
    out.push_back({backend, WorkloadMode::kHllBitcode});
#endif
  }
  return out;
}

std::string suite_param_name(
    const ::testing::TestParamInfo<SuiteParam>& info) {
  return std::string(hetsim::backend_name(info.param.backend)) + "_" +
         workload_mode_name(info.param.mode);
}

class WorkloadSuiteP : public ::testing::TestWithParam<SuiteParam> {
 protected:
  std::unique_ptr<WorkloadEngine> make_engine(hetsim::Cluster& cluster,
                                              WorkloadConfig config) {
    config.mode = GetParam().mode;
    auto engine = WorkloadEngine::create(cluster, config);
    EXPECT_TRUE(engine.is_ok()) << engine.status().to_string();
    return std::move(engine).value();
  }
};

TEST_P(WorkloadSuiteP, HashLookupsMatchReference) {
  auto cluster = make_cluster(4, GetParam().backend);
  WorkloadConfig config;
  config.workload = Workload::kHashProbe;
  config.buckets_per_shard = 32;
  auto engine = make_engine(*cluster, config);
  ASSERT_NE(engine, nullptr);
  // Small shards at 70% fill: some probe chains must cross shards, so the
  // matrix exercises the self-forward path in every representation.
  EXPECT_GT(engine->hash_table().cross_shard_fraction(), 0.0);

  const auto queries = engine->sample_queries(0, 24, /*hit_percent=*/70);
  auto result = engine->run_lookups(queries);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->completed, queries.size());
  EXPECT_EQ(result->wall_clock, GetParam().backend != hetsim::Backend::kSim);
  std::uint64_t expected_hits = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint64_t expected = engine->expected_lookup(queries[i]);
    EXPECT_EQ(result->values[i], expected) << "query " << i;
    if (expected != kMiss) ++expected_hits;
  }
  EXPECT_EQ(result->hits, expected_hits);
  EXPECT_GT(result->hits, 0u);
  EXPECT_LT(result->hits, queries.size());  // the stream mixes in misses
  expect_no_forward_send_failures(*cluster);
}

TEST_P(WorkloadSuiteP, OrderedSearchMatchesReference) {
  auto cluster = make_cluster(4, GetParam().backend);
  WorkloadConfig config;
  config.workload = Workload::kOrderedSearch;
  config.keys_per_shard = 32;
  auto engine = make_engine(*cluster, config);
  ASSERT_NE(engine, nullptr);
  EXPECT_GT(engine->ordered_index().cross_shard_fraction(), 0.0);

  const auto queries = engine->sample_queries(0, 24, /*hit_percent=*/70);
  auto result = engine->run_lookups(queries);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->completed, queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(result->values[i], engine->expected_lookup(queries[i]))
        << "query " << i;
  }
  // Boundary keys: the smallest and largest indexed keys both resolve.
  const auto& keys = engine->ordered_index().keys();
  auto edges = engine->run_lookups({keys.front(), keys.back()});
  ASSERT_TRUE(edges.is_ok());
  EXPECT_EQ(edges->values[0], engine->expected_lookup(keys.front()));
  EXPECT_EQ(edges->values[1], engine->expected_lookup(keys.back()));
}

TEST_P(WorkloadSuiteP, BfsVisitsExactlyTheReachableSet) {
  auto cluster = make_cluster(4, GetParam().backend);
  WorkloadConfig config;
  config.workload = Workload::kBfs;
  config.vertices_per_shard = 32;
  config.avg_degree = 3;
  auto engine = make_engine(*cluster, config);
  ASSERT_NE(engine, nullptr);
  for (std::uint64_t source : {0ull, 63ull, 100ull}) {
    auto result = engine->run_bfs(source);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->hits, engine->expected_bfs(source))
        << "source " << source;
    // Per-server counts sum to the total.
    std::uint64_t per_server = 0;
    for (std::size_t s = 0; s < 4; ++s) per_server += engine->bfs_visited(s);
    EXPECT_EQ(per_server, result->hits);
  }
  expect_no_forward_send_failures(*cluster);
}

TEST_P(WorkloadSuiteP, WindowedLookupsMatchSequential) {
  auto cluster_seq = make_cluster(3, GetParam().backend);
  auto cluster_pipe = make_cluster(3, GetParam().backend);
  WorkloadConfig config;
  config.workload = Workload::kHashProbe;
  config.buckets_per_shard = 32;
  config.window = 1;
  auto sequential = make_engine(*cluster_seq, config);
  config.window = 8;
  auto pipelined = make_engine(*cluster_pipe, config);
  ASSERT_NE(sequential, nullptr);
  ASSERT_NE(pipelined, nullptr);
  const auto queries = sequential->sample_queries(0, 32);
  auto a = sequential->run_lookups(queries);
  auto b = pipelined->run_lookups(queries);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  ASSERT_TRUE(b.is_ok()) << b.status().to_string();
  // Replies may complete out of order; tag routing must land each on its
  // own query slot regardless of the window.
  EXPECT_EQ(a->values, b->values);
}

TEST_P(WorkloadSuiteP, RepeatLookupsRideWarmCaches) {
  if (GetParam().mode == WorkloadMode::kActiveMessage) {
    GTEST_SKIP() << "the AM baseline ships no code";
  }
  auto cluster = make_cluster(3, GetParam().backend);
  WorkloadConfig config;
  config.workload = Workload::kOrderedSearch;
  config.keys_per_shard = 16;
  auto engine = make_engine(*cluster, config);
  ASSERT_NE(engine, nullptr);
  const auto queries = engine->sample_queries(0, 8);
  auto cold = engine->run_lookups(queries);
  ASSERT_TRUE(cold.is_ok());
  EXPECT_GT(cold->frames_full, 0u);
  auto warm = engine->run_lookups(queries);
  ASSERT_TRUE(warm.is_ok());
  EXPECT_EQ(warm->frames_full, 0u);  // every edge rides truncated frames
  EXPECT_GT(warm->frames_truncated, 0u);
  EXPECT_EQ(warm->values, cold->values);
}

INSTANTIATE_TEST_SUITE_P(BackendsAndModes, WorkloadSuiteP,
                         ::testing::ValuesIn(suite_params()),
                         suite_param_name);

// --- cross-backend / cross-mode equivalence ----------------------------------

TEST(WorkloadEquivalence, ValuesIdenticalAcrossBackends) {
  for (Workload workload :
       {Workload::kHashProbe, Workload::kOrderedSearch, Workload::kBfs}) {
    std::vector<std::uint64_t> sim_values;
    for (hetsim::Backend backend :
         {hetsim::Backend::kSim, hetsim::Backend::kShm,
          hetsim::Backend::kSocket}) {
      auto cluster = make_cluster(4, backend);
      WorkloadConfig config;
      config.workload = workload;
      config.buckets_per_shard = 32;
      config.keys_per_shard = 24;
      config.vertices_per_shard = 24;
      auto engine = WorkloadEngine::create(*cluster, config);
      ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
      std::vector<std::uint64_t> out;
      if (workload == Workload::kBfs) {
        auto result = (*engine)->run_bfs(5);
        ASSERT_TRUE(result.is_ok()) << result.status().to_string();
        out = result->values;
      } else {
        auto result =
            (*engine)->run_lookups((*engine)->sample_queries(0, 16));
        ASSERT_TRUE(result.is_ok()) << result.status().to_string();
        out = result->values;
      }
      if (backend == hetsim::Backend::kSim) {
        sim_values = out;
      } else {
        EXPECT_EQ(out, sim_values) << workload_name(workload) << " on "
                                   << hetsim::backend_name(backend);
      }
    }
  }
}

TEST(WorkloadEquivalence, ValuesIdenticalAcrossModes) {
  for (Workload workload :
       {Workload::kHashProbe, Workload::kOrderedSearch, Workload::kBfs}) {
    std::vector<std::vector<std::uint64_t>> per_mode;
    std::vector<WorkloadMode> modes = {WorkloadMode::kActiveMessage,
                                       WorkloadMode::kPortable};
#if TC_WITH_LLVM
    modes.push_back(WorkloadMode::kBitcode);
    modes.push_back(WorkloadMode::kObject);
    modes.push_back(WorkloadMode::kHllBitcode);
#endif
    for (WorkloadMode mode : modes) {
      auto cluster = make_cluster(3);
      WorkloadConfig config;
      config.workload = workload;
      config.mode = mode;
      config.buckets_per_shard = 32;
      config.keys_per_shard = 24;
      config.vertices_per_shard = 24;
      auto engine = WorkloadEngine::create(*cluster, config);
      ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
      if (workload == Workload::kBfs) {
        auto result = (*engine)->run_bfs(7);
        ASSERT_TRUE(result.is_ok()) << result.status().to_string();
        per_mode.push_back(result->values);
      } else {
        auto result =
            (*engine)->run_lookups((*engine)->sample_queries(0, 16));
        ASSERT_TRUE(result.is_ok()) << result.status().to_string();
        per_mode.push_back(result->values);
      }
    }
    for (std::size_t i = 1; i < per_mode.size(); ++i) {
      EXPECT_EQ(per_mode[i], per_mode[0])
          << workload_name(workload) << " mode "
          << workload_mode_name(modes[i]);
    }
  }
}

// --- multi-initiator ---------------------------------------------------------

class MultiInitiatorP : public ::testing::TestWithParam<hetsim::Backend> {};

TEST_P(MultiInitiatorP, ConcurrentLanesMatchReference) {
  constexpr std::size_t m = 3;
  auto cluster = make_cluster(4, GetParam(), /*clients=*/m);
  WorkloadConfig config;
  config.workload = Workload::kHashProbe;
  config.lanes = m;
  config.buckets_per_shard = 32;
  auto engine = WorkloadEngine::create(*cluster, config);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  std::vector<std::vector<std::uint64_t>> per_lane;
  for (std::size_t lane = 0; lane < m; ++lane) {
    per_lane.push_back((*engine)->sample_queries(lane, 12));
  }
  auto result = (*engine)->run_lookups_all(per_lane);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->completed, m * 12u);
  std::size_t cursor = 0;
  for (std::size_t lane = 0; lane < m; ++lane) {
    for (std::uint64_t key : per_lane[lane]) {
      EXPECT_EQ(result->values[cursor], (*engine)->expected_lookup(key))
          << "lane " << lane;
      ++cursor;
    }
  }
}

TEST_P(MultiInitiatorP, ConcurrentBfsLanesStayIsolated) {
  constexpr std::size_t m = 3;
  auto cluster = make_cluster(4, GetParam(), /*clients=*/m);
  WorkloadConfig config;
  config.workload = Workload::kBfs;
  config.lanes = m;
  config.vertices_per_shard = 24;
  config.avg_degree = 3;
  auto engine = WorkloadEngine::create(*cluster, config);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  const std::vector<std::uint64_t> sources = {1, 40, 90};
  auto result = (*engine)->run_bfs_all(sources);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  ASSERT_EQ(result->values.size(), m);
  for (std::size_t lane = 0; lane < m; ++lane) {
    // Per-lane bitmaps: concurrent traversals must not share visited
    // state, so each lane's count is exactly its own reachable set.
    EXPECT_EQ(result->values[lane], (*engine)->expected_bfs(sources[lane]))
        << "lane " << lane;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, MultiInitiatorP,
                         ::testing::Values(hetsim::Backend::kSim,
                                           hetsim::Backend::kShm,
                                           hetsim::Backend::kSocket),
                         [](const ::testing::TestParamInfo<hetsim::Backend>&
                               info) {
                           return hetsim::backend_name(info.param);
                         });

// --- hostile AM payloads -----------------------------------------------------
// Wire words the AM kernels use to index server memory. The handlers must
// refuse them — at the payload gate (ordered-search level, BFS lane) or at
// the forward hook (a node on no server) — and keep serving honest requests.

class HostileAmP : public ::testing::TestWithParam<hetsim::Backend> {
 protected:
  /// Sends `words` from the client to server 0's AM handler. The engine
  /// is the only AM user of a fresh cluster, so its handler has index 0 on
  /// every node. The later honest requests to server 0 travel the same
  /// link, so server 0 has handled these first.
  static void send_to_server0(hetsim::Cluster& cluster,
                              std::initializer_list<std::uint64_t> words) {
    ByteWriter w;
    for (std::uint64_t v : words) w.u64(v);
    ASSERT_TRUE(cluster.am_runtime(cluster.client_node())
                    .send(cluster.server_nodes()[0], 0, as_span(w.bytes()))
                    .is_ok());
  }
};

constexpr std::uint64_t kHostileWord = 1ull << 40;

TEST_P(HostileAmP, OrderedSearchRefusesOutOfRangeLevelAndNode) {
  auto cluster = make_cluster(4, GetParam());
  WorkloadConfig config;
  config.workload = Workload::kOrderedSearch;
  config.mode = WorkloadMode::kActiveMessage;
  config.keys_per_shard = 32;
  auto engine = WorkloadEngine::create(*cluster, config);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  // [target][node][level][tag]: a level past the record's fingers, then a
  // node id no server owns.
  send_to_server0(*cluster, {5, 0, kHostileWord, 0});
  send_to_server0(*cluster, {5, kHostileWord, 0, 0});
  cluster->settle();
  const auto queries = (*engine)->sample_queries(0, 16, /*hit_percent=*/70);
  auto result = (*engine)->run_lookups(queries);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(result->values[i], (*engine)->expected_lookup(queries[i]))
        << "query " << i;
  }
}

TEST_P(HostileAmP, BfsRefusesOutOfRangeLane) {
  auto cluster = make_cluster(4, GetParam());
  WorkloadConfig config;
  config.workload = Workload::kBfs;
  config.mode = WorkloadMode::kActiveMessage;
  config.vertices_per_shard = 32;
  config.avg_degree = 3;
  auto engine = WorkloadEngine::create(*cluster, config);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  send_to_server0(*cluster, {1, kHostileWord});  // ack [1][lane]
  cluster->settle();
  auto result = (*engine)->run_bfs(0);  // vertex 0 lives on server 0
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->hits, (*engine)->expected_bfs(0));
}

INSTANTIATE_TEST_SUITE_P(Backends, HostileAmP,
                         ::testing::Values(hetsim::Backend::kSim,
                                           hetsim::Backend::kShm,
                                           hetsim::Backend::kSocket),
                         [](const ::testing::TestParamInfo<hetsim::Backend>&
                               info) {
                           return hetsim::backend_name(info.param);
                         });

TEST(WorkloadDeterminism, SimMultiInitiatorRunsAreBitIdentical) {
  // Two identical multi-initiator runs on the deterministic backend must
  // agree on every value *and* on the virtual completion time.
  auto run_once = [] {
    auto cluster = make_cluster(4, hetsim::Backend::kSim, /*clients=*/2);
    WorkloadConfig config;
    config.workload = Workload::kOrderedSearch;
    config.lanes = 2;
    config.keys_per_shard = 24;
    auto engine = WorkloadEngine::create(*cluster, config);
    EXPECT_TRUE(engine.is_ok());
    std::vector<std::vector<std::uint64_t>> per_lane = {
        (*engine)->sample_queries(0, 10), (*engine)->sample_queries(1, 10)};
    auto result = (*engine)->run_lookups_all(per_lane);
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    return std::pair{result->values, result->elapsed_ns};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// --- API misuse --------------------------------------------------------------

TEST(WorkloadEngineApi, RejectsBadConfigs) {
  auto cluster = make_cluster(2);
  WorkloadConfig too_many_lanes;
  too_many_lanes.lanes = 2;  // cluster has one client node
  EXPECT_EQ(WorkloadEngine::create(*cluster, too_many_lanes).status().code(),
            ErrorCode::kInvalidArgument);
  WorkloadConfig zero_window;
  zero_window.window = 0;
  EXPECT_EQ(WorkloadEngine::create(*cluster, zero_window).status().code(),
            ErrorCode::kInvalidArgument);

  WorkloadConfig lookup_config;
  auto engine = WorkloadEngine::create(*cluster, lookup_config);
  ASSERT_TRUE(engine.is_ok());
  EXPECT_EQ((*engine)->run_bfs(0).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ((*engine)->run_lookups({1}, /*lane=*/3).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ((*engine)->run_lookups({}).status().code(),
            ErrorCode::kInvalidArgument);

  WorkloadConfig bfs_config;
  bfs_config.workload = Workload::kBfs;
  auto cluster2 = make_cluster(2);
  auto bfs_engine = WorkloadEngine::create(*cluster2, bfs_config);
  ASSERT_TRUE(bfs_engine.is_ok());
  EXPECT_EQ((*bfs_engine)->run_lookups({1}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ((*bfs_engine)->run_bfs(1u << 20).status().code(),
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace tc::workloads
