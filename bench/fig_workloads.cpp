// Remote data-structure workload sweep (beyond the paper): warm throughput
// of the three workload-suite scenarios — hash-probe, ordered-search, and
// BFS frontier expansion — versus server count and versus concurrent
// initiators, on both transport backends and in every code representation
// the traversal travels as (predeployed Active Message, fat bitcode, AOT
// objects, portable bytecode, HLL-frontend bitcode).
//
//  * sim — calibrated Thor-Xeon virtual time; deterministic, so one run
//    per point is the exact answer.
//  * shm — real progress threads, wall-clock on this host; each point is
//    the median of three repetitions after a full warmup round (the same
//    methodology as fig_mt_scale / fig_collectives).
//
// Units: lookups/second for hash-probe and ordered-search (window 8
// pipelined per initiator), visited vertices/second for BFS. Every
// measured run is warm: the first untimed round ships the kernel along
// every edge; the timed rounds ride truncated frames and warm caches.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/collect.hpp"
#include "obs/export.hpp"
#include "workloads/workload_engine.hpp"

using namespace tc;

namespace {

/// --faults <rate>: total per-link fault probability (0 disables, the
/// default). The rate is split across kinds in the chaos-harness
/// proportions (drop 40% / duplicate 30% / delay 20% / truncate 10%) and
/// runtimes retry failed sends, so the sweep measures how throughput
/// degrades under loss instead of whether the run survives it. Zero leaves
/// every configuration — and all JSON output — byte-identical to a build
/// without this knob.
double g_fault_rate = 0.0;

struct ModeList {
  std::vector<workloads::WorkloadMode> modes = {
      workloads::WorkloadMode::kActiveMessage,
      workloads::WorkloadMode::kPortable,
#if TC_WITH_LLVM
      workloads::WorkloadMode::kBitcode,
      workloads::WorkloadMode::kObject,
      workloads::WorkloadMode::kHllBitcode,
#endif
  };
  ModeList() {
    if (g_fault_rate > 0) {
      // Predeployed Active Messages have no NACK/retry machinery — under
      // injected loss they cannot recover by design, so the faulted sweep
      // covers the self-forwarding representations only.
      std::erase(modes, workloads::WorkloadMode::kActiveMessage);
    }
  }
};

constexpr workloads::Workload kWorkloads[] = {
    workloads::Workload::kHashProbe,
    workloads::Workload::kOrderedSearch,
    workloads::Workload::kBfs,
};

std::string series_label(workloads::Workload workload,
                         workloads::WorkloadMode mode) {
  return std::string(workloads::workload_name(workload)) + "_" +
         workloads::workload_mode_name(mode);
}

/// One warm measurement on an engine: lookups (lanes concurrent query
/// streams) or BFS (lanes concurrent sources). Returns ops/second,
/// following the shared warm / median-of-3 discipline of measure_warm().
StatusOr<double> measure(workloads::WorkloadEngine& engine,
                         std::size_t lanes, std::size_t queries,
                         bool wall_clock) {
  auto run_once = [&]() -> StatusOr<double> {
    if (engine.workload() == workloads::Workload::kBfs) {
      std::vector<std::uint64_t> sources;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        sources.push_back((1 + 37 * lane) % engine.universe());
      }
      TC_ASSIGN_OR_RETURN(workloads::WorkloadResult result,
                          engine.run_bfs_all(sources));
      return result.ops_per_second;
    }
    std::vector<std::vector<std::uint64_t>> per_lane;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      per_lane.push_back(engine.sample_queries(lane, queries));
    }
    TC_ASSIGN_OR_RETURN(workloads::WorkloadResult result,
                        engine.run_lookups_all(per_lane));
    return result.ops_per_second;
  };
  return bench::measure_warm(run_once, wall_clock);
}

StatusOr<double> run_point(hetsim::Backend backend, std::size_t servers,
                           std::size_t lanes, workloads::Workload workload,
                           workloads::WorkloadMode mode,
                           std::size_t queries) {
  hetsim::ClusterConfig cluster_config;
  cluster_config.platform = hetsim::Platform::kThorXeon;
  cluster_config.backend = backend;
  cluster_config.server_count = servers;
  cluster_config.client_count = lanes;
  if (g_fault_rate > 0) {
    cluster_config.faults.rates.drop = 0.4 * g_fault_rate;
    cluster_config.faults.rates.duplicate = 0.3 * g_fault_rate;
    cluster_config.faults.rates.delay = 0.2 * g_fault_rate;
    cluster_config.faults.rates.truncate = 0.1 * g_fault_rate;
    cluster_config.max_send_retries = 10;
    cluster_config.shm_run_until_timeout_ms = 20'000;
  }
  TC_ASSIGN_OR_RETURN(auto cluster, hetsim::Cluster::create(cluster_config));
  workloads::WorkloadConfig config;
  config.workload = workload;
  config.mode = mode;
  config.lanes = lanes;
  config.window = 8;
  TC_ASSIGN_OR_RETURN(auto engine,
                      workloads::WorkloadEngine::create(*cluster, config));
  return measure(*engine, lanes, queries,
                 backend != hetsim::Backend::kSim);
}

void sweep(const std::string& json, hetsim::Backend backend,
           const char* bench_suffix, const char* x_label,
           const std::vector<std::size_t>& xs, bool x_is_lanes,
           std::size_t queries) {
  const ModeList ml;
  std::vector<bench::LabeledSeries> all;
  for (workloads::Workload workload : kWorkloads) {
    for (workloads::WorkloadMode mode : ml.modes) {
      all.push_back({series_label(workload, mode), {}});
    }
  }
  for (std::size_t x : xs) {
    const std::size_t servers = x_is_lanes ? 4 : x;
    const std::size_t lanes = x_is_lanes ? x : 1;
    std::size_t index = 0;
    for (workloads::Workload workload : kWorkloads) {
      for (workloads::WorkloadMode mode : ml.modes) {
        auto rate = run_point(backend, servers, lanes, workload, mode,
                              queries);
        if (rate.is_ok()) {
          all[index].points.push_back({x, *rate});
        } else {
          std::fprintf(stderr, "%s %s=%zu failed: %s\n",
                       all[index].label.c_str(), x_label, x,
                       rate.status().to_string().c_str());
        }
        ++index;
      }
    }
  }
  std::string title =
      std::string("\nWorkload throughput vs ") + x_label + " (" +
      hetsim::backend_name(backend) + " backend, " +
      (backend == hetsim::Backend::kSim
           ? "calibrated Thor-Xeon virtual time"
           : "wall-clock on this host") +
      "; ops/s = lookups/s, BFS: visited vertices/s):";
  if (g_fault_rate > 0) {
    title += "\n  [fault injection: " + std::to_string(g_fault_rate) +
             " per-link fault rate, retries on]";
  }
  bench::print_labeled_table(title.c_str(), x_label, all);
  // Faulted runs get their own series names so an explicit --faults --json
  // run can never overwrite the canonical (fault-free) trajectory entries.
  const std::string bench_name = std::string("fig_workloads") +
                                 bench_suffix +
                                 (g_fault_rate > 0 ? "_faults" : "") + "_" +
                                 hetsim::backend_name(backend);
  bench::append_json(json, bench::labeled_series_json(
                               bench_name.c_str(), "thor_xeon", x_label,
                               "ops_per_second", all));
}

/// --trace <out.json>: a dedicated traced run — multi-initiator cross-shard
/// hash-probe on the shm backend with the distributed tracer attached —
/// exported as Chrome trace-event JSON (load in ui.perfetto.dev, or digest
/// with `tc_inspect trace <out.json>`). Runs on its own cluster so the
/// throughput sweeps above stay untraced and byte-identical.
Status run_traced(const std::string& trace_path) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  hetsim::ClusterConfig cluster_config;
  cluster_config.platform = hetsim::Platform::kThorXeon;
  cluster_config.backend = hetsim::Backend::kShm;
  cluster_config.server_count = 4;
  cluster_config.client_count = 2;
  cluster_config.tracer = &tracer;
  cluster_config.metrics = &metrics;
  TC_ASSIGN_OR_RETURN(auto cluster, hetsim::Cluster::create(cluster_config));
  workloads::WorkloadConfig config;
  config.workload = workloads::Workload::kHashProbe;
  config.mode = workloads::default_workload_mode();
  config.lanes = 2;
  config.window = 4;
  // Small, highly occupied shards: collision chains regularly run off the
  // shard edge, so the trace shows the probe kernel self-forwarding across
  // shard boundaries (the behavior this artifact exists to make visible).
  config.buckets_per_shard = 64;
  config.fill_percent = 90;
  TC_ASSIGN_OR_RETURN(auto engine,
                      workloads::WorkloadEngine::create(*cluster, config));
  std::vector<std::vector<std::uint64_t>> per_lane;
  for (std::size_t lane = 0; lane < config.lanes; ++lane) {
    per_lane.push_back(engine->sample_queries(lane, 24));
  }
  TC_ASSIGN_OR_RETURN(workloads::WorkloadResult result,
                      engine->run_lookups_all(per_lane));

  obs::collect_cluster_metrics(*cluster, metrics);
  obs::collect_tracer_gauges(tracer, metrics);
  const std::vector<obs::TraceEvent> events = tracer.drain_all();
  std::ofstream out(trace_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return internal_error("--trace: cannot open " + trace_path);
  }
  out << obs::chrome_trace_json(events, "fig_workloads hash-probe shm");
  out.close();
  std::fprintf(stderr,
               "--trace: %zu span events (%llu dropped) from %llu lookups "
               "-> %s\n",
               events.size(),
               static_cast<unsigned long long>(tracer.total_dropped()),
               static_cast<unsigned long long>(result.completed),
               trace_path.c_str());
  std::fputs(obs::metrics_text(metrics.snapshot()).c_str(), stderr);
  return Status::ok();
}

std::string trace_path_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) return argv[i + 1];
  }
  return "";
}

double faults_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--faults") == 0) {
      const double rate = std::atof(argv[i + 1]);
      if (rate < 0.0 || rate >= 1.0) {
        std::fprintf(stderr, "--faults wants a rate in [0, 1), got %s\n",
                     argv[i + 1]);
        std::exit(2);
      }
      return rate;
    }
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json = bench::json_path_from_args(argc, argv);
  const std::string trace_path = trace_path_from_args(argc, argv);
  g_fault_rate = faults_from_args(argc, argv);
  if (!trace_path.empty()) {
    Status status = run_traced(trace_path);
    if (!status.is_ok()) {
      std::fprintf(stderr, "--trace failed: %s\n",
                   status.to_string().c_str());
      return 1;
    }
    // --trace on its own produces just the trace artifact; with --json the
    // full sweep below still runs.
    if (json.empty()) return 0;
  }
  const bool fast = bench::fast_mode();
  const std::vector<std::size_t> server_counts =
      fast ? std::vector<std::size_t>{2, 4}
           : std::vector<std::size_t>{2, 4, 8, 16};
  const std::vector<std::size_t> lane_counts =
      fast ? std::vector<std::size_t>{1, 2}
           : std::vector<std::size_t>{1, 2, 4};
  const std::size_t queries = fast ? 16 : 48;

  for (hetsim::Backend backend : bench::backends_from_args(
           argc, argv, {hetsim::Backend::kSim, hetsim::Backend::kShm})) {
    sweep(json, backend, "", "servers", server_counts,
          /*x_is_lanes=*/false, queries);
    sweep(json, backend, "_lanes", "initiators", lane_counts,
          /*x_is_lanes=*/true, queries);
  }
  return 0;
}
