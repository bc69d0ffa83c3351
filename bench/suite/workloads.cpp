// The four workloads, the trial that measures one of them on a fresh
// cluster, and the public-counter snapshot.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "bench.hpp"
#include "fabric/shm_transport.hpp"
#include "fabric/socket_transport.hpp"
#include "workloads/workload_engine.hpp"
#include "xrdma/dapc.hpp"

namespace tc::suite {

namespace {

// Sized on a 4-vCPU Xeon host: a trial takes 0.5-1.5 s, so a 25 s run
// holds 15-40 of them, and a trial's window-1 phase has at least 80
// samples beyond its p90 (see README.md).
const std::vector<WorkloadSpec> kSpecs = {
    {"probe_shm", Kind::kProbe, hetsim::Backend::kShm, "lookup",
     20'000, 150'000, 3, 8'000},
    {"probe_socket", Kind::kProbe, hetsim::Backend::kSocket, "lookup",
     20'000, 100'000, 3, 6'000},
    {"probe_portable_shm", Kind::kProbePortable, hetsim::Backend::kShm,
     "lookup", 20'000, 150'000, 3, 8'000},
    {"chase_get_shm", Kind::kChaseGet, hetsim::Backend::kShm, "chase",
     1'000, 3'000, 3, 800},
};

constexpr std::uint64_t kBucketsPerShard = 65'536;
constexpr std::uint64_t kFillPercent = 70;
constexpr std::uint64_t kChaseDepth = 64;
constexpr std::uint64_t kEntriesPerShard = 4'096;

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Hash-probe lookups: one key per window-1 op, a key stream at window 8.
class ProbeSubject final : public Subject {
 public:
  ProbeSubject(std::unique_ptr<workloads::WorkloadEngine> engine,
               std::size_t stream)
      : engine_(std::move(engine)),
        keys_(engine_->sample_queries(0, stream)) {
    expected_.reserve(keys_.size());
    for (std::uint64_t key : keys_) {
      expected_.push_back(engine_->expected_lookup(key));
    }
  }

  StatusOr<double> one(std::size_t index, Tally& tally) override {
    const std::size_t i = index % keys_.size();
    const std::vector<std::uint64_t> key{keys_[i]};
    ++tally.attempted;
    const std::int64_t t0 = now_ns();
    auto result = engine_->run_lookups(key);
    const std::int64_t t1 = now_ns();
    if (!result.is_ok()) {
      ++tally.failed;
      return result.status();
    }
    if (result->values.size() != 1 || result->values[0] != expected_[i]) {
      ++tally.failed;
    }
    return static_cast<double>(t1 - t0) * 1e-3;
  }

  StatusOr<Done> many(std::size_t count, Tally& tally) override {
    count = std::min(count, keys_.size());
    auto& batch = prefixes_[count];
    if (batch.empty()) batch.assign(keys_.begin(), keys_.begin() + count);
    tally.attempted += count;
    const std::int64_t t0 = now_ns();
    auto result = engine_->run_lookups(batch);
    const std::int64_t t1 = now_ns();
    if (!result.is_ok()) {
      tally.failed += count;
      return result.status();
    }
    for (std::size_t i = 0; i < count; ++i) {
      if (i >= result->values.size() || result->values[i] != expected_[i]) {
        ++tally.failed;
      }
    }
    return Done{result->completed, t1 - t0};
  }

 private:
  std::unique_ptr<workloads::WorkloadEngine> engine_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> expected_;
  std::map<std::size_t, std::vector<std::uint64_t>> prefixes_;
};

/// DAPC pointer chases: DapcDriver::run() with chases = 1 per window-1 op
/// (run() redraws its start from the seed, so every such op walks the same
/// 64 addresses), and one driver per batch size at window 8. A traveling-
/// chaser driver registers its kernel on the cluster, so the ifunc path
/// uses a single batch size.
class ChaseSubject final : public Subject {
 public:
  ChaseSubject(hetsim::Cluster& cluster, xrdma::ChaseMode mode,
               xrdma::DapcConfig base)
      : cluster_(&cluster), mode_(mode), base_(base) {}

  Status init() {
    xrdma::DapcConfig config = base_;
    config.chases = 1;
    config.window = 1;
    TC_ASSIGN_OR_RETURN(single_,
                        xrdma::DapcDriver::create(*cluster_, mode_, config));
    return Status::ok();
  }

  StatusOr<double> one(std::size_t, Tally& tally) override {
    ++tally.attempted;
    const std::int64_t t0 = now_ns();
    auto result = single_->run();
    const std::int64_t t1 = now_ns();
    if (!result.is_ok()) {
      ++tally.failed;
      return result.status();
    }
    if (result->completed != 1 || result->correct != 1) ++tally.failed;
    return static_cast<double>(t1 - t0) * 1e-3;
  }

  StatusOr<Done> many(std::size_t count, Tally& tally) override {
    auto& driver = batches_[count];
    if (driver == nullptr) {
      xrdma::DapcConfig config = base_;
      config.chases = count;
      config.window = kWindow;
      TC_ASSIGN_OR_RETURN(driver,
                          xrdma::DapcDriver::create(*cluster_, mode_, config));
    }
    tally.attempted += count;
    const std::int64_t t0 = now_ns();
    auto result = driver->run();
    const std::int64_t t1 = now_ns();
    if (!result.is_ok()) {
      tally.failed += count;
      return result.status();
    }
    tally.failed += count - std::min<std::uint64_t>(count, result->correct);
    return Done{result->completed, t1 - t0};
  }

 private:
  hetsim::Cluster* cluster_;
  xrdma::ChaseMode mode_;
  xrdma::DapcConfig base_;
  std::unique_ptr<xrdma::DapcDriver> single_;
  std::map<std::size_t, std::unique_ptr<xrdma::DapcDriver>> batches_;
};

std::size_t scaled(std::size_t count, std::size_t div) {
  return std::max<std::size_t>(1, count / div);
}

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() { return kSpecs; }

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

hetsim::ClusterConfig cluster_config(const WorkloadSpec& spec,
                                     obs::Tracer* tracer) {
  hetsim::ClusterConfig config;
  config.backend = spec.backend;
  config.server_count = kServers;
  config.client_count = 1;
  config.shm_run_until_timeout_ms = kWatchdogMs;
  config.tracer = tracer;
  return config;
}

StatusOr<std::unique_ptr<Subject>> make_subject(hetsim::Cluster& cluster,
                                                const WorkloadSpec& spec,
                                                std::uint64_t seed,
                                                bool ifunc_path) {
  if (spec.kind == Kind::kChaseGet) {
    xrdma::DapcConfig config;
    config.depth = kChaseDepth;
    config.entries_per_shard = kEntriesPerShard;
    config.seed = seed;
    config.warmup = false;
    xrdma::ChaseMode mode = xrdma::ChaseMode::kGet;
    if (ifunc_path) {
#if TC_WITH_LLVM
      mode = xrdma::ChaseMode::kCachedBitcode;
#else
      mode = xrdma::ChaseMode::kInterpreted;
#endif
    }
    auto subject = std::make_unique<ChaseSubject>(cluster, mode, config);
    TC_RETURN_IF_ERROR(subject->init());
    return std::unique_ptr<Subject>(std::move(subject));
  }
  workloads::WorkloadConfig config;
  config.seed = seed;
  config.window = kWindow;
  config.workload = workloads::Workload::kHashProbe;
  config.mode = spec.kind == Kind::kProbePortable
                    ? workloads::WorkloadMode::kPortable
                    : workloads::default_workload_mode();
  config.buckets_per_shard = kBucketsPerShard;
  config.fill_percent = kFillPercent;
  TC_ASSIGN_OR_RETURN(auto engine,
                      workloads::WorkloadEngine::create(cluster, config));
  const std::size_t stream =
      std::max({spec.warm_ops, spec.throughput_ops, spec.latency_ops});
  return std::unique_ptr<Subject>(
      std::make_unique<ProbeSubject>(std::move(engine), stream));
}

Counters read_counters(hetsim::Cluster& cluster) {
  Counters c;
  for (fabric::NodeId node = 0; node < cluster.node_count(); ++node) {
    const core::Runtime::Stats& s = cluster.runtime(node).stats();
    c.frames_executed += static_cast<double>(s.frames_executed.load());
    c.forwards += static_cast<double>(s.forwards.load());
    c.code_bytes += static_cast<double>(s.code_bytes_sent.load());
    c.interp_instrs += static_cast<double>(s.interp_instrs.load());
    c.send_failures += static_cast<double>(s.send_retries_exhausted.load() +
                                           s.forward_send_failures.load() +
                                           s.protocol_errors.load());
  }
  if (auto* socket =
          dynamic_cast<fabric::SocketTransport*>(&cluster.transport())) {
    const fabric::SocketTransport::Stats s = socket->stats();
    c.wire_frames = static_cast<double>(s.frames_sent);
    c.wire_bytes = static_cast<double>(s.bytes_sent);
    c.stalls = static_cast<double>(s.partial_writes + s.backpressure_rejects);
  } else if (auto* shm =
                 dynamic_cast<fabric::ShmTransport*>(&cluster.transport())) {
    const fabric::ShmTransport::Stats s = shm->stats();
    c.wire_frames = static_cast<double>(s.ops_pushed);
    c.stalls = static_cast<double>(s.producer_stalls + s.backpressure_failures);
  }
  return c;
}

void quiesce(hetsim::Cluster& cluster) {
  double last = -1;
  const double deadline = now_s() + static_cast<double>(kWatchdogMs) * 1e-3;
  while (now_s() < deadline) {
    const double executed = read_counters(cluster).frames_executed;
    if (executed == last) return;
    last = executed;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

TrialResult run_trial(const WorkloadSpec& spec, std::uint64_t seed,
                      std::size_t scale_div) {
  TrialResult trial;
  const double t_begin = now_s();
  hetsim::Cluster* live = nullptr;
  auto fail = [&](const Status& status) {
    trial.error = status.to_string();
    if (live != nullptr) quiesce(*live);
    trial.seconds = now_s() - t_begin;
    return trial;
  };

  const std::int64_t t0 = now_ns();
  auto cluster_or = hetsim::Cluster::create(cluster_config(spec));
  if (!cluster_or.is_ok()) return fail(cluster_or.status());
  hetsim::Cluster& cluster = **cluster_or;
  live = &cluster;
  const std::int64_t t1 = now_ns();
  auto subject_or = make_subject(cluster, spec, seed);
  if (!subject_or.is_ok()) return fail(subject_or.status());
  Subject& subject = **subject_or;
  const std::int64_t t2 = now_ns();
  auto first = subject.one(0, trial.tally);
  if (!first.is_ok()) return fail(first.status());
  const std::int64_t t3 = now_ns();
  trial.cluster_create_ms = static_cast<double>(t1 - t0) * 1e-6;
  trial.driver_create_ms = static_cast<double>(t2 - t1) * 1e-6;
  trial.cold_first_op_ms = static_cast<double>(t3 - t2) * 1e-6;
  trial.setup_s = static_cast<double>(t3 - t0) * 1e-9;

  auto warm = subject.many(scaled(spec.warm_ops, scale_div), trial.tally);
  if (!warm.is_ok()) return fail(warm.status());

  const Counters c0 = read_counters(cluster);
  const double cpu0 = cpu_seconds();
  std::uint64_t units = 0;
  for (std::size_t rep = 0; rep < spec.reps; ++rep) {
    auto done =
        subject.many(scaled(spec.throughput_ops, scale_div), trial.tally);
    if (!done.is_ok()) return fail(done.status());
    units += done->units;
    trial.throughput.push_back(static_cast<double>(done->units) * 1e9 /
                               static_cast<double>(std::max<std::int64_t>(
                                   done->ns, 1)));
  }
  const double cpu1 = cpu_seconds();
  const Counters c1 = read_counters(cluster);
  const double per = 1.0 / static_cast<double>(std::max<std::uint64_t>(units, 1));
  trial.cpu_us_per_op = (cpu1 - cpu0) * 1e6 * per;
  trial.per_op.frames_executed = (c1.frames_executed - c0.frames_executed) * per;
  trial.per_op.forwards = (c1.forwards - c0.forwards) * per;
  trial.per_op.code_bytes = (c1.code_bytes - c0.code_bytes) * per;
  trial.per_op.interp_instrs = (c1.interp_instrs - c0.interp_instrs) * per;
  trial.per_op.wire_frames = (c1.wire_frames - c0.wire_frames) * per;
  trial.per_op.wire_bytes = (c1.wire_bytes - c0.wire_bytes) * per;
  trial.per_op.stalls = c1.stalls - c0.stalls;

  const std::size_t latency_ops = scaled(spec.latency_ops, scale_div);
  trial.latency_us.reserve(latency_ops);
  for (std::size_t i = 0; i < latency_ops; ++i) {
    auto us = subject.one(i + 1, trial.tally);
    if (!us.is_ok()) return fail(us.status());
    trial.latency_us.push_back(*us);
  }
  trial.send_failures = read_counters(cluster).send_failures;
  trial.seconds = now_s() - t_begin;
  return trial;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace tc::suite
