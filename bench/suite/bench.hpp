// tc_bench: the repository benchmark. Four wall-clock workloads driven
// through the layers' public functions only (hetsim::Cluster,
// workloads::WorkloadEngine, xrdma::DapcDriver, fabric::Transport,
// core::Frame, core::Runtime::Stats), measured from outside. README.md in
// this directory defines every workload and metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "hetsim/cluster.hpp"

namespace tc::suite {

// --- workloads ----------------------------------------------------------------

/// kProbe ships the hash-probe kernel in the build's default representation
/// (JIT'd bitcode with LLVM); kProbePortable ships it as portable bytecode,
/// which the interpreter runs.
enum class Kind { kProbe, kProbePortable, kChaseGet };

/// One named workload. Op counts are per trial and fixed, so two builds do
/// identical work per trial; a run repeats trials until its time is spent.
struct WorkloadSpec {
  const char* name;
  Kind kind;
  hetsim::Backend backend;
  /// What one throughput unit is: a lookup or a chase.
  const char* unit;
  std::size_t warm_ops;        ///< untimed warm pass (checked ops)
  std::size_t throughput_ops;  ///< checked ops per timed rep at window 8
  std::size_t reps;            ///< timed reps per trial
  std::size_t latency_ops;     ///< window-1 ops per trial, each timed
};

const std::vector<WorkloadSpec>& workload_specs();
const WorkloadSpec* find_workload(std::string_view name);

/// 3 servers + 1 initiator: 3 server progress threads plus the initiator
/// thread, which is the 4 cores the load shape assumes.
inline constexpr std::size_t kServers = 3;
inline constexpr std::uint64_t kWindow = 8;
inline constexpr std::int64_t kWatchdogMs = 10'000;

/// Checked-op accounting. An op fails on an error Status, a wrong value or
/// a watchdog timeout.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The workload's operations on one cluster, each timed around the public
/// call and checked against the host-side reference afterwards.
class Subject {
 public:
  struct Done {
    std::uint64_t units = 0;  ///< throughput units completed
    std::int64_t ns = 0;      ///< time inside the public call(s)
  };
  virtual ~Subject() = default;
  /// One window-1 op (`index` selects the input); returns its latency, us.
  virtual StatusOr<double> one(std::size_t index, Tally& tally) = 0;
  /// `count` ops at the throughput window.
  virtual StatusOr<Done> many(std::size_t count, Tally& tally) = 0;
};

/// Builds the workload's driver (WorkloadEngine / DapcDriver) on `cluster`.
/// `ifunc_path` swaps chase_get's GET walk for the traveling chaser over
/// the same table: the GET walk crosses no runtime layer, so the traced
/// run breaks down the ifunc path GET is measured against.
StatusOr<std::unique_ptr<Subject>> make_subject(hetsim::Cluster& cluster,
                                                const WorkloadSpec& spec,
                                                std::uint64_t seed,
                                                bool ifunc_path = false);

hetsim::ClusterConfig cluster_config(const WorkloadSpec& spec,
                                     obs::Tracer* tracer = nullptr);

/// Public counters summed over the cluster: Runtime::Stats on every node
/// plus the transport's own stats (via dynamic_cast on cluster.transport()).
struct Counters {
  double frames_executed = 0;
  double forwards = 0;
  double code_bytes = 0;
  double interp_instrs = 0;
  double send_failures = 0;
  double wire_frames = 0;
  double wire_bytes = 0;  ///< socket only; the shm rings count ops, not bytes
  double stalls = 0;
};
Counters read_counters(hetsim::Cluster& cluster);

/// After a failed op the servers may still be executing frames that touch
/// the driver's data, which the driver frees before the cluster stops its
/// threads. Waits (bounded by the watchdog) until no server executes a
/// frame for 100 ms. Every path that drops a subject after a failure calls
/// this first.
void quiesce(hetsim::Cluster& cluster);

struct TrialResult {
  Tally tally;
  std::string error;  ///< first error Status; the trial stopped there
  double setup_s = 0;
  double cluster_create_ms = 0;
  double driver_create_ms = 0;
  double cold_first_op_ms = 0;
  std::vector<double> throughput;  ///< units/s, one per timed rep
  std::vector<double> latency_us;  ///< window-1 op samples
  double cpu_us_per_op = 0;
  /// Counter deltas over the timed reps ÷ units (stalls: the raw delta).
  Counters per_op;
  double send_failures = 0;  ///< whole-trial total
  double seconds = 0;        ///< wall time of the whole trial
};

/// One trial: fresh cluster, driver, cold first op, warm pass, timed
/// reps, window-1 latency phase. `scale_div` shrinks every op count
/// (--quick).
TrialResult run_trial(const WorkloadSpec& spec, std::uint64_t seed,
                      std::size_t scale_div = 1);

// --- layers -------------------------------------------------------------------

/// Standalone 2-node transport of the workload's backend plus the frame
/// codec on the workload's kernel.
struct StandaloneLayers {
  double rtt_us = 0;          ///< 64-byte post_am echo, p50
  double get_rtt_us = 0;      ///< 8-byte post_get, p50
  double post_send_ns = 0;    ///< time inside post_send (64 bytes), p50
  double post_send_p99_ns = 0;
  double frame_build_ns = 0;
  double frame_validate_ns = 0;
};
StatusOr<StandaloneLayers> measure_standalone(const WorkloadSpec& spec);

/// The traced window-1 run folded into per-layer costs along each op's
/// critical path (walked back from the result arrival through span
/// parents). Path components are per-op sums and each op's unattributed
/// remainder is its latency minus its parts; every field is a p50 over the
/// folded ops, so the part p50s add up to the latency p50 only roughly.
struct TraceBreakdown {
  std::string error;           ///< first error Status; the ops stopped there
  std::size_t ops = 0;         ///< ops whose chain was complete
  std::size_t incomplete = 0;  ///< ops with a missing span (not folded)
  std::size_t events = 0;
  std::uint64_t dropped = 0;
  double latency_p50_us = 0;   ///< bench-timed traced ops
  double wire_us = 0;
  double decode_us = 0;
  double dispatch_us = 0;
  double execute_us = 0;
  double reply_us = 0;
  double unattributed_us = 0;
  double path_hops = 0;
  double execute_ns = 0;       ///< every traced hop's execute span, p50
  double execute_p99_ns = 0;
};
/// A failed op is counted in `tally`, stops the traced ops and is reported
/// in `error`; the ops before it are still folded.
TraceBreakdown traced_breakdown(const WorkloadSpec& spec, std::uint64_t seed,
                                double budget_s, const std::string& trace_out,
                                Tally& tally);

/// Traced vs untraced throughput on one cluster (the tracer toggled
/// between alternating reps), as the percentage of throughput lost. A
/// failed op is counted in `tally` and returned as the error.
StatusOr<double> trace_overhead_pct(const WorkloadSpec& spec,
                                    std::uint64_t seed, Tally& tally);

// --- statistics -----------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The steady clock — the same clock the wall-clock transports stamp
/// spans with.
std::int64_t now_ns();
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

// --- JSON -----------------------------------------------------------------------

std::string json_number(double value);
std::string json_string(std::string_view text);

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;
  const Json* find(std::string_view key) const;
};
StatusOr<Json> read_json_file(const std::string& path);

/// --compare: per (metric, workload) medians, quartiles, failed-op share
/// and a verdict against the bounds in `benchmark_json`.
int run_compare(const std::string& parent, const std::string& change,
                const std::string& benchmark_json);

}  // namespace tc::suite
