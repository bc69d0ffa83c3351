// Shared harness for the paper-reproduction benchmarks: builds platform
// pairs/clusters, runs the TSI overhead/rate measurements (Tables I-VI) and
// the DAPC depth/scaling sweeps (Figures 5-12), and prints rows in the
// paper's format. See EXPERIMENTS.md for paper-vs-measured records.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hetsim/profiles.hpp"
#include "xrdma/dapc.hpp"

namespace tc::bench {

/// One column of the Tables I-III breakdown.
struct TsiBreakdown {
  double lookup_exec_us = 0;
  double jit_ms = -1;  ///< <0 = N/A
  double transmission_us = 0;
  double total_us = 0;
};

/// Results of the full TSI experiment on one platform.
struct TsiResults {
  TsiBreakdown active_message;
  TsiBreakdown uncached_bitcode;
  TsiBreakdown cached_bitcode;
  double am_rate = 0;        ///< msg/sec
  double uncached_rate = 0;
  double cached_rate = 0;
  double real_jit_ms = 0;    ///< measured on this host (not virtual)
};

/// Runs the TSI overhead experiment between a pair of same-type nodes.
TsiResults run_tsi(hetsim::Platform platform);

/// Prints Tables I-III style breakdown plus the real-host JIT note.
void print_tsi_table(const char* title, const TsiResults& results);

/// Prints Tables IV-VI style latency/message-rate rows with speedups.
void print_rate_table(const char* title, const TsiResults& results);

/// One DAPC measurement point.
struct DapcPoint {
  std::uint64_t x = 0;  ///< depth (figures 5-8) or server count (9-12)
  double rate = 0;      ///< chases/second (virtual time)
};

struct DapcSeries {
  xrdma::ChaseMode mode;
  std::vector<DapcPoint> points;
};

/// Depth sweep at fixed server count (Figures 5-8).
std::vector<DapcSeries> dapc_depth_sweep(
    hetsim::Platform platform, std::size_t servers,
    const std::vector<xrdma::ChaseMode>& modes,
    const std::vector<std::uint64_t>& depths, std::uint64_t chases = 2);

/// Server-count sweep at fixed depth (Figures 9-12).
std::vector<DapcSeries> dapc_server_sweep(
    hetsim::Platform platform, const std::vector<std::size_t>& server_counts,
    std::uint64_t depth, const std::vector<xrdma::ChaseMode>& modes,
    std::uint64_t chases = 2);

/// Prints a figure-style series table: one row per x, one column per mode,
/// plus the paper's "Get - Bitcode % Diff" column when both are present.
/// `rate_note` is the footer describing what the rates mean (virtual-time
/// figures keep the default; wall-clock sweeps say so).
void print_dapc_figure(
    const char* title, const char* x_label,
    const std::vector<DapcSeries>& series,
    const char* rate_note =
        "(rates are chases/second in calibrated virtual time)");

/// Async-window sweep (fig_async_window): rate vs in-flight window W at
/// fixed depth and server count. W == 1 runs the classic synchronous
/// protocol (and must reproduce the fig5-fig12 numbers exactly); W > 1
/// pipelines W tagged chases per initiator, with sender-side frame
/// batching on the ifunc modes (`batch_frames` caps the coalescing; 0
/// derives min(W, 8)).
std::vector<DapcSeries> dapc_window_sweep(
    hetsim::Platform platform, std::size_t servers,
    const std::vector<xrdma::ChaseMode>& modes,
    const std::vector<std::uint64_t>& windows, std::uint64_t depth,
    std::uint64_t chases, std::size_t batch_frames = 0);

/// Multi-initiator sweep (fig_mt_scale): aggregate chase rate vs M
/// concurrent initiators, each with its own client node and in-flight
/// window W, on the chosen transport backend. Backend::kSim reports
/// deterministic virtual-time rates; Backend::kShm and Backend::kSocket
/// run M real OS threads against per-node progress threads and report
/// wall-clock rates — the columns of the wall-clock vs virtual-time
/// methodology in EXPERIMENTS.md.
std::vector<DapcSeries> dapc_initiator_sweep(
    hetsim::Platform platform, hetsim::Backend backend, std::size_t servers,
    const std::vector<xrdma::ChaseMode>& modes,
    const std::vector<std::uint64_t>& initiator_counts, std::uint64_t depth,
    std::uint64_t chases, std::uint64_t window);

// --- whole-figure drivers -----------------------------------------------------
// Everything that varies between the eight fig5-fig12 reproductions in one
// spec; the shared sweep/print/JSON scaffolding lives here once instead of
// being copied per driver. Output is byte-identical to the historical
// per-driver mains (BENCH_dapc.json regenerates unchanged).

struct DapcFigureSpec {
  const char* bench;         ///< JSON bench tag, e.g. "fig5"
  const char* platform_tag;  ///< JSON platform tag, e.g. "thor_bf2"
  hetsim::Platform platform;
  const char* title;
  std::vector<xrdma::ChaseMode> modes;
};

/// Depth sweep at a fixed server count (figures 5-8): the paper's shared
/// {1..4096} depth ladder ({1,16,256} under TC_BENCH_FAST, with
/// fast_servers servers).
int run_dapc_depth_figure(const DapcFigureSpec& spec, std::size_t servers,
                          std::size_t fast_servers, int argc, char** argv);

/// Server-count sweep at depth 4096 (figures 9-12; depth 256 and counts
/// {2,4} under TC_BENCH_FAST).
int run_dapc_scale_figure(const DapcFigureSpec& spec,
                          const std::vector<std::size_t>& server_counts,
                          int argc, char** argv);

// --- generic labeled series ---------------------------------------------------
// For benches whose series are not DAPC chase modes (collectives,
// workloads): one label per series, one (x, value) list each, with shared
// table printing and JSON serialization.

struct LabeledPoint {
  std::uint64_t x = 0;
  double value = 0;
};

struct LabeledSeries {
  std::string label;
  std::vector<LabeledPoint> points;
};

/// The warm-measurement discipline shared by the labeled-series benches
/// (fig_collectives, fig_workloads): one untimed warm run — ships code,
/// compiles/decodes, fills every cache — then a single timed run when the
/// clock is deterministic (sim), or the median of three timed runs when
/// it is the wall clock (shm/socket; guards against scheduler noise).
StatusOr<double> measure_warm(
    const std::function<StatusOr<double>()>& run_once, bool wall_clock);

/// Serializes labeled series as {"bench", "platform", "x", "unit",
/// "series": [{"mode", "points": [{"x", "y"}]}]}.
std::string labeled_series_json(const char* bench, const char* platform,
                                const char* x_label, const char* unit,
                                const std::vector<LabeledSeries>& series);

/// Prints one row per distinct x, one column per series; values are
/// rendered as value * display_scale followed by display_suffix (e.g.
/// scale 1e-3 + "us" renders nanoseconds as microseconds).
void print_labeled_table(const char* title, const char* x_label,
                         const std::vector<LabeledSeries>& series,
                         double display_scale = 1.0,
                         const char* display_suffix = "");

// --- machine-readable output (--json) ----------------------------------------
// Every bench main accepts `--json <path>`: results are appended to `path`
// as one JSON object per run inside a single top-level array, so repeated
// bench invocations build up one valid JSON document (BENCH_dapc.json /
// BENCH_tsi.json at the repo root are the canonical perf trajectory).

/// Returns the path following `--json`, or "" when absent.
std::string json_path_from_args(int argc, char** argv);

/// Parses `--backends a,b,c` (names: sim, shm, socket) into a backend list;
/// returns `defaults` when the flag is absent. Unknown names abort with a
/// usage message — a typo must not silently shrink a sweep. Lets the CI
/// socket leg run `fig_mt_scale --backends socket` without re-measuring the
/// sim/shm columns, and keeps default output byte-identical.
std::vector<hetsim::Backend> backends_from_args(
    int argc, char** argv, std::vector<hetsim::Backend> defaults);

/// Appends `object` (a serialized JSON object) to the array in `path`,
/// creating the file as `[object]` if needed. No-op when `path` is empty.
void append_json(const std::string& path, const std::string& object);

/// Serializes one DAPC figure (depth/server/window sweep) to JSON.
std::string dapc_series_json(const char* bench, const char* platform,
                             const char* x_label,
                             const std::vector<DapcSeries>& series);

/// Serializes one TSI table (overhead breakdown + rates) to JSON.
std::string tsi_json(const char* bench, const char* platform,
                     const TsiResults& results);

/// True when TC_BENCH_FAST is set: benches shrink sweeps for smoke runs.
bool fast_mode();

}  // namespace tc::bench
