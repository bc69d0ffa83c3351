#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "am/am_runtime.hpp"
#include "core/ifunc.hpp"
#include "core/runtime.hpp"
#include "hetsim/cluster.hpp"

namespace tc::bench {

namespace {

using fabric::Fabric;
using fabric::NodeId;
using hetsim::HwProfile;
using hetsim::Platform;

constexpr int kLatencyPings = 8;
constexpr int kRateMessages = 2000;

/// A same-type node pair on one platform's fabric (the paper measures TSI
/// between two A64FX, two BF2, or two Xeon systems).
struct Pair {
  Fabric fabric;
  NodeId src = 0;
  NodeId dst = 0;

  explicit Pair(const HwProfile& profile) {
    fabric.set_default_link(profile.link);
    src = fabric.add_node("src", profile.server_compute_scale);
    dst = fabric.add_node("dst", profile.server_compute_scale);
  }
};

double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Measures AM latency and message rate for the TSI workload.
void measure_am(const HwProfile& profile, TsiResults& out) {
  Pair pair(profile);
  auto rt_src =
      am::AmRuntime::create(pair.fabric, pair.src, am_options_for(profile));
  auto rt_dst =
      am::AmRuntime::create(pair.fabric, pair.dst, am_options_for(profile));
  if (!rt_src.is_ok() || !rt_dst.is_ok()) return;

  std::uint64_t counter = 0;
  (*rt_dst)->set_target_ptr(&counter);
  auto increment = [](am::AmContext& ctx, std::uint8_t*, std::uint64_t) {
    ++*static_cast<std::uint64_t*>(ctx.target_ptr);
  };
  (void)(*rt_src)->register_handler(increment);
  auto idx = (*rt_dst)->register_handler(increment);
  if (!idx.is_ok()) return;

  Bytes payload{0};
  // AM frames are 8B header + 1B payload = 9B here; the paper's were 33B.
  std::int64_t total_ns = 0;
  for (int i = 0; i < kLatencyPings; ++i) {
    const auto t0 = pair.fabric.now();
    (void)(*rt_src)->send(pair.dst, *idx, as_span(payload));
    (void)pair.fabric.run_until(
        [&] { return counter == static_cast<std::uint64_t>(i) + 1; });
    total_ns += pair.fabric.now() - t0;
  }
  out.active_message.total_us = ns_to_us(total_ns / kLatencyPings);
  out.active_message.lookup_exec_us = ns_to_us(profile.am_exec_ns);
  out.active_message.transmission_us =
      out.active_message.total_us - out.active_message.lookup_exec_us;

  const std::uint64_t base = counter;
  const auto t0 = pair.fabric.now();
  for (int i = 0; i < kRateMessages; ++i) {
    (void)(*rt_src)->send(pair.dst, *idx, as_span(payload));
  }
  (void)pair.fabric.run_until([&] { return counter == base + kRateMessages; });
  out.am_rate =
      kRateMessages * 1e9 / static_cast<double>(pair.fabric.now() - t0);
}

/// Measures ifunc latency/rate; `uncached` ships the full frame every time.
void measure_ifunc(const HwProfile& profile, bool uncached, TsiResults& out) {
  Pair pair(profile);
  core::RuntimeOptions options = hetsim::runtime_options_for(profile);
  options.force_full_frames = uncached;
  auto rt_src = core::Runtime::create(pair.fabric, pair.src, options);
  auto rt_dst = core::Runtime::create(pair.fabric, pair.dst,
                                      hetsim::runtime_options_for(profile));
  if (!rt_src.is_ok() || !rt_dst.is_ok()) return;

  auto lib =
      core::IfuncLibrary::from_kernel(ir::KernelKind::kTargetSideIncrement);
  if (!lib.is_ok()) return;
  auto id = (*rt_src)->register_ifunc(std::move(*lib));
  if (!id.is_ok()) return;

  std::uint64_t counter = 0;
  (*rt_dst)->set_target_ptr(&counter);
  Bytes payload{0};

  // Warm the target: pays the one-time JIT (charged to virtual time).
  (void)(*rt_src)->send_ifunc(pair.dst, *id, as_span(payload));
  (void)pair.fabric.run_until([&] { return counter == 1; });
  out.real_jit_ms =
      static_cast<double>((*rt_dst)->stats().real_jit_ns_total) * 1e-6;

  TsiBreakdown& row = uncached ? out.uncached_bitcode : out.cached_bitcode;
  std::int64_t total_ns = 0;
  for (int i = 0; i < kLatencyPings; ++i) {
    const auto t0 = pair.fabric.now();
    (void)(*rt_src)->send_ifunc(pair.dst, *id, as_span(payload));
    (void)pair.fabric.run_until(
        [&] { return counter == static_cast<std::uint64_t>(i) + 2; });
    total_ns += pair.fabric.now() - t0;
  }
  row.total_us = ns_to_us(total_ns / kLatencyPings);
  row.lookup_exec_us = ns_to_us(profile.ifunc_exec_ns);
  row.transmission_us = row.total_us - row.lookup_exec_us;
  if (uncached) row.jit_ms = static_cast<double>(profile.jit_cost_ns) * 1e-6;

  const std::uint64_t base = counter;
  const auto t0 = pair.fabric.now();
  for (int i = 0; i < kRateMessages; ++i) {
    (void)(*rt_src)->send_ifunc(pair.dst, *id, as_span(payload));
  }
  (void)pair.fabric.run_until([&] { return counter == base + kRateMessages; });
  const double rate =
      kRateMessages * 1e9 / static_cast<double>(pair.fabric.now() - t0);
  (uncached ? out.uncached_rate : out.cached_rate) = rate;
}

}  // namespace

TsiResults run_tsi(Platform platform) {
  const HwProfile& profile = profile_for(platform);
  TsiResults out;
  measure_am(profile, out);
  measure_ifunc(profile, /*uncached=*/false, out);
  measure_ifunc(profile, /*uncached=*/true, out);
  return out;
}

void print_tsi_table(const char* title, const TsiResults& r) {
  std::printf("=== %s: TSI overhead breakdown ===\n", title);
  std::printf("%-14s %16s %18s %16s\n", "Stage", "Active Message",
              "Uncached Bitcode", "Cached Bitcode");
  std::printf("%-14s %13.2f us %15.2f us %13.2f us\n", "Lookup+Exec",
              r.active_message.lookup_exec_us,
              r.uncached_bitcode.lookup_exec_us,
              r.cached_bitcode.lookup_exec_us);
  std::printf("%-14s %16s    (%8.2f ms) %16s\n", "JIT", "N/A",
              r.uncached_bitcode.jit_ms, "N/A");
  std::printf("%-14s %13.2f us %15.2f us %13.2f us\n", "Transmission",
              r.active_message.transmission_us,
              r.uncached_bitcode.transmission_us,
              r.cached_bitcode.transmission_us);
  std::printf("%-14s %13.2f us %15.2f us %13.2f us\n", "Total",
              r.active_message.total_us, r.uncached_bitcode.total_us,
              r.cached_bitcode.total_us);
  std::printf("(real host JIT of the TSI archive: %.2f ms; the virtual JIT "
              "charge is the paper-calibrated constant)\n\n",
              r.real_jit_ms);
}

void print_rate_table(const char* title, const TsiResults& r) {
  const double lat_am = r.active_message.total_us;
  const double lat_unc = r.uncached_bitcode.total_us;
  const double lat_c = r.cached_bitcode.total_us;
  std::printf("=== %s: TSI latencies and message rates ===\n", title);
  std::printf("%-18s %10s %9s %16s %9s\n", "Method", "Latency", "Speedup",
              "Message Rate", "Speedup");
  std::printf("%-18s %7.2f us %8.2f%% %12.0f m/s %8.2f%%\n", "Active Message",
              lat_am, (lat_am - lat_c) / lat_c * 100.0, r.am_rate,
              (r.cached_rate - r.am_rate) / r.am_rate * 100.0);
  std::printf("%-18s %7.2f us %9s %12.0f m/s %9s\n", "Cached Bitcode", lat_c,
              "-", r.cached_rate, "-");
  std::printf("%-18s %7.2f us %8.2f%% %12.0f m/s %8.2f%%\n",
              "Uncached Bitcode", lat_unc, (lat_unc - lat_c) / lat_c * 100.0,
              r.uncached_rate,
              (r.cached_rate - r.uncached_rate) / r.uncached_rate * 100.0);
  std::printf("\n");
}

namespace {

StatusOr<DapcPoint> run_one_dapc(Platform platform, std::size_t servers,
                                 xrdma::ChaseMode mode, std::uint64_t depth,
                                 std::uint64_t chases,
                                 std::uint64_t window = 1,
                                 std::size_t batch_frames = 1) {
  hetsim::ClusterConfig cluster_config;
  cluster_config.platform = platform;
  cluster_config.server_count = servers;
  TC_ASSIGN_OR_RETURN(auto cluster, hetsim::Cluster::create(cluster_config));

  xrdma::DapcConfig config;
  config.depth = depth;
  config.chases = chases;
  config.window = window;
  config.batch_frames = batch_frames;
  TC_ASSIGN_OR_RETURN(auto driver,
                      xrdma::DapcDriver::create(*cluster, mode, config));
  TC_ASSIGN_OR_RETURN(xrdma::DapcResult result, driver->run());
  if (result.correct != result.completed) {
    return internal_error("DAPC produced incorrect chase results");
  }
  DapcPoint point;
  point.rate = result.chases_per_second;
  return point;
}

}  // namespace

std::vector<DapcSeries> dapc_depth_sweep(
    Platform platform, std::size_t servers,
    const std::vector<xrdma::ChaseMode>& modes,
    const std::vector<std::uint64_t>& depths, std::uint64_t chases) {
  std::vector<DapcSeries> out;
  for (xrdma::ChaseMode mode : modes) {
    DapcSeries series;
    series.mode = mode;
    for (std::uint64_t depth : depths) {
      auto point = run_one_dapc(platform, servers, mode, depth, chases);
      if (!point.is_ok()) {
        std::fprintf(stderr, "dapc %s depth=%llu failed: %s\n",
                     chase_mode_name(mode),
                     static_cast<unsigned long long>(depth),
                     point.status().to_string().c_str());
        continue;
      }
      point->x = depth;
      series.points.push_back(*point);
    }
    out.push_back(std::move(series));
  }
  return out;
}

std::vector<DapcSeries> dapc_server_sweep(
    Platform platform, const std::vector<std::size_t>& server_counts,
    std::uint64_t depth, const std::vector<xrdma::ChaseMode>& modes,
    std::uint64_t chases) {
  std::vector<DapcSeries> out;
  for (xrdma::ChaseMode mode : modes) {
    DapcSeries series;
    series.mode = mode;
    for (std::size_t servers : server_counts) {
      auto point = run_one_dapc(platform, servers, mode, depth, chases);
      if (!point.is_ok()) {
        std::fprintf(stderr, "dapc %s servers=%zu failed: %s\n",
                     chase_mode_name(mode), servers,
                     point.status().to_string().c_str());
        continue;
      }
      point->x = servers;
      series.points.push_back(*point);
    }
    out.push_back(std::move(series));
  }
  return out;
}

void print_dapc_figure(const char* title, const char* x_label,
                       const std::vector<DapcSeries>& series,
                       const char* rate_note) {
  std::printf("=== %s ===\n", title);
  std::printf("%-8s", x_label);
  for (const DapcSeries& s : series) {
    std::printf(" %18s", chase_mode_name(s.mode));
  }
  const DapcSeries* get_series = nullptr;
  const DapcSeries* bitcode_series = nullptr;
  for (const DapcSeries& s : series) {
    if (s.mode == xrdma::ChaseMode::kGet) get_series = &s;
    if (s.mode == xrdma::ChaseMode::kCachedBitcode) bitcode_series = &s;
  }
  if (get_series && bitcode_series) std::printf(" %18s", "get-bitcode %diff");
  std::printf("\n");

  const std::size_t rows =
      series.empty() ? 0 : series.front().points.size();
  for (std::size_t i = 0; i < rows; ++i) {
    std::printf("%-8llu",
                static_cast<unsigned long long>(series.front().points[i].x));
    for (const DapcSeries& s : series) {
      if (i < s.points.size()) {
        std::printf(" %12.1f c/s ", s.points[i].rate);
      } else {
        std::printf(" %18s", "-");
      }
    }
    if (get_series && bitcode_series && i < get_series->points.size() &&
        i < bitcode_series->points.size()) {
      const double get = get_series->points[i].rate;
      const double bitcode = bitcode_series->points[i].rate;
      std::printf(" %17.1f%%", (bitcode - get) / get * 100.0);
    }
    std::printf("\n");
  }
  std::printf("%s\n\n", rate_note);
}

std::vector<DapcSeries> dapc_window_sweep(
    Platform platform, std::size_t servers,
    const std::vector<xrdma::ChaseMode>& modes,
    const std::vector<std::uint64_t>& windows, std::uint64_t depth,
    std::uint64_t chases, std::size_t batch_frames) {
  std::vector<DapcSeries> out;
  for (xrdma::ChaseMode mode : modes) {
    DapcSeries series;
    series.mode = mode;
    for (std::uint64_t window : windows) {
      const std::size_t batch =
          batch_frames != 0
              ? batch_frames
              : static_cast<std::size_t>(std::min<std::uint64_t>(window, 8));
      auto point =
          run_one_dapc(platform, servers, mode, depth, chases, window, batch);
      if (!point.is_ok()) {
        std::fprintf(stderr, "dapc %s window=%llu failed: %s\n",
                     chase_mode_name(mode),
                     static_cast<unsigned long long>(window),
                     point.status().to_string().c_str());
        continue;
      }
      point->x = window;
      series.points.push_back(*point);
    }
    out.push_back(std::move(series));
  }
  return out;
}

std::vector<DapcSeries> dapc_initiator_sweep(
    Platform platform, hetsim::Backend backend, std::size_t servers,
    const std::vector<xrdma::ChaseMode>& modes,
    const std::vector<std::uint64_t>& initiator_counts, std::uint64_t depth,
    std::uint64_t chases, std::uint64_t window) {
  std::vector<DapcSeries> out;
  for (xrdma::ChaseMode mode : modes) {
    DapcSeries series;
    series.mode = mode;
    for (std::uint64_t initiators : initiator_counts) {
      auto point = [&]() -> StatusOr<DapcPoint> {
        hetsim::ClusterConfig cluster_config;
        cluster_config.platform = platform;
        cluster_config.backend = backend;
        cluster_config.server_count = servers;
        cluster_config.client_count = initiators;
        TC_ASSIGN_OR_RETURN(auto cluster,
                            hetsim::Cluster::create(cluster_config));
        xrdma::DapcConfig config;
        config.depth = depth;
        config.chases = chases;
        config.window = window;
        config.initiators = initiators;
        TC_ASSIGN_OR_RETURN(auto driver,
                            xrdma::DapcDriver::create(*cluster, mode, config));
        DapcPoint p;
        if (backend == hetsim::Backend::kSim) {
          // Virtual time is deterministic: one run is the exact answer.
          TC_ASSIGN_OR_RETURN(xrdma::DapcResult result, driver->run());
          if (result.correct != result.completed) {
            return internal_error("DAPC produced incorrect chase results");
          }
          p.rate = result.chases_per_second;
        } else {
          // Wall clock is noisy: a full warmup run first (thread spawn,
          // code caches, allocator) so no rep pays one-time costs, then
          // the median of three timed repetitions — single samples made
          // the fig_mt_scale curves non-monotone run to run.
          TC_ASSIGN_OR_RETURN(xrdma::DapcResult warm, driver->run());
          if (warm.correct != warm.completed) {
            return internal_error("DAPC warmup produced incorrect results");
          }
          std::vector<double> rates;
          for (int rep = 0; rep < 3; ++rep) {
            TC_ASSIGN_OR_RETURN(xrdma::DapcResult result, driver->run());
            if (result.correct != result.completed) {
              return internal_error("DAPC produced incorrect chase results");
            }
            rates.push_back(result.chases_per_second);
          }
          std::sort(rates.begin(), rates.end());
          p.rate = rates[rates.size() / 2];
        }
        return p;
      }();
      if (!point.is_ok()) {
        std::fprintf(stderr, "dapc %s backend=%s initiators=%llu failed: %s\n",
                     chase_mode_name(mode), hetsim::backend_name(backend),
                     static_cast<unsigned long long>(initiators),
                     point.status().to_string().c_str());
        continue;
      }
      point->x = initiators;
      series.points.push_back(*point);
    }
    out.push_back(std::move(series));
  }
  return out;
}

// --- whole-figure drivers -----------------------------------------------------

int run_dapc_depth_figure(const DapcFigureSpec& spec, std::size_t servers,
                          std::size_t fast_servers, int argc, char** argv) {
  const std::size_t n = fast_mode() ? fast_servers : servers;
  const std::vector<std::uint64_t> depths =
      fast_mode()
          ? std::vector<std::uint64_t>{1, 16, 256}
          : std::vector<std::uint64_t>{1, 4, 16, 64, 256, 1024, 4096};
  auto series = dapc_depth_sweep(spec.platform, n, spec.modes, depths);
  print_dapc_figure(spec.title, "depth", series);
  append_json(json_path_from_args(argc, argv),
              dapc_series_json(spec.bench, spec.platform_tag, "depth",
                               series));
  return 0;
}

int run_dapc_scale_figure(const DapcFigureSpec& spec,
                          const std::vector<std::size_t>& server_counts,
                          int argc, char** argv) {
  const std::uint64_t depth = fast_mode() ? 256 : 4096;
  const std::vector<std::size_t> counts =
      fast_mode() ? std::vector<std::size_t>{2, 4} : server_counts;
  auto series = dapc_server_sweep(spec.platform, counts, depth, spec.modes);
  print_dapc_figure(spec.title, "servers", series);
  append_json(json_path_from_args(argc, argv),
              dapc_series_json(spec.bench, spec.platform_tag, "servers",
                               series));
  return 0;
}

// --- generic labeled series ---------------------------------------------------

StatusOr<double> measure_warm(
    const std::function<StatusOr<double>()>& run_once, bool wall_clock) {
  TC_RETURN_IF_ERROR(run_once().status());  // warm: untimed first round
  if (!wall_clock) return run_once();       // deterministic: exact answer
  std::vector<double> laps;
  for (int rep = 0; rep < 3; ++rep) {
    TC_ASSIGN_OR_RETURN(double lap, run_once());
    laps.push_back(lap);
  }
  std::sort(laps.begin(), laps.end());
  return laps[laps.size() / 2];
}

namespace {

std::string json_number(double value);  // defined with the JSON helpers below

/// Integral values (e.g. nanosecond latencies) serialize exactly; %.6g
/// would round anything past six significant digits.
std::string json_value(double value) {
  if (value == std::floor(value) && std::abs(value) < 9.2e18) {
    return std::to_string(static_cast<long long>(value));
  }
  return json_number(value);
}

}  // namespace

std::string labeled_series_json(const char* bench, const char* platform,
                                const char* x_label, const char* unit,
                                const std::vector<LabeledSeries>& series) {
  std::string out = std::string("{\"bench\":\"") + bench +
                    "\",\"platform\":\"" + platform + "\",\"x\":\"" +
                    x_label + "\",\"unit\":\"" + unit + "\",\"series\":[";
  for (std::size_t s = 0; s < series.size(); ++s) {
    if (s != 0) out += ",";
    out += "{\"mode\":\"" + series[s].label + "\",\"points\":[";
    for (std::size_t i = 0; i < series[s].points.size(); ++i) {
      if (i != 0) out += ",";
      out += "{\"x\":" + std::to_string(series[s].points[i].x) +
             ",\"y\":" + json_value(series[s].points[i].value) + "}";
    }
    out += "]}";
  }
  return out + "]}";
}

void print_labeled_table(const char* title, const char* x_label,
                         const std::vector<LabeledSeries>& series,
                         double display_scale, const char* display_suffix) {
  std::printf("%s\n", title);
  std::printf("%10s", x_label);
  for (const LabeledSeries& s : series) {
    std::printf("  %26s", s.label.c_str());
  }
  std::printf("\n");
  std::vector<std::uint64_t> xs;
  for (const LabeledSeries& s : series) {
    for (const LabeledPoint& p : s.points) xs.push_back(p.x);
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  for (std::uint64_t x : xs) {
    std::printf("%10llu", static_cast<unsigned long long>(x));
    for (const LabeledSeries& s : series) {
      double value = -1.0;
      for (const LabeledPoint& p : s.points) {
        if (p.x == x) value = p.value * display_scale;
      }
      std::printf("  %24.1f%2s", value, display_suffix);
    }
    std::printf("\n");
  }
}

// --- machine-readable output (--json) ----------------------------------------

std::string json_path_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return argv[i + 1];
  }
  return "";
}

std::vector<hetsim::Backend> backends_from_args(
    int argc, char** argv, std::vector<hetsim::Backend> defaults) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--backends") != 0) continue;
    std::vector<hetsim::Backend> out;
    std::string list = argv[i + 1];
    std::size_t start = 0;
    while (start <= list.size()) {
      const std::size_t comma = list.find(',', start);
      const std::string name = list.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start);
      if (name == "sim") {
        out.push_back(hetsim::Backend::kSim);
      } else if (name == "shm") {
        out.push_back(hetsim::Backend::kShm);
      } else if (name == "socket") {
        out.push_back(hetsim::Backend::kSocket);
      } else {
        std::fprintf(stderr,
                     "--backends: unknown backend '%s' (want a comma-"
                     "separated list of sim, shm, socket)\n", name.c_str());
        std::exit(2);
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    return out;
  }
  return defaults;
}

void append_json(const std::string& path, const std::string& object) {
  if (path.empty()) return;
  std::string document;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      document.assign((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    }
  }
  // Splice into the existing top-level array (created on first append), so
  // the file is a valid JSON document after every bench run.
  const std::size_t end = document.find_last_of(']');
  if (end == std::string::npos) {
    document = "[\n" + object + "\n]\n";
  } else {
    document = document.substr(0, end);
    while (!document.empty() &&
           (document.back() == '\n' || document.back() == ' ')) {
      document.pop_back();
    }
    document += ",\n" + object + "\n]\n";
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << document;
}

namespace {

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string tsi_breakdown_json(const TsiBreakdown& b) {
  std::string out = "{\"lookup_exec_us\":" + json_number(b.lookup_exec_us) +
                    ",\"transmission_us\":" + json_number(b.transmission_us) +
                    ",\"total_us\":" + json_number(b.total_us);
  if (b.jit_ms >= 0) out += ",\"jit_ms\":" + json_number(b.jit_ms);
  return out + "}";
}

}  // namespace

std::string dapc_series_json(const char* bench, const char* platform,
                             const char* x_label,
                             const std::vector<DapcSeries>& series) {
  std::string out = "{\"bench\":\"" + std::string(bench) +
                    "\",\"platform\":\"" + platform + "\",\"x\":\"" +
                    x_label + "\",\"unit\":\"chases_per_second\",\"series\":[";
  for (std::size_t s = 0; s < series.size(); ++s) {
    if (s != 0) out += ",";
    out += "{\"mode\":\"" + std::string(chase_mode_name(series[s].mode)) +
           "\",\"points\":[";
    for (std::size_t i = 0; i < series[s].points.size(); ++i) {
      if (i != 0) out += ",";
      out += "{\"x\":" +
             std::to_string(series[s].points[i].x) + ",\"rate\":" +
             json_number(series[s].points[i].rate) + "}";
    }
    out += "]}";
  }
  return out + "]}";
}

std::string tsi_json(const char* bench, const char* platform,
                     const TsiResults& r) {
  return "{\"bench\":\"" + std::string(bench) + "\",\"platform\":\"" +
         platform + "\",\"tsi\":{\"active_message\":" +
         tsi_breakdown_json(r.active_message) + ",\"uncached_bitcode\":" +
         tsi_breakdown_json(r.uncached_bitcode) + ",\"cached_bitcode\":" +
         tsi_breakdown_json(r.cached_bitcode) +
         ",\"rates_per_sec\":{\"active_message\":" + json_number(r.am_rate) +
         ",\"uncached_bitcode\":" + json_number(r.uncached_rate) +
         ",\"cached_bitcode\":" + json_number(r.cached_rate) +
         "},\"real_host_jit_ms\":" + json_number(r.real_jit_ms) + "}}";
}

bool fast_mode() { return std::getenv("TC_BENCH_FAST") != nullptr; }

}  // namespace tc::bench
