// tc_bench entry point.
//
//   tc_bench --workload W [--seed S] [--seconds T] [--trace 0|1]
//            [--out FILE] [--trace-out FILE] [--git-rev R --git-dirty 0|1]
//            [--benchmark BENCHMARK.json]
//   tc_bench --quick
//   tc_bench --compare PARENT.json CHANGE.json [--benchmark BENCHMARK.json]
//   tc_bench --list
//
// A measured run (--trace 0) repeats trials until its time is spent and
// reports the end-to-end metrics; a traced run (--trace 1) reports the
// per-layer metrics. The run length is BENCHMARK.json's run_seconds;
// --seconds overrides it (the benchmark harness passes the same value).
// Either run prints a table, then one JSON line last:
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace tc::suite {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  ///< 0: BENCHMARK.json's run_seconds
  bool trace = false;
  bool quick = false;
  std::string out;
  std::string trace_out;
  std::string git_rev = "unknown";
  bool git_dirty = false;
  std::vector<std::string> compare;
  std::string benchmark = "BENCHMARK.json";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tc_bench: %s\n"
               "usage: tc_bench --workload W [--seed S] [--seconds T] "
               "[--trace 0|1] [--out F] [--trace-out F] "
               "[--benchmark BENCHMARK.json]\n"
               "       tc_bench --quick\n"
               "       tc_bench --compare PARENT.json CHANGE.json "
               "[--benchmark BENCHMARK.json]\n"
               "       tc_bench --list\n"
               "workloads:",
               why);
  for (const WorkloadSpec& spec : workload_specs()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage((std::string(argv[i]) + " needs a value").c_str());
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      args.workload = value(i);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value(i).c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value(i).c_str());
      if (!(args.seconds > 0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      const std::string v = value(i);
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (flag == "--out") {
      args.out = value(i);
    } else if (flag == "--trace-out") {
      args.trace_out = value(i);
    } else if (flag == "--git-rev") {
      args.git_rev = value(i);
    } else if (flag == "--git-dirty") {
      args.git_dirty = value(i) == "1";
    } else if (flag == "--quick") {
      args.quick = true;
    } else if (flag == "--list") {
      for (const WorkloadSpec& spec : workload_specs()) {
        std::printf("%s\n", spec.name);
      }
      std::exit(0);
    } else if (flag == "--compare") {
      args.compare.push_back(value(i));
      args.compare.push_back(value(i));
    } else if (flag == "--benchmark") {
      args.benchmark = value(i);
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  return args;
}

/// BENCHMARK.json's run_seconds: the one place the run length is set.
StatusOr<double> benchmark_run_seconds(const std::string& path) {
  TC_ASSIGN_OR_RETURN(Json doc, read_json_file(path));
  const Json* seconds = doc.find("run_seconds");
  if (seconds == nullptr || seconds->type != Json::Type::kNumber ||
      !(seconds->number > 0)) {
    return invalid_argument(path + ": no positive run_seconds");
  }
  return seconds->number;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto value = line.find_first_not_of(" \t:", line.find(':'));
      if (value != std::string::npos) return line.substr(value);
    }
  }
  return "unknown";
}

std::string provenance_json(const Args& args) {
  utsname uts{};
  uname(&uts);
  std::string out = "{";
  out += "\"cpu_model\":" + json_string(cpu_model());
  out += ",\"nproc\":" + std::to_string(online_cpus());
  out += ",\"kernel\":" + json_string(uts.release);
  out += ",\"git_rev\":" + json_string(args.git_rev);
  out += std::string(",\"git_dirty\":") + (args.git_dirty ? "true" : "false");
  out += ",\"build_type\":" + json_string(TC_BENCH_BUILD_TYPE);
  out += std::string(",\"tc_with_llvm\":") + (TC_WITH_LLVM ? "true" : "false");
#if defined(TC_VM_SWITCH_DISPATCH)
  out += ",\"vm_dispatch\":\"switch\"";
#else
  out += ",\"vm_dispatch\":\"threaded\"";
#endif
  out += ",\"seed\":" + std::to_string(args.seed);
  return out + "}";
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string trials_json(const std::vector<TrialResult>& trials) {
  std::string out = "[";
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const TrialResult& t = trials[i];
    if (i > 0) out += ",";
    out += "{\"setup_s\":" + json_number(t.setup_s);
    out += ",\"cluster_create_ms\":" + json_number(t.cluster_create_ms);
    out += ",\"driver_create_ms\":" + json_number(t.driver_create_ms);
    out += ",\"cold_first_op_ms\":" + json_number(t.cold_first_op_ms);
    out += ",\"throughput_ops_s\":[";
    for (std::size_t r = 0; r < t.throughput.size(); ++r) {
      out += (r > 0 ? "," : "") + json_number(t.throughput[r]);
    }
    out += "],\"latency_n\":" + std::to_string(t.latency_us.size());
    out += ",\"latency_p50_us\":" + json_number(median(t.latency_us));
    out += ",\"latency_p90_us\":" + json_number(quantile(t.latency_us, 0.90));
    out += ",\"latency_p99_us\":" + json_number(quantile(t.latency_us, 0.99));
    out += ",\"cpu_us_per_op\":" + json_number(t.cpu_us_per_op);
    out += ",\"attempted\":" + std::to_string(t.tally.attempted);
    out += ",\"failed\":" + std::to_string(t.tally.failed);
    out += ",\"seconds\":" + json_number(t.seconds);
    out += ",\"error\":" + json_string(t.error) + "}";
  }
  return out + "]";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += json_string(metrics[i].name) + ":{\"value\":" +
           json_number(metrics[i].value) +
           ",\"unit\":" + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Prints the table and the final result line; writes --out. `note` ends
/// the table; `extra_json` is spliced into the --out object. Returns the
/// exit code.
int report(const Args& args, const WorkloadSpec& spec, const Tally& tally,
           bool clean, const std::vector<Metric>& metrics,
           const std::vector<TrialResult>& trials, const std::string& note,
           const std::string& extra_json) {
  const bool correct = clean && tally.failed == 0;
  const double share = tally.attempted > 0
                           ? static_cast<double>(tally.failed) /
                                 static_cast<double>(tally.attempted)
                           : 0.0;
  std::printf("tc_bench %s (%s run, seed %llu, %zu trial%s)\n", spec.name,
              args.trace ? "traced" : "measured",
              static_cast<unsigned long long>(args.seed), trials.size(),
              trials.size() == 1 ? "" : "s");
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-32s %16.6g fraction (%llu of %llu checked ops failed)\n",
              "error_rate", share,
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  std::printf("  (%s)\n", note.c_str());
  const std::string metrics_obj = metrics_json(metrics);
  if (!args.out.empty()) {
    std::string detail = "{\"workload\":" + json_string(spec.name);
    detail += ",\"seed\":" + std::to_string(args.seed);
    detail += ",\"seconds\":" + json_number(args.seconds);
    detail += std::string(",\"trace\":") + (args.trace ? "true" : "false");
    detail += ",\"provenance\":" + provenance_json(args);
    detail += std::string(",\"correct\":") + (correct ? "true" : "false");
    detail += ",\"attempted\":" + std::to_string(tally.attempted);
    detail += ",\"failed\":" + std::to_string(tally.failed);
    detail += ",\"error_rate\":" + json_number(share);
    detail += ",\"metrics\":" + metrics_obj;
    detail += ",\"trials\":" + trials_json(trials);
    detail += extra_json + "}\n";
    std::ofstream file(args.out, std::ios::binary | std::ios::trunc);
    file << detail;
    if (!file) {
      std::fprintf(stderr, "tc_bench: cannot write %s\n", args.out.c_str());
      return 1;
    }
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              metrics_obj.c_str());
  return 0;
}

/// Runs trials until `seconds` would be exceeded by one more (at least
/// one). A trial that fails stops there; its ops count as failed and the
/// run moves on to the next trial.
std::vector<TrialResult> run_trials(const WorkloadSpec& spec,
                                    std::uint64_t seed, double seconds,
                                    Tally& tally) {
  std::vector<TrialResult> trials;
  const double start = now_s();
  double longest = 0;
  do {
    trials.push_back(run_trial(spec, seed));
    const TrialResult& t = trials.back();
    tally.attempted += t.tally.attempted;
    tally.failed += t.tally.failed;
    if (!t.error.empty()) {
      std::fprintf(stderr, "tc_bench: %s trial %zu failed: %s\n", spec.name,
                   trials.size(), t.error.c_str());
    }
    longest = std::max(longest, t.seconds);
  } while (now_s() - start + longest <= seconds);
  return trials;
}

std::vector<const TrialResult*> clean_trials(
    const std::vector<TrialResult>& trials) {
  std::vector<const TrialResult*> out;
  for (const TrialResult& t : trials) {
    if (t.error.empty()) out.push_back(&t);
  }
  return out;
}

template <typename Field>
double median_over(const std::vector<const TrialResult*>& trials, Field f) {
  std::vector<double> values;
  for (const TrialResult* t : trials) values.push_back(f(*t));
  return median(values);
}

int measured_run(const Args& args, const WorkloadSpec& spec) {
  Tally tally;
  const std::vector<TrialResult> trials =
      run_trials(spec, args.seed, args.seconds, tally);
  const auto ok = clean_trials(trials);
  if (ok.empty()) {
    std::fprintf(stderr, "tc_bench: every %s trial failed\n", spec.name);
    return 1;
  }
  std::size_t samples = 0;
  for (const TrialResult* t : ok) samples += t->latency_us.size();
  // Percentiles are taken per trial and their median reported: the host's
  // speed drifts over seconds, and a percentile of samples pooled across
  // trials moves with the share of the run spent in its slow phases. The
  // tail is p90: a chase_get trial has 8 samples beyond its p99, and the
  // per-trial p99 on probe_socket is bimodal (README.md has the numbers).
  const std::vector<Metric> metrics = {
      {"throughput_ops_s", "ops/s",
       median_over(ok, [](const TrialResult& t) { return median(t.throughput); })},
      {"latency_p50_us", "us",
       median_over(ok, [](const TrialResult& t) { return median(t.latency_us); })},
      {"latency_p90_us", "us",
       median_over(ok,
                   [](const TrialResult& t) { return quantile(t.latency_us, 0.90); })},
      {"setup_s", "s",
       median_over(ok, [](const TrialResult& t) { return t.setup_s; })},
      {"cpu_us_per_op", "us",
       median_over(ok, [](const TrialResult& t) { return t.cpu_us_per_op; })},
      {"peak_rss_mb", "MiB", peak_rss_mib()},
  };
  return report(args, spec, tally, ok.size() == trials.size(), metrics, trials,
                std::string("one op = one ") + spec.unit + "; " +
                    std::to_string(samples) + " latency samples",
                ",\"latency_n\":" + std::to_string(samples));
}

/// A traced run counts failed ops the way a measured run does: a failure
/// in the traced ops or the overhead reps is reported, marks the run not
/// correct, and the run goes on.
int traced_run(const Args& args, const WorkloadSpec& spec) {
  Tally tally;
  const double start = now_s();
  auto standalone = measure_standalone(spec);
  if (!standalone.is_ok()) {
    std::fprintf(stderr, "tc_bench: standalone layers: %s\n",
                 standalone.status().to_string().c_str());
    return 1;
  }
  bool clean = true;
  const TraceBreakdown b = traced_breakdown(spec, args.seed, args.seconds * 0.25,
                                            args.trace_out, tally);
  if (!b.error.empty()) {
    std::fprintf(stderr, "tc_bench: %s traced ops failed: %s\n", spec.name,
                 b.error.c_str());
    clean = false;
  }
  auto overhead = trace_overhead_pct(spec, args.seed, tally);
  if (!overhead.is_ok()) {
    std::fprintf(stderr, "tc_bench: %s trace overhead reps failed: %s\n",
                 spec.name, overhead.status().to_string().c_str());
    clean = false;
  }
  // The rest of the run's time goes to trials: the setup and counter
  // metrics come from them.
  const std::vector<TrialResult> trials = run_trials(
      spec, args.seed, args.seconds - (now_s() - start), tally);
  const auto ok = clean_trials(trials);
  if (ok.empty()) {
    std::fprintf(stderr, "tc_bench: every %s trial failed\n", spec.name);
    return 1;
  }
  auto med = [&](auto f) { return median_over(ok, f); };
  const StandaloneLayers& s = *standalone;
  const std::vector<Metric> metrics = {
      {"hetsim.cluster_create_ms", "ms",
       med([](const TrialResult& t) { return t.cluster_create_ms; })},
      {"driver.create_ms", "ms",
       med([](const TrialResult& t) { return t.driver_create_ms; })},
      {"driver.cold_first_op_ms", "ms",
       med([](const TrialResult& t) { return t.cold_first_op_ms; })},
      {"core.frame_build_ns", "ns", s.frame_build_ns},
      {"core.frame_validate_ns", "ns", s.frame_validate_ns},
      {"core.hops_per_op", "count",
       med([](const TrialResult& t) { return t.per_op.frames_executed; })},
      {"core.forwards_per_op", "count",
       med([](const TrialResult& t) { return t.per_op.forwards; })},
      {"core.code_bytes_per_op", "bytes",
       med([](const TrialResult& t) { return t.per_op.code_bytes; })},
      {"core.send_failures", "count",
       med([](const TrialResult& t) { return t.send_failures; })},
      {"vm.instrs_per_op", "count",
       med([](const TrialResult& t) { return t.per_op.interp_instrs; })},
      {"fabric.rtt_us", "us", s.rtt_us},
      {"fabric.get_rtt_us", "us", s.get_rtt_us},
      {"fabric.post_send_ns", "ns", s.post_send_ns},
      {"fabric.post_send_p99_ns", "ns", s.post_send_p99_ns},
      {"fabric.frames_per_op", "count",
       med([](const TrialResult& t) { return t.per_op.wire_frames; })},
      {"fabric.bytes_per_op", "bytes",
       med([](const TrialResult& t) { return t.per_op.wire_bytes; })},
      {"fabric.stalls", "count",
       med([](const TrialResult& t) { return t.per_op.stalls; })},
      {"fabric.wire_wait_us", "us", b.wire_us},
      {"core.decode_us", "us", b.decode_us},
      {"core.dispatch_us", "us", b.dispatch_us},
      {"core.execute_us", "us", b.execute_us},
      {"fabric.reply_wait_us", "us", b.reply_us},
      {"workloads.unattributed_us", "us", b.unattributed_us},
      {"workloads.traced_latency_p50_us", "us", b.latency_p50_us},
      {"core.path_hops", "count", b.path_hops},
      {"core.execute_ns", "ns", b.execute_ns},
      {"core.execute_p99_ns", "ns", b.execute_p99_ns},
      {"obs.trace_overhead_pct", "%", overhead.is_ok() ? *overhead : 0.0},
      {"obs.spans_dropped", "count", static_cast<double>(b.dropped)},
  };
  std::string note = "traced run: " + std::to_string(b.ops) + " ops folded, " +
                     std::to_string(b.incomplete) + " incomplete, " +
                     std::to_string(b.events) + " spans";
  if (!args.trace_out.empty()) note += " -> " + args.trace_out;
  return report(args, spec, tally, clean && ok.size() == trials.size(), metrics,
                trials, note, ",\"traced_ops\":" + std::to_string(b.ops));
}

/// Every workload at 1/50 of its op counts, one trial each, checking
/// answers only.
int quick_run(const Args& args) {
  bool all_ok = true;
  for (const WorkloadSpec& spec : workload_specs()) {
    const TrialResult t = run_trial(spec, args.seed, /*scale_div=*/50);
    const bool ok = t.error.empty() && t.tally.failed == 0;
    all_ok = all_ok && ok;
    std::printf("%-18s %s  %llu ops checked, %llu failed, %.2f s%s%s\n",
                spec.name, ok ? "ok  " : "FAIL",
                static_cast<unsigned long long>(t.tally.attempted),
                static_cast<unsigned long long>(t.tally.failed), t.seconds,
                t.error.empty() ? "" : "  ", t.error.c_str());
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace tc::suite

int main(int argc, char** argv) {
  using namespace tc::suite;
  // Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, it
  // rises after the first trial frees its large buffers (the shm rings),
  // and later trials reuse warm heap pages: set-up time then depends on
  // the trial's position in the run instead of on the code.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args args = parse_args(argc, argv);
  if (!args.compare.empty()) {
    return run_compare(args.compare[0], args.compare[1], args.benchmark);
  }
  const std::size_t cpus = online_cpus();
  if (cpus < kServers + 1) {
    std::fprintf(stderr,
                 "tc_bench: WARNING: %zu CPUs online but the load shape runs "
                 "%zu busy threads (%zu server progress threads + 1 "
                 "initiator); the cores are oversubscribed and results are "
                 "not comparable with a %zu-CPU host\n",
                 cpus, kServers + 1, kServers, kServers + 1);
  }
  if (args.quick) return quick_run(args);
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) usage("--workload names no workload");
  if (args.seconds == 0) {
    auto seconds = benchmark_run_seconds(args.benchmark);
    if (!seconds.is_ok()) {
      std::fprintf(stderr, "tc_bench: %s\n", seconds.status().to_string().c_str());
      return 2;
    }
    args.seconds = *seconds;
  }
  return args.trace ? traced_run(args, *spec) : measured_run(args, *spec);
}
