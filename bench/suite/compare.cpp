// --compare: the wall-clock half of a bench diff. Each input is a result
// set written by run.sh --out (or a single run written by tc_bench --out);
// runs are grouped per (metric, workload) and the two sides' medians are
// judged against the end-to-end bounds in BENCHMARK.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench.hpp"

namespace tc::suite {

namespace {

struct Bound {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  double bound = 0;
};

struct Side {
  /// values[workload][metric], one entry per measured run.
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  std::map<std::string, double> attempted;
  std::map<std::string, double> failed;
};

double number(const Json* value) {
  return value != nullptr && value->type == Json::Type::kNumber ? value->number
                                                                : 0.0;
}

Status add_run(const Json& run, Side& side) {
  const Json* workload = run.find("workload");
  const Json* metrics = run.find("metrics");
  if (workload == nullptr || metrics == nullptr) {
    return invalid_argument("a run lacks \"workload\" or \"metrics\"");
  }
  if (const Json* trace = run.find("trace");
      trace != nullptr && trace->boolean) {
    return Status::ok();  // traced runs carry per-layer metrics only
  }
  const std::string& name = workload->string;
  side.attempted[name] += number(run.find("attempted"));
  side.failed[name] += number(run.find("failed"));
  for (const auto& [metric, entry] : metrics->object) {
    side.values[name][metric].push_back(number(entry.find("value")));
  }
  return Status::ok();
}

StatusOr<Side> load_side(const std::string& path) {
  TC_ASSIGN_OR_RETURN(Json doc, read_json_file(path));
  Side side;
  if (const Json* runs = doc.find("runs"); runs != nullptr) {
    for (const Json& run : runs->array) TC_RETURN_IF_ERROR(add_run(run, side));
  } else {
    TC_RETURN_IF_ERROR(add_run(doc, side));
  }
  if (side.values.empty()) return invalid_argument(path + ": no measured runs");
  return side;
}

StatusOr<std::vector<Bound>> load_bounds(const std::string& path) {
  TC_ASSIGN_OR_RETURN(Json doc, read_json_file(path));
  const Json* list = doc.find("end_to_end");
  if (list == nullptr) return invalid_argument(path + ": no end_to_end list");
  std::vector<Bound> bounds;
  for (const Json& entry : list->array) {
    const Json* name = entry.find("name");
    const Json* better = entry.find("better");
    if (name == nullptr || better == nullptr) {
      return invalid_argument(path + ": end_to_end entry lacks name/better");
    }
    const Json* unit = entry.find("unit");
    bounds.push_back({name->string, unit != nullptr ? unit->string : "",
                      better->string != "higher", number(entry.find("bound"))});
  }
  return bounds;
}

/// Relative IQR: the run-to-run spread as a share of the median.
double spread(const std::vector<double>& v) {
  const double m = median(v);
  return m != 0 ? (quantile(v, 0.75) - quantile(v, 0.25)) / std::abs(m) : 0;
}

/// The verdict rules (README.md, "Comparing two builds"): a spread wider
/// than the bound leaves the metric unresolved unless every change run
/// beats (or loses to) every parent run; otherwise a median worse by more
/// than the bound regresses, and a median better by more than the
/// parent's own spread that also wins nine tenths of the index-paired runs
/// improves.
std::string verdict(const Bound& b, const std::vector<double>& parent,
                    const std::vector<double>& change) {
  auto better = [&](double x, double y) {
    return b.lower_is_better ? x < y : x > y;
  };
  const auto [pmin, pmax] = std::minmax_element(parent.begin(), parent.end());
  const auto [cmin, cmax] = std::minmax_element(change.begin(), change.end());
  const bool all_better = b.lower_is_better ? *cmax < *pmin : *cmin > *pmax;
  const bool all_worse = b.lower_is_better ? *cmin > *pmax : *cmax < *pmin;
  if (spread(parent) > b.bound || spread(change) > b.bound) {
    return all_better ? "improved" : all_worse ? "regressed" : "unresolved";
  }
  const double mp = median(parent);
  const double worse_by =
      mp != 0 ? (b.lower_is_better ? 1 : -1) * (median(change) - mp) / std::abs(mp)
              : 0;
  if (worse_by > b.bound) return "regressed";
  const std::size_t pairs = std::min(parent.size(), change.size());
  std::size_t wins = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    if (better(change[i], parent[i])) ++wins;
  }
  if (-worse_by > spread(parent) && wins * 10 >= pairs * 9) return "improved";
  return "within bound";
}

std::string describe(const std::vector<double>& v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.5g [%.5g, %.5g] n=%zu", median(v),
                quantile(v, 0.25), quantile(v, 0.75), v.size());
  return buf;
}

double share(const Side& side, const std::string& workload) {
  auto a = side.attempted.find(workload);
  auto f = side.failed.find(workload);
  if (a == side.attempted.end() || a->second == 0) return 0;
  return (f == side.failed.end() ? 0 : f->second) / a->second;
}

}  // namespace

int run_compare(const std::string& parent_path, const std::string& change_path,
                const std::string& benchmark_json) {
  auto bounds = load_bounds(benchmark_json);
  auto parent = load_side(parent_path);
  auto change = load_side(change_path);
  for (const Status& s : {bounds.status(), parent.status(), change.status()}) {
    if (!s.is_ok()) {
      std::fprintf(stderr, "tc_bench --compare: %s\n", s.to_string().c_str());
      return 2;
    }
  }
  bool regressed = false;
  std::printf("%-16s %-18s %-44s %-44s %s\n", "metric", "workload",
              "parent median [q1, q3]", "change median [q1, q3]", "verdict");
  for (const auto& [workload, parent_metrics] : parent->values) {
    auto change_metrics = change->values.find(workload);
    if (change_metrics == change->values.end()) {
      std::printf("%-16s %-18s only in the parent set\n", "-", workload.c_str());
      continue;
    }
    for (const Bound& b : *bounds) {
      auto p = parent_metrics.find(b.name);
      auto c = change_metrics->second.find(b.name);
      if (p == parent_metrics.end() || c == change_metrics->second.end()) {
        continue;
      }
      const std::string v = verdict(b, p->second, c->second);
      regressed = regressed || v == "regressed";
      std::printf("%-16s %-18s %-44s %-44s %s\n", b.name.c_str(),
                  workload.c_str(), describe(p->second).c_str(),
                  describe(c->second).c_str(), v.c_str());
    }
    const double fp = share(*parent, workload);
    const double fc = share(*change, workload);
    // More failed ops than the parent voids any gain on the workload.
    const bool more_failures = fc > fp;
    regressed = regressed || more_failures;
    std::printf("%-16s %-18s %-44.6g %-44.6g %s\n", "failed_share",
                workload.c_str(), fp, fc,
                more_failures ? "regressed" : "within bound");
  }
  return regressed ? 1 : 0;
}

}  // namespace tc::suite
