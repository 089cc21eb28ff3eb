#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "common/json.h"
#include "stats.h"

namespace terabench {

namespace json = terapart::json;

namespace {

/// The runs of one result file for one workload.
struct WorkloadRuns {
  std::string input; ///< "n/m/hash"; runs with different inputs are an error
  bool mixed_inputs = false;
  std::map<std::string, std::vector<double>> values;
};

using ResultFile = std::map<std::string, WorkloadRuns>;

bool read_json(const std::filesystem::path &path, json::Value &out) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  if (!in || !json::parse(text.str(), out, &error)) {
    std::fprintf(stderr, "terabench compare: cannot read %s %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

bool read_results(const std::filesystem::path &path, ResultFile &out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "terabench compare: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    json::Value record;
    std::string error;
    const json::Value *workload = nullptr;
    const json::Value *input = nullptr;
    const json::Value *metrics = nullptr;
    if (!json::parse(line, record, &error) || (workload = record.find("workload")) == nullptr ||
        (input = record.find("input")) == nullptr || record.find("result") == nullptr ||
        (metrics = record.find("result")->find("metrics")) == nullptr) {
      std::fprintf(stderr, "terabench compare: malformed record in %s\n", path.c_str());
      return false;
    }
    WorkloadRuns &runs = out[workload->as_string()];
    const std::string identity = input->dump(-1);
    if (runs.input.empty()) {
      runs.input = identity;
    } else if (runs.input != identity) {
      runs.mixed_inputs = true;
    }
    for (const auto &[name, metric] : metrics->as_object()) {
      if (const json::Value *value = metric.find("value"); value != nullptr && value->is_number()) {
        runs.values[name].push_back(value->as_double());
      }
    }
  }
  return true;
}

std::vector<MetricRule> read_rules(const json::Value &benchmark) {
  std::vector<MetricRule> rules;
  for (const char *section : {"end_to_end", "per_layer"}) {
    const json::Value *entries = benchmark.find(section);
    if (entries == nullptr || !entries->is_array()) {
      continue;
    }
    for (const json::Value &entry : entries->as_array()) {
      const json::Value *name = entry.find("name");
      const json::Value *better = entry.find("better");
      const json::Value *bound = entry.find("bound");
      if (name == nullptr || better == nullptr) {
        continue;
      }
      // Per-layer metrics have no bound: they are shown, never judged.
      rules.push_back({name->as_string(), better->as_string() == "higher",
                       bound != nullptr ? bound->as_double() : -1.0});
    }
  }
  return rules;
}

/// Signed relative worsening of `change` against `base` (positive = worse).
double worsening(const MetricRule &rule, const double base, const double change) {
  const double relative = ratio(change - base, std::abs(base));
  return rule.higher_is_better ? -relative : relative;
}

} // namespace

std::string_view verdict_name(const Verdict verdict) {
  switch (verdict) {
  case Verdict::kWithinBound:
    return "within-bound";
  case Verdict::kRegression:
    return "REGRESSION";
  case Verdict::kBetter:
    return "better";
  case Verdict::kUnresolved:
    return "unresolved";
  }
  return "?";
}

Verdict judge(const MetricRule &rule, const std::vector<double> &base,
              const std::vector<double> &change) {
  if (base.empty() || change.empty()) {
    return Verdict::kUnresolved;
  }
  const auto [base_min, base_max] = std::minmax_element(base.begin(), base.end());
  const auto [change_min, change_max] = std::minmax_element(change.begin(), change.end());
  const bool every_run_better =
      rule.higher_is_better ? *change_min > *base_max : *change_max < *base_min;
  if (every_run_better) {
    return Verdict::kBetter;
  }
  if (relative_spread(base) > rule.bound || relative_spread(change) > rule.bound) {
    return Verdict::kUnresolved;
  }
  return worsening(rule, median(base), median(change)) > rule.bound ? Verdict::kRegression
                                                                     : Verdict::kWithinBound;
}

int compare_results(const std::filesystem::path &bounds, const std::filesystem::path &base,
                    const std::filesystem::path &change) {
  json::Value benchmark;
  ResultFile base_runs;
  ResultFile change_runs;
  if (!read_json(bounds, benchmark) || !read_results(base, base_runs) ||
      !read_results(change, change_runs)) {
    return 2;
  }
  const std::vector<MetricRule> rules = read_rules(benchmark);
  int exit_code = 0;
  std::printf("%-18s %-36s %14s %14s %8s %8s %8s  %s\n", "workload", "metric", "base", "new",
              "spread0", "spread1", "gain", "verdict");
  for (const auto &[workload, base_workload] : base_runs) {
    const auto it = change_runs.find(workload);
    if (it == change_runs.end()) {
      std::printf("%-18s (no runs in %s)\n", workload.c_str(), change.c_str());
      continue;
    }
    const WorkloadRuns &change_workload = it->second;
    if (base_workload.mixed_inputs || change_workload.mixed_inputs ||
        base_workload.input != change_workload.input) {
      std::printf("%-18s INPUT MISMATCH: %s vs %s\n", workload.c_str(), base_workload.input.c_str(),
                  change_workload.input.c_str());
      exit_code = 2;
      continue;
    }
    for (const MetricRule &rule : rules) {
      const auto base_values = base_workload.values.find(rule.name);
      const auto change_values = change_workload.values.find(rule.name);
      if (base_values == base_workload.values.end() ||
          change_values == change_workload.values.end()) {
        continue;
      }
      const std::vector<double> &a = base_values->second;
      const std::vector<double> &b = change_values->second;
      const bool judged = rule.bound >= 0.0;
      const Verdict verdict = judged ? judge(rule, a, b) : Verdict::kWithinBound;
      if (verdict == Verdict::kRegression && exit_code == 0) {
        exit_code = 1;
      }
      std::printf("%-18s %-36s %14.6g %14.6g %7.1f%% %7.1f%% %+7.1f%%  %s\n", workload.c_str(),
                  rule.name.c_str(), median(a), median(b), 100.0 * relative_spread(a),
                  100.0 * relative_spread(b), -100.0 * worsening(rule, median(a), median(b)),
                  judged ? std::string(verdict_name(verdict)).c_str() : "-");
    }
  }
  return exit_code;
}

} // namespace terabench
