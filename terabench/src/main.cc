/// terabench: TeraPart's end-to-end and per-layer benchmark.
///
///   terabench --workload NAME --seed N --seconds S --trace 0|1
///             [--smoke] [--threads P] [--trace-out FILE] [--record FILE]
///   terabench parity [--seed N]
///   terabench compare --bounds BENCHMARK.json BASE.jsonl NEW.jsonl
///
/// A run prints readable lines and, as its last line, one JSON object
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// untraced, the per-layer metrics traced. `--record` appends that object,
/// with the workload, seed and input identity, to a JSON-lines file that
/// compare mode reads. `parity` runs the p=1 parity check of the traced
/// composition on the smoke size of every workload.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>

#include "common/json.h"
#include "compare.h"
#include "stats.h"
#include "workloads.h"

namespace {

namespace json = terapart::json;
using namespace terabench;

[[noreturn]] void usage(const char *message) {
  std::fprintf(stderr,
               "terabench: %s\n"
               "usage: terabench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n"
               "                 [--threads P] [--trace-out FILE] [--record FILE]\n"
               "       terabench parity [--seed N]\n"
               "       terabench compare --bounds BENCHMARK.json BASE.jsonl NEW.jsonl\n",
               message);
  std::exit(2);
}

std::uint64_t parse_number(const std::string &text, const char *what) {
  try {
    std::size_t used = 0;
    const unsigned long long value = std::stoull(text, &used);
    if (used == text.size()) {
      return value;
    }
  } catch (const std::exception &) {
  }
  usage((std::string("bad value for ") + what + ": " + text).c_str());
}

json::Value result_object(const RunOutcome &outcome) {
  json::Value result = json::Value::object();
  result["correct"] = outcome.correct && outcome.failed == 0;
  result["attempted"] = outcome.attempted;
  result["failed"] = outcome.failed;
  json::Value &metrics = result["metrics"];
  metrics = json::Value::object();
  for (const Metric &metric : outcome.metrics) {
    json::Value &entry = metrics[metric.name];
    entry["value"] = metric.value;
    entry["unit"] = metric.unit;
  }
  return result;
}

int run(const RunOptions &options, const bool smoke, const std::string &record) {
  const WorkloadSpec &spec = *options.spec;
  std::printf("workload %s: %s, k=%u eps=%g, p=%d, seed %" PRIu64 ", %s\n",
              std::string(spec.name).c_str(), std::string(spec.graph).c_str(), spec.k,
              spec.epsilon, options.threads, options.seed,
              options.trace ? "traced" : "untraced");
  RunOutcome outcome;
  try {
    outcome = run_workload(options);
  } catch (const std::exception &e) {
    std::fprintf(stderr, "terabench: %s\n", e.what());
    return 1;
  }
  std::printf("input: n=%u m=%" PRIu64 " hash=0x%016" PRIx64 "\n", outcome.input.n,
              static_cast<std::uint64_t>(outcome.input.m), outcome.input.hash);
  std::printf("ops: attempted %" PRIu64 ", failed %" PRIu64 " (failed_frac %g), degraded %" PRIu64
              "\n",
              outcome.attempted, outcome.failed,
              static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted),
              outcome.degraded);
  if (!outcome.op_seconds.empty()) {
    const Quartiles q = quartiles(outcome.op_seconds);
    std::printf("op seconds: %zu samples, min %.4f, q1 %.4f, median %.4f, q3 %.4f, max %.4f\n",
                outcome.op_seconds.size(),
                *std::min_element(outcome.op_seconds.begin(), outcome.op_seconds.end()), q.q1,
                median(outcome.op_seconds), q.q3,
                *std::max_element(outcome.op_seconds.begin(), outcome.op_seconds.end()));
  }
  for (const std::string &error : outcome.errors) {
    std::printf("error: %s\n", error.c_str());
  }
  if (options.trace && !options.trace_out.empty()) {
    std::printf("spans: %s\n", options.trace_out.c_str());
  }
  for (const Metric &metric : outcome.metrics) {
    std::printf("  %-36s %16.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  const json::Value result = result_object(outcome);
  if (!record.empty()) {
    json::Value line = json::Value::object();
    line["workload"] = spec.name;
    line["seed"] = options.seed;
    line["trace"] = options.trace;
    line["smoke"] = smoke;
    line["threads"] = options.threads;
    json::Value &input = line["input"];
    input["n"] = outcome.input.n;
    input["m"] = static_cast<std::uint64_t>(outcome.input.m);
    input["hash"] = std::to_string(outcome.input.hash);
    line["degraded"] = outcome.degraded;
    line["result"] = result;
    std::ofstream(record, std::ios::app) << line.dump(-1) << "\n";
  }
  std::printf("%s\n", result.dump(-1).c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "compare") {
    std::string bounds;
    std::vector<std::string> files;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--bounds" && i + 1 < args.size()) {
        bounds = args[++i];
      } else {
        files.push_back(args[i]);
      }
    }
    if (bounds.empty() || files.size() != 2) {
      usage("compare needs --bounds and two result files");
    }
    return compare_results(bounds, files[0], files[1]);
  }

  RunOptions options;
  std::string workload;
  std::string record;
  bool smoke = false;
  bool parity = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string &arg = args[i];
    const auto value = [&]() -> const std::string & {
      if (i + 1 >= args.size()) {
        usage((arg + " needs a value").c_str());
      }
      return args[++i];
    };
    if (arg == "parity" && i == 0) {
      parity = true;
    } else if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      options.seed = parse_number(value(), "--seed");
    } else if (arg == "--seconds") {
      options.seconds = static_cast<double>(parse_number(value(), "--seconds"));
      have_seconds = true;
    } else if (arg == "--trace") {
      options.trace = parse_number(value(), "--trace") != 0;
      have_trace = true;
    } else if (arg == "--threads") {
      options.threads = static_cast<int>(parse_number(value(), "--threads"));
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--record") {
      record = value();
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }

  if (parity) {
    int failures = 0;
    for (const std::string_view name : workload_names()) {
      const std::string differences = check_parity(*find_workload(name, true), options.seed);
      std::printf("parity %-18s %s\n", std::string(name).c_str(),
                  differences.empty() ? "ok" : differences.c_str());
      failures += differences.empty() ? 0 : 1;
    }
    return failures == 0 ? 0 : 1;
  }

  options.spec = find_workload(workload, smoke);
  if (options.spec == nullptr) {
    usage(("unknown workload '" + workload + "' (web, rhg-dense, web-strong-serve)").c_str());
  }
  if (!have_seconds || !have_trace || options.threads < 1) {
    usage("a run needs --seconds and --trace, and --threads must be at least 1");
  }
  return run(options, smoke, record);
}
