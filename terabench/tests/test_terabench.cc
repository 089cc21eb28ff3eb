// Tests of the benchmark itself: its arithmetic (quartiles, self times,
// ratios, compare verdicts), the p=1 parity of the traced composition, and a
// smoke run of every workload against the metric names in BENCHMARK.json.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics_registry.h"
#include "compare.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace terabench {
namespace {

namespace json = terapart::json;

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // Reference values from statistics.quantiles(values, n=4).
  const Quartiles ten = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.q2, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);
  const Quartiles three = quartiles({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(three.q1, 1.0);
  EXPECT_DOUBLE_EQ(three.q3, 3.0);
  // Two values: the exclusive method extrapolates beyond the data.
  const Quartiles two = quartiles({0.5, 0.25});
  EXPECT_DOUBLE_EQ(two.q1, 0.1875);
  EXPECT_DOUBLE_EQ(two.q2, 0.375);
  EXPECT_DOUBLE_EQ(two.q3, 0.5625);
  const Quartiles one = quartiles({4.0});
  EXPECT_DOUBLE_EQ(one.q1, 4.0);
  EXPECT_DOUBLE_EQ(one.q3, 4.0);
}

TEST(Stats, MedianAndRelativeSpread) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  // (8.25 - 2.75) / 5.5
  EXPECT_DOUBLE_EQ(relative_spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0);
  EXPECT_DOUBLE_EQ(relative_spread({0, 0, 0}), 0.0);
}

TEST(Stats, RatiosWithTheirBases) {
  EXPECT_DOUBLE_EQ(ratio(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(ratio(3, 0), 0.0); // steal_success with no steal attempts
  EXPECT_DOUBLE_EQ(useful_ratio(1, 3), 0.25);
  EXPECT_DOUBLE_EQ(useful_ratio(0, 0), 0.0); // FM bypassed
  EXPECT_DOUBLE_EQ(cut_reduction(200, 150), 0.25);
  EXPECT_DOUBLE_EQ(cut_reduction(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(cut_reduction(0, 0), 0.0);
}

Span make_span(const double start, const double end, const int parent) {
  Span span;
  span.start_s = start;
  span.end_s = end;
  span.parent = parent;
  return span;
}

TEST(Trace, SelfTimeSubtractsMergedAndClippedChildren) {
  const std::vector<Span> spans = {
      make_span(0, 10, -1), // root
      make_span(1, 3, 0),   // overlaps the next child: [1, 5] covers 4
      make_span(2, 5, 0),
      make_span(9, 12, 0), // clipped to the root: covers 1
      make_span(2, 3, 2),  // grandchild: charged to its parent only
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[3], 3.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(Trace, SpansNestAndRecordCounterDeltas) {
  Tracer tracer;
  tracer.set_op(3);
  const int result = traced(&tracer, "outer", -1, [&] {
    traced(&tracer, "inner", 2, [] {
      terapart::MetricsRegistry::global().add_counter("refinement.lp.moves", 7);
    });
    return 42;
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(traced(nullptr, "untraced", -1, [] { return 5; }), 5);
  const std::vector<Span> &spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].level, 2);
  EXPECT_EQ(spans[1].op, 3u);
  EXPECT_EQ(spans[1].counter("refinement.lp.moves"), 7u);
  EXPECT_EQ(spans[0].counter("refinement.lp.moves"), 7u);
  EXPECT_LE(spans[0].start_s, spans[1].start_s);
  EXPECT_GE(spans[0].end_s, spans[1].end_s);
}

TEST(Compare, Verdicts) {
  const MetricRule time{"partition_s", false, 0.1};
  const std::vector<double> base = {1.00, 1.01, 0.99, 1.00, 1.02};
  EXPECT_EQ(judge(time, base, {1.03, 1.00, 1.05, 0.98, 1.04}), Verdict::kWithinBound);
  EXPECT_EQ(judge(time, base, {1.20, 1.00, 1.22, 1.19, 1.21}), Verdict::kRegression);
  EXPECT_EQ(judge(time, base, {0.80, 0.81, 0.79, 0.80, 0.82}), Verdict::kBetter);
  EXPECT_EQ(judge(time, {1.0, 2.0, 0.5, 3.0, 1.0}, base), Verdict::kUnresolved);
  EXPECT_EQ(judge(time, {}, base), Verdict::kUnresolved);
  // A wide spread still resolves when every new run beats every base run.
  EXPECT_EQ(judge(time, {2.0, 3.0, 4.0, 5.0}, {1.0, 1.5, 0.5, 1.9}), Verdict::kBetter);

  const MetricRule rate{"edges_per_s", true, 0.1};
  EXPECT_EQ(judge(rate, base, {0.80, 0.82, 0.78, 0.81, 0.79}), Verdict::kRegression);
  EXPECT_EQ(judge(rate, base, {1.20, 1.21, 1.19, 1.22, 1.20}), Verdict::kBetter);
}

std::string record(const std::string &workload, const std::string &hash, const double seconds) {
  std::ostringstream line;
  line << R"({"workload":")" << workload << R"(","input":{"n":10,"m":20,"hash":")" << hash
       << R"("},"result":{"metrics":{"partition_s":{"value":)" << seconds
       << R"(,"unit":"s"}}}})";
  return line.str();
}

void write_lines(const std::string &path, const std::vector<std::string> &lines) {
  std::ofstream out(path);
  for (const std::string &line : lines) {
    out << line << "\n";
  }
}

TEST(Compare, ExitCodesForSameRegressionAndInputMismatch) {
  write_lines("compare_bounds.json",
              {R"({"end_to_end": [{"name": "partition_s", "unit": "s", "better": "lower",)"
               R"( "bound": 0.1}]})"});
  write_lines("compare_base.jsonl",
              {record("web", "1", 1.0), record("web", "1", 1.01), record("web", "1", 0.99)});
  write_lines("compare_same.jsonl",
              {record("web", "1", 1.01), record("web", "1", 1.0), record("web", "1", 0.98)});
  write_lines("compare_slow.jsonl",
              {record("web", "1", 1.3), record("web", "1", 1.29), record("web", "1", 1.31)});
  write_lines("compare_other_input.jsonl",
              {record("web", "2", 1.0), record("web", "2", 1.0), record("web", "2", 1.0)});
  EXPECT_EQ(compare_results("compare_bounds.json", "compare_base.jsonl", "compare_same.jsonl"), 0);
  EXPECT_EQ(compare_results("compare_bounds.json", "compare_base.jsonl", "compare_slow.jsonl"), 1);
  EXPECT_EQ(
      compare_results("compare_bounds.json", "compare_base.jsonl", "compare_other_input.jsonl"),
      2);
}

TEST(Workloads, GeneratedInputsMatchTheirPinnedIdentity) {
  for (const std::string_view name : workload_names()) {
    const WorkloadSpec &spec = *find_workload(name, true);
    EXPECT_EQ(identify(make_source(spec)), spec.expected) << name;
    WorkloadSpec altered = spec;
    altered.expected.hash ^= 1;
    EXPECT_THROW((void)make_source(altered), std::runtime_error) << name;
  }
}

TEST(Parity, TracedCompositionMatchesThePublicApiAtOneThread) {
  for (const std::string_view name : workload_names()) {
    for (const std::uint64_t seed : {1, 2}) {
      EXPECT_EQ(check_parity(*find_workload(name, true), seed), "") << name << " seed " << seed;
    }
  }
}

/// name -> unit of one section of BENCHMARK.json.
std::map<std::string, std::string> declared_metrics(const char *section) {
  std::ifstream in(TERABENCH_BENCHMARK_JSON);
  std::stringstream text;
  text << in.rdbuf();
  json::Value benchmark;
  EXPECT_TRUE(json::parse(text.str(), benchmark));
  std::map<std::string, std::string> metrics;
  for (const json::Value &entry : benchmark.find(section)->as_array()) {
    metrics[entry.find("name")->as_string()] = entry.find("unit")->as_string();
  }
  return metrics;
}

TEST(Smoke, EveryWorkloadEmitsExactlyTheDeclaredMetrics) {
  const auto end_to_end = declared_metrics("end_to_end");
  const auto per_layer = declared_metrics("per_layer");
  for (const std::string_view name : workload_names()) {
    for (const bool trace : {false, true}) {
      RunOptions options;
      options.spec = find_workload(name, true);
      options.seed = 5;
      options.seconds = 0.0; // one op (one cycle of k when served)
      options.trace = trace;
      options.threads = 2;
      const RunOutcome outcome = run_workload(options);
      EXPECT_TRUE(outcome.correct) << name;
      EXPECT_GE(outcome.attempted, 1u);
      EXPECT_EQ(outcome.failed, 0u) << name;
      EXPECT_EQ(outcome.input, options.spec->expected);
      std::map<std::string, std::string> emitted;
      for (const Metric &metric : outcome.metrics) {
        emitted[metric.name] = metric.unit;
        if (!trace) {
          EXPECT_GT(metric.value, 0.0) << name << " " << metric.name;
        }
      }
      EXPECT_EQ(emitted, trace ? per_layer : end_to_end) << name;
    }
  }
}

} // namespace
} // namespace terabench
