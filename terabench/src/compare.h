/// @file compare.h
/// @brief Compare mode: diffs two result files (JSON lines appended by
/// `terabench --record FILE`, one per run) against the bounds in
/// BENCHMARK.json.
///
/// For each (workload, metric) it prints both medians, both quartile spreads
/// and a verdict. A metric whose spread is wider than its bound is
/// "unresolved" unless every new run reads better than every base run. Runs
/// whose inputs (n, m, CSR hash) differ between the files are not compared:
/// the workload is reported as an input mismatch, an error rather than a
/// regression or a gain.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace terabench {

struct MetricRule {
  std::string name;
  bool higher_is_better = false;
  double bound = 0.0; ///< largest tolerated worsening, as a share of the base median
};

enum class Verdict { kWithinBound, kRegression, kBetter, kUnresolved };

[[nodiscard]] std::string_view verdict_name(Verdict verdict);

/// The verdict for one (workload, metric) from the base and new runs' values.
[[nodiscard]] Verdict judge(const MetricRule &rule, const std::vector<double> &base,
                            const std::vector<double> &change);

/// Runs compare mode and prints the table to stdout. Returns the exit code:
/// 0 when nothing regressed, 1 on a regression, 2 on an input mismatch or an
/// unreadable file.
int compare_results(const std::filesystem::path &bounds, const std::filesystem::path &base,
                    const std::filesystem::path &change);

} // namespace terabench
