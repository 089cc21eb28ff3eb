/// @file stats.h
/// @brief The benchmark's arithmetic: medians, quartiles as Python's
/// `statistics.quantiles(values, n=4)` computes them, relative spreads, and
/// ratios with an explicit base.
#pragma once

#include <vector>

namespace terabench {

/// First, second and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so a spread computed here matches one
/// computed from the same numbers in Python. One value gives three equal
/// quartiles; no value gives zeros.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// The middle value (mean of the two middle values for an even count); 0 for
/// no values.
[[nodiscard]] double median(std::vector<double> values);

/// (q3 - q1) / median: the run-to-run spread a bound is compared against.
/// 0 when the median is 0.
[[nodiscard]] double relative_spread(const std::vector<double> &values);

/// numerator / base, or 0 when the base is 0 (a ratio of no attempts).
[[nodiscard]] double ratio(double numerator, double base);

/// FM moves kept over moves tried: moves / (moves + rollbacks).
[[nodiscard]] double useful_ratio(double moves, double rollbacks);

/// Share of the initial cut that refinement removed: 1 - final / initial
/// (0 when the initial cut is 0).
[[nodiscard]] double cut_reduction(double initial_cut, double final_cut);

} // namespace terabench
