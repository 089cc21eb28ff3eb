#include "stats.h"

#include <algorithm>

namespace terabench {

Quartiles quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto count = static_cast<long>(values.size());
  if (count == 0) {
    return {};
  }
  if (count == 1) {
    return {values[0], values[0], values[0]};
  }
  // statistics.quantiles(method="exclusive"): m = len + 1, cut point i at
  // position i * m / 4, linearly interpolated in exact integer steps.
  const long m = count + 1;
  double cut[3] = {};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, count - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                  values[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double relative_spread(const std::vector<double> &values) {
  const double mid = median(values);
  if (mid == 0.0) {
    return 0.0;
  }
  const Quartiles q = quartiles(values);
  return (q.q3 - q.q1) / mid;
}

double ratio(const double numerator, const double base) {
  return base == 0.0 ? 0.0 : numerator / base;
}

double useful_ratio(const double moves, const double rollbacks) {
  return ratio(moves, moves + rollbacks);
}

double cut_reduction(const double initial_cut, const double final_cut) {
  return initial_cut == 0.0 ? 0.0 : 1.0 - final_cut / initial_cut;
}

} // namespace terabench
