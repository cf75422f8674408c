// Quantile summary of repeated measurements: median, quartiles, extremes and
// sample count. Quartiles use the "exclusive" rule of Python's
// statistics.quantiles(data, n=4), so a summary printed here matches what a
// script computes from the same samples.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perf {

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};

/// Summarizes `samples`; an empty input yields an all-zero summary with n == 0.
inline Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.max = samples.back();
  s.median = s.n % 2 == 1 ? samples[s.n / 2] : 0.5 * (samples[s.n / 2 - 1] + samples[s.n / 2]);
  if (s.n == 1) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(method="exclusive"): position i * (n + 1) / 4,
  // clamped to [1, n - 1], linearly interpolated.
  const auto quartile = [&samples](std::size_t i) {
    const std::size_t ld = samples.size();
    const std::size_t m = ld + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

}  // namespace perf
