// Order statistics the benchmark reports.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// Median (mean of the middle pair for even sizes); 0 for no samples.
double median(std::vector<double> samples);

/// (first quartile, third quartile) by the same rule as Python's
/// statistics.quantiles(samples, n=4) (method "exclusive"); both equal
/// the single sample when there is one, 0 for none.
std::pair<double, double> quartiles(std::vector<double> samples);

/// The tail of a latency sample: the highest percentile with at least
/// ten samples beyond it, i.e. the 11th-largest value. Below 21 samples
/// that value is not above the median, so the maximum is reported
/// instead (percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t n = 0;
};
Tail tail(std::vector<double> samples);

}  // namespace perfbench
