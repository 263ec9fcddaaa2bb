#include "stats.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::pair<double, double> quartiles(std::vector<double> samples) {
  if (samples.empty()) return {0.0, 0.0};
  if (samples.size() == 1) return {samples[0], samples[0]};
  std::sort(samples.begin(), samples.end());
  const long long n = static_cast<long long>(samples.size());
  auto cut = [&](long long i) {  // CPython's statistics.quantiles loop body
    const long long m = n + 1;
    const long long j = std::clamp(i * m / 4, 1LL, n - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    return (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  };
  return {cut(1), cut(3)};
}

Tail tail(std::vector<double> samples) {
  Tail t;
  t.n = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  if (t.n < 21) {
    t.value = samples.back();
    return t;
  }
  t.value = samples[t.n - 11];
  t.percentile = 100.0 * static_cast<double>(t.n - 10) /
                 static_cast<double>(t.n);
  return t;
}

}  // namespace perfbench
