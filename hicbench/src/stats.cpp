#include "stats.h"

#include <algorithm>
#include <cmath>

namespace hicbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2.0;
}

std::optional<TailPercentile> tail_percentile(std::vector<double> samples,
                                              double wanted,
                                              std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n < min_beyond + 1) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest index i with (i + 1) / n >= wanted.
  const auto rank =
      static_cast<std::size_t>(std::ceil(wanted * static_cast<double>(n)));
  std::size_t index = rank == 0 ? 0 : rank - 1;
  index = std::min(index, n - 1 - min_beyond);
  TailPercentile out;
  out.quantile = static_cast<double>(index + 1) / static_cast<double>(n);
  out.value = samples[index];
  out.samples = n;
  out.beyond = n - 1 - index;
  return out;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace hicbench
