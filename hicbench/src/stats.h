// Summary statistics used by every hic-bench workload: medians, the
// tail-percentile rule, geometric means.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace hicbench {

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty set.
[[nodiscard]] double median(std::vector<double> samples);

/// A percentile reported under the rule that at least `min_beyond`
/// samples lie strictly above its rank, so a tail figure is never read
/// off a handful of outliers.
struct TailPercentile {
  double quantile = 0.0;  // rank / n actually reported (<= the one asked)
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples ranked above the reported one
};

/// Nearest-rank percentile `wanted` (0 < wanted < 1) of `samples`, lowered
/// until at least `min_beyond` samples rank above it. Empty when there are
/// not `min_beyond + 1` samples at all.
[[nodiscard]] std::optional<TailPercentile> tail_percentile(
    std::vector<double> samples, double wanted, std::size_t min_beyond = 10);

/// Geometric mean of strictly positive values; 0 when `values` is empty or
/// holds a value <= 0 (a caller bug the workloads check for).
[[nodiscard]] double geomean(const std::vector<double>& values);

}  // namespace hicbench
