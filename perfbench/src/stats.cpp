#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::optional<double> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || !(q > 0.0) || q > 100.0) return std::nullopt;
  std::size_t rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n == 0) return 0.0;
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double max_over_mean(const std::vector<std::uint64_t>& loads) {
  if (loads.empty()) return 0.0;
  double sum = 0.0;
  double peak = 0.0;
  for (const std::uint64_t v : loads) {
    sum += static_cast<double>(v);
    peak = std::max(peak, static_cast<double>(v));
  }
  return sum > 0.0 ? peak / (sum / static_cast<double>(loads.size())) : 0.0;
}

}  // namespace perfbench
