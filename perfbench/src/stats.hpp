// Order statistics for the benchmark's reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

// A timing percentile is reported only when at least this many samples lie
// beyond it, so p90 needs 100 samples and p50 needs 20.
inline constexpr std::size_t kMinSamplesBeyond = 10;

// Nearest-rank percentile (q in (0, 100]): the ceil(q/100 * n)-th smallest
// sample. Refused (nullopt) when fewer than kMinSamplesBeyond samples lie
// above that rank, or when there are no samples.
std::optional<double> percentile(std::vector<double> samples, double q);

// Plain median (mean of the two middle samples for even n); 0 when empty.
double median(std::vector<double> samples);

// max / mean of a load vector; 0 when empty or all zero.
double max_over_mean(const std::vector<std::uint64_t>& loads);

}  // namespace perfbench
