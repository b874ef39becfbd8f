// Seed plumbing: every input the benchmark generates comes from the run's
// --seed through these two functions, never from a clock or std::random_device.
#pragma once

#include <cstdint>

namespace perfbench {

// splitmix64: a tiny, fully specified generator (no std:: distribution,
// whose output is implementation-defined), so a seed yields the same inputs
// on any platform.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi): 53 random bits scaled exactly.
  double uniform(double lo, double hi) {
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
  }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

// An independent sub-seed per input kind (scene, photons, rays, job mix).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return SplitMix(seed ^ (stream * 0xD1B54A32D192ED03ULL)).next();
}

}  // namespace perfbench
