// The benchmark's three workloads and the metrics they report (METHOD.md).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch files (socket, checkpoints, spans); must exist
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;  // runs or jobs whose outputs were checked
  std::uint64_t failed = 0;     // of those, how many failed a check
  std::vector<std::string> failures;  // one line per failed check (capped)
  std::vector<Metric> metrics;        // end-to-end, or per-layer when traced
  std::vector<std::string> notes;     // human-readable detail
  bool correct() const { return failed == 0; }
};

// Metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
const std::vector<std::string>& workload_names();

// Runs one workload. Throws std::invalid_argument on an unknown workload and
// std::runtime_error when the run cannot produce its metrics at all.
Report run_workload(const Options& options);

}  // namespace perfbench
