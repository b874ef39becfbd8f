// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//   perfbench --list-metrics
//
// Human-readable lines first; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}:
// the end-to-end metrics, or with --trace 1 the per-layer ones. Exit code 0
// whenever that line is printed, 2 on bad arguments, 1 when the workload
// could not run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

void print_names(const char* title, const std::vector<std::pair<std::string, std::string>>& names,
                 bool last) {
  std::printf("\"%s\": [", title);
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i ? ", " : "", names[i].first.c_str(),
                names[i].second.c_str());
  }
  std::printf("]%s", last ? "" : ", ");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--work-dir DIR | --list-metrics\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      std::printf("{\"workloads\": [");
      const auto& w = perfbench::workload_names();
      for (std::size_t k = 0; k < w.size(); ++k) std::printf("%s\"%s\"", k ? ", " : "", w[k].c_str());
      std::printf("], ");
      print_names("end_to_end", perfbench::end_to_end_metrics(), false);
      print_names("per_layer", perfbench::per_layer_metrics(), true);
      std::printf("}\n");
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = value == "1";
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      } else if (arg == "--work-dir") {
        opt.work_dir = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload || opt.work_dir.empty() || !(opt.seconds > 0.0)) {
    return usage("--workload, --work-dir and a positive --seconds are required");
  }

  perfbench::Report report;
  try {
    std::filesystem::create_directories(opt.work_dir);
    report = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& failure : report.failures) std::printf("# FAILED %s\n", failure.c_str());
  const double error_rate = report.attempted == 0 ? 1.0
                                                  : static_cast<double>(report.failed) /
                                                        static_cast<double>(report.attempted);
  std::printf("# %-28s %.6g fraction (%llu failed of %llu attempted)\n", "error_rate", error_rate,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", m.name.c_str());
    if (std::isfinite(m.value)) std::printf("%.17g", m.value);
    else std::printf("null");
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
