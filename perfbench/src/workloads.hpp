// The benchmark's workloads (see workloads.cpp for why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <map>
#include <vector>

namespace rfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/runs";  ///< checkpoint + trace files
};

/// What one run prints: the result line's fields plus a detail object
/// (JSON text) printed on the line before it.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;  ///< by metric name
  std::string detail_json;
};

const std::vector<std::string>& workload_names();

/// Generates the workload's inputs from `options.seed`, sets up the
/// serving stack, measures for `options.seconds` and checks every
/// response. Throws on an unknown workload or a failed setup.
RunResult run_workload(const Options& options);

}  // namespace rfbench
