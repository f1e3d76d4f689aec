// rfbench: one run of one workload of the end-to-end benchmark.
//
//   rfbench --workload NAME --seed N --seconds S --trace 0|1
//           [--out-dir DIR] [--git-sha SHA]
//   rfbench --list-metrics
//
// Prints a provenance line and a detail line (JSON objects), then, as the
// last line, {"correct", "attempted", "failed", "metrics"}: every
// end-to-end metric of BENCHMARK.json for --trace 0, every per-layer metric
// for --trace 1. The error rate (failed, timed-out or wrong responses over
// attempted) is `failed` / `attempted` of that line; it is not a metric
// because it reads 0 on a healthy build.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu.hpp"
#include "plan/plan.hpp"
#include "stats.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

/// ROADFUSION_* variables that change what the program computes or which
/// kernels it runs. A run with any of them set would not measure the
/// shipped defaults, so the benchmark refuses to report.
const char* const kProgramVariables[] = {
    "ROADFUSION_PLAN",          "ROADFUSION_KERNEL_BACKEND",
    "ROADFUSION_CPU_FEATURES",  "ROADFUSION_PERF_DB",
    "ROADFUSION_SOLVER",        "ROADFUSION_QUANT",
    "ROADFUSION_PLANNED_INFERENCE", "ROADFUSION_KERNEL_THREADS",
};

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metric_list(const std::vector<rfbench::MetricSpec>& specs) {
  std::string out = "[";
  for (size_t i = 0; i < specs.size(); ++i) {
    out += (i ? ",{\"name\":" : "{\"name\":") + quoted(specs[i].name) +
           ",\"unit\":" + quoted(specs[i].unit) + "}";
  }
  return out + "]";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "rfbench: %s\nusage: rfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]\n"
               "       rfbench --list-metrics\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rfbench::Options options;
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      std::printf("{\"workloads\":[");
      const auto& names = rfbench::workload_names();
      for (size_t w = 0; w < names.size(); ++w) {
        std::printf("%s%s", w ? "," : "", quoted(names[w]).c_str());
      }
      std::printf("],\"end_to_end\":%s,\"per_layer\":%s}\n",
                  metric_list(rfbench::end_to_end_metrics()).c_str(),
                  metric_list(rfbench::per_layer_metrics()).c_str());
      return 0;
    }
    if (i + 1 >= argc) {
      return usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        return usage("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload || !(options.seconds > 0.0)) {
    return usage("--workload and a positive --seconds are required");
  }

  std::string env_snapshot;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("ROADFUSION_", 0) != 0) {
      continue;
    }
    const size_t eq = entry.find('=');
    env_snapshot += (env_snapshot.empty() ? "" : ",") +
                    quoted(entry.substr(0, eq)) + ":" +
                    quoted(eq == std::string::npos ? "" : entry.substr(eq + 1));
  }
  for (const char* name : kProgramVariables) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "rfbench: refusing to report: %s is set, so the run would "
                   "not measure the shipped defaults\n",
                   name);
      return 3;
    }
  }

  std::printf(
      "{\"provenance\":{\"git_sha\":%s,\"cpu_tier\":%s,\"nproc\":%ld,"
      "\"hardware_concurrency\":%u,\"compiler\":%s,\"build_type\":%s,"
      "\"plan_enabled\":%s,\"workload\":%s,\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"env\":{%s}}}\n",
      quoted(git_sha).c_str(),
      quoted(roadfusion::common::tier_name(roadfusion::common::active_tier()))
          .c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      quoted(RFBENCH_COMPILER).c_str(), quoted(RFBENCH_BUILD_TYPE).c_str(),
      roadfusion::plan::planning_enabled() ? "true" : "false",
      quoted(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      rfbench::format_number(options.seconds).c_str(), options.trace ? 1 : 0,
      env_snapshot.c_str());
  std::fflush(stdout);

  rfbench::RunResult result;
  try {
    result = rfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rfbench: %s\n", e.what());
    return 1;
  }
  std::printf("{\"detail\":%s}\n", result.detail_json.c_str());
  std::string metrics;
  const auto& specs = options.trace ? rfbench::per_layer_metrics()
                                    : rfbench::end_to_end_metrics();
  for (const rfbench::MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      std::fprintf(stderr, "rfbench: metric %s was not measured\n",
                   spec.name.c_str());
      return 1;
    }
    metrics += (metrics.empty() ? "" : ",") + quoted(spec.name) +
               ":{\"value\":" + rfbench::format_number(it->second) +
               ",\"unit\":" + quoted(spec.unit) + "}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
