// Pure measurement logic of the end-to-end benchmark: percentiles, the
// tail-percentile rule, goodput classification and the metric-name
// contract. Nothing here touches the program
// under test, so tests/test_logic.cpp covers it without a model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rfbench {

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// The tail a sample supports: the highest percentile of the ladder
/// {50, 90, 99, 99.9, 99.99}, up to `max_percentile`, that still has at
/// least `kMinTailSamples` samples strictly beyond its nearest-rank
/// position. A sample too small for even p50 reports p50 with `beyond` < 10.
inline constexpr size_t kMinTailSamples = 10;
struct TailPoint {
  double percentile = 50.0;
  double value = 0.0;
  size_t beyond = 0;  ///< samples ranked after the percentile's sample
  size_t samples = 0;
};
TailPoint tail_point(std::vector<double> values, double max_percentile = 100.0);

/// The tail of a run cut in time. `in_order` holds latencies in the order
/// they were measured. The run is cut into the most consecutive,
/// near-equal slices (at most `max_slices`) that each still have
/// `kMinTailSamples` samples beyond the percentile tail_point() picks for
/// the whole run (up to `max_percentile`); the value is the median over
/// slices of each slice's value at that percentile, and `beyond` the fewest
/// samples beyond it in any slice. A spell of host noise that covers a
/// minority of the slices then moves the tail little. With one slice this
/// is tail_point().
struct SlicedTail : TailPoint {
  size_t slices = 1;
};
SlicedTail sliced_tail(const std::vector<double>& in_order, size_t max_slices,
                       double max_percentile = 100.0);

/// What one request turned into, in the order the rules apply:
/// a request refused by the door (shed, rate-limited or no shard) or failed
/// by the engine misses; a wrong output misses; a response served at
/// another fidelity than sensor triage alone would pick (the door forced a
/// healthy frame RGB-only) misses; a response after the latency limit
/// misses; everything else is goodput. A frame that triage sends RGB-only
/// because its depth is dead counts when served RGB-only.
enum class Outcome { kGood, kShed, kFailed, kWrong, kOffFidelity, kLate };
const char* to_string(Outcome outcome);

struct Response {
  bool shed = false;
  bool failed = false;
  bool correct = false;
  bool degraded = false;           ///< served RGB-only (engine flag)
  bool triage_degraded = false;    ///< sensor health alone says RGB-only
  double latency_ms = 0.0;         ///< from the request's start
};
Outcome classify(const Response& response, double latency_limit_ms);

/// A JSON number with all its digits ("null" when not finite).
std::string format_number(double value);

/// SplitMix64 stream: the benchmark's own seeded generator.
class SeedStream {
 public:
  explicit SeedStream(uint64_t seed) : state_(seed) {}
  uint64_t next();
  double uniform();  ///< [0, 1)
 private:
  uint64_t state_;
};

/// A metric as BENCHMARK.json declares it.
struct MetricSpec {
  std::string name;
  std::string unit;
};
/// Every end-to-end metric, printed by an untraced run.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Every per-layer metric, printed by a traced run.
const std::vector<MetricSpec>& per_layer_metrics();
/// The solvers whose selections the traced run counts.
const std::vector<std::string>& counted_solvers();

}  // namespace rfbench
