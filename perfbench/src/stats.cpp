#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>

namespace rfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

namespace {

constexpr double kTailLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99};

/// Nearest-rank value of percentile `p` of an ascending sample.
TailPoint point_at(const std::vector<double>& sorted, double p) {
  TailPoint point;
  point.percentile = p;
  point.samples = sorted.size();
  if (sorted.empty()) {
    return point;
  }
  const size_t n = sorted.size();
  // Nearest rank (1-based) of percentile p is ceil(p/100 * n); the samples
  // beyond it are the n - rank larger-ranked ones.
  const double exact = p / 100.0 * static_cast<double>(n);
  // Guard against 0.99 * 1000 = 989.9999... rounding up a whole rank.
  const double rounded = std::round(exact);
  const size_t rank = std::clamp<size_t>(
      std::abs(exact - rounded) < 1e-9 ? static_cast<size_t>(rounded)
                                       : static_cast<size_t>(std::ceil(exact)),
      1, n);
  point.value = sorted[rank - 1];
  point.beyond = n - rank;
  return point;
}

}  // namespace

TailPoint tail_point(std::vector<double> values, double max_percentile) {
  std::sort(values.begin(), values.end());
  TailPoint point = point_at(values, kTailLadder[0]);
  for (double p : kTailLadder) {
    const TailPoint candidate = point_at(values, p);
    if (p > max_percentile || candidate.beyond < kMinTailSamples) {
      break;
    }
    point = candidate;
  }
  return point;
}

SlicedTail sliced_tail(const std::vector<double>& in_order, size_t max_slices,
                       double max_percentile) {
  SlicedTail out;
  static_cast<TailPoint&>(out) = tail_point(in_order, max_percentile);
  if (out.beyond < kMinTailSamples) {
    return out;
  }
  const size_t n = in_order.size();
  for (size_t k = std::min(max_slices, n); k > 1; --k) {
    std::vector<double> values;
    size_t beyond = n;
    for (size_t c = 0; c < k; ++c) {
      const auto at = [&](size_t i) {
        return in_order.begin() + static_cast<std::ptrdiff_t>(i * n / k);
      };
      std::vector<double> slice(at(c), at(c + 1));
      std::sort(slice.begin(), slice.end());
      const TailPoint point = point_at(slice, out.percentile);
      if (point.beyond < kMinTailSamples) {
        break;
      }
      values.push_back(point.value);
      beyond = std::min(beyond, point.beyond);
    }
    if (values.size() == k) {
      out.value = median(values);
      out.beyond = beyond;
      out.slices = k;
      return out;
    }
  }
  return out;
}

const char* to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kGood:
      return "good";
    case Outcome::kShed:
      return "shed";
    case Outcome::kFailed:
      return "failed";
    case Outcome::kWrong:
      return "wrong";
    case Outcome::kOffFidelity:
      return "off_fidelity";
    case Outcome::kLate:
      return "late";
  }
  return "unknown";
}

Outcome classify(const Response& response, double latency_limit_ms) {
  if (response.shed) {
    return Outcome::kShed;
  }
  if (response.failed) {
    return Outcome::kFailed;
  }
  if (!response.correct) {
    return Outcome::kWrong;
  }
  if (response.degraded != response.triage_degraded) {
    return Outcome::kOffFidelity;
  }
  if (response.latency_ms > latency_limit_ms) {
    return Outcome::kLate;
  }
  return Outcome::kGood;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

uint64_t SeedStream::next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SeedStream::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"throughput_fps", "1/s"},
      {"goodput_rps", "1/s"},
      {"cpu_ms_per_frame", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<std::string>& counted_solvers() {
  static const std::vector<std::string> kSolvers = {
      "reference",      "blocked",         "blocked_prepacked",
      "blocked_mt2",    "blocked_mt4",     "blocked_avx2",
      "int8_reference", "int8_blocked",    "int8_avx2",
      "tconv_reference", "tconv_blocked",  "tconv_prepacked",
  };
  return kSolvers;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = [] {
    std::vector<MetricSpec> m = {
        {"kitti.preprocess_ms", "ms"},
        {"roadseg.predict_ms", "ms"},
        {"roadseg.stems_ms", "ms"},
        {"roadseg.decoder_ms", "ms"},
        {"roadseg.predict_rgb_only_ms", "ms"},
        {"roadseg.predict_batch4_ms", "ms"},
        {"roadseg.predict_stream_hit_ms", "ms"},
        {"roadseg.predict_stream_miss_ms", "ms"},
        {"plan.declined_per_forward", "ratio"},
        {"plan.compiles_in_timed_phase", "count"},
    };
    for (const std::string& solver : counted_solvers()) {
      m.push_back({"tune.solver_selected." + solver, "count"});
    }
    const std::vector<MetricSpec> rest = {
        {"runtime.queue_wait_p50_ms", "ms"},
        {"runtime.queue_wait_p99_ms", "ms"},
        {"runtime.mean_batch_size", "count"},
        {"runtime.engine_latency_p50_ms", "ms"},
        {"serve.submit_ms", "ms"},
        {"serve.forced_degraded_ratio", "ratio"},
        {"serve.shed_ratio", "ratio"},
        {"serve.spill_ratio", "ratio"},
        {"serve.tier1_entries", "count"},
        {"serve.tier2_entries", "count"},
        {"stream.cache_hit_ratio", "ratio"},
        {"tensor.arena_peak_bytes", "bytes"},
        {"obs.tracing_overhead_ratio", "ratio"},
        {"check.bitwise_equal_ratio", "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return kMetrics;
}

}  // namespace rfbench
