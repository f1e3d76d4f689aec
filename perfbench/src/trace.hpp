// The benchmark's own spans. Each span wraps one call the benchmark makes
// into a layer's public API (preprocessing, submit, the future wait, a
// layer probe); spans of one request share its id, and a request's root
// span covers its whole latency. Spans stay in memory and are written as
// Chrome trace JSON when the run ends. The program under test records no
// spans of its own for this benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace rfbench {

using SteadyClock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int64_t start_ns = 0;  ///< since the recorder's epoch
  int64_t end_ns = 0;
  int parent = -1;       ///< index of the parent span, -1 for a root
  uint64_t request = 0;  ///< request id; 0 for probes
  int thread = 0;        ///< benchmark thread (0 = main)
};

/// Per-name aggregate of a finished trace.
struct LayerTime {
  size_t spans = 0;
  double total_ms = 0.0;       ///< summed durations
  double self_ms = 0.0;        ///< summed durations minus child coverage
  double median_ms = 0.0;      ///< median duration
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(SteadyClock::now()) {}

  /// Records a finished span; returns its index (usable as a parent).
  /// Children may be recorded before or after their parent's index is
  /// known by passing the parent index returned earlier.
  int add(const std::string& name, SteadyClock::time_point start,
          SteadyClock::time_point end, uint64_t request, int parent,
          int thread);

  /// Reserves a root span to be closed later with `close`.
  int open(const std::string& name, SteadyClock::time_point start,
           uint64_t request, int thread);
  void close(int index, SteadyClock::time_point end);

  std::vector<Span> spans() const;

  /// Self time and duration per span name. Self time is the span's
  /// duration minus the union of its direct children's intervals.
  static std::map<std::string, LayerTime> layer_times(
      const std::vector<Span>& spans);

  /// Share of the summed root-span durations named `root` that no child
  /// span covers.
  static double unaccounted_share(const std::vector<Span>& spans,
                                  const std::string& root);

  /// Chrome trace-event JSON ("X" events, microseconds).
  static std::string chrome_json(const std::vector<Span>& spans);

 private:
  int64_t to_ns(SteadyClock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  SteadyClock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace rfbench
