#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "stats.hpp"

namespace rfbench {

int SpanRecorder::add(const std::string& name, SteadyClock::time_point start,
                      SteadyClock::time_point end, uint64_t request,
                      int parent, int thread) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, to_ns(start), to_ns(end), parent, request, thread});
  return static_cast<int>(spans_.size() - 1);
}

int SpanRecorder::open(const std::string& name, SteadyClock::time_point start,
                       uint64_t request, int thread) {
  return add(name, start, start, request, -1, thread);
}

void SpanRecorder::close(int index, SteadyClock::time_point end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(index)].end_ns = to_ns(end);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

namespace {

/// Nanoseconds of [start, end) covered by the union of `children`.
int64_t covered_ns(int64_t start, int64_t end,
                   std::vector<std::pair<int64_t, int64_t>> children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = start;
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

std::vector<int64_t> self_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns -
              covered_ns(spans[i].start_ns, spans[i].end_ns, children[i]);
  }
  return self;
}

}  // namespace

std::map<std::string, LayerTime> SpanRecorder::layer_times(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = self_ns(spans);
  std::map<std::string, LayerTime> out;
  std::map<std::string, std::vector<double>> durations;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double ms = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    LayerTime& layer = out[spans[i].name];
    ++layer.spans;
    layer.total_ms += ms;
    layer.self_ms += static_cast<double>(self[i]) / 1e6;
    durations[spans[i].name].push_back(ms);
  }
  for (auto& [name, layer] : out) {
    layer.median_ms = median(durations[name]);
  }
  return out;
}

double SpanRecorder::unaccounted_share(const std::vector<Span>& spans,
                                       const std::string& root) {
  const std::vector<int64_t> self = self_ns(spans);
  int64_t total = 0;
  int64_t uncovered = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == root) {
      total += spans[i].end_ns - spans[i].start_ns;
      uncovered += self[i];
    }
  }
  return total > 0 ? static_cast<double>(uncovered) / static_cast<double>(total)
                   : 0.0;
}

std::string SpanRecorder::chrome_json(const std::vector<Span>& spans) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[96];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(s.start_ns) / 1e3);
    os << (i ? "," : "") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread << ",\"ts\":" << buf;
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << ",\"dur\":" << buf << ",\"args\":{\"span\":" << i
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace rfbench
