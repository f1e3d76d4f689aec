// Tests of the benchmark's own logic: the tail-percentile rule and its
// sliced form, goodput classification and span self time.
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace rfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {  // unsorted on purpose
    v.push_back(i);
  }
  return v;
}

TEST(TailPoint, PicksHighestPercentileWithTenSamplesBeyond) {
  const TailPoint p90 = tail_point(one_to(100));
  EXPECT_EQ(p90.percentile, 90.0);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_EQ(p90.samples, 100u);

  const TailPoint p99 = tail_point(one_to(1000));
  EXPECT_EQ(p99.percentile, 99.0);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.beyond, 10u);

  const TailPoint p999 = tail_point(one_to(10000));
  EXPECT_EQ(p999.percentile, 99.9);
  EXPECT_EQ(p999.beyond, 10u);
}

TEST(TailPoint, StepsDownWhenFewerThanTenSamplesBeyond) {
  // p99 of 999 samples leaves 9 beyond, so p90 is the tail.
  EXPECT_EQ(tail_point(one_to(999)).percentile, 90.0);
  // p90 of 99 samples leaves 9 beyond, so the median is the tail.
  const TailPoint p50 = tail_point(one_to(99));
  EXPECT_EQ(p50.percentile, 50.0);
  EXPECT_EQ(p50.beyond, 49u);
}

TEST(TailPoint, StopsAtTheCap) {
  const TailPoint p90 = tail_point(one_to(10000), 90.0);
  EXPECT_EQ(p90.percentile, 90.0);
  EXPECT_EQ(p90.value, 9000.0);
  EXPECT_EQ(p90.beyond, 1000u);
  EXPECT_EQ(sliced_tail(one_to(10000), 8, 90.0).percentile, 90.0);
}

TEST(TailPoint, TinySampleFallsBackToMedianAndSaysSo) {
  const TailPoint p = tail_point(one_to(9));
  EXPECT_EQ(p.percentile, 50.0);
  EXPECT_EQ(p.value, 5.0);
  EXPECT_LT(p.beyond, kMinTailSamples);
  EXPECT_EQ(tail_point({}).samples, 0u);
}

TEST(SlicedTail, OneSlowSliceBarelyMovesTheTail) {
  // 4000 samples in time order; the third quarter runs twice as slow.
  std::vector<double> run;
  for (int c = 0; c < 4; ++c) {
    for (int i = 1; i <= 1000; ++i) {
      run.push_back(c == 2 ? 2.0 * i : i);
    }
  }
  const SlicedTail tail = sliced_tail(run, 8);
  EXPECT_EQ(tail.percentile, 99.0);  // the whole run supports p99
  EXPECT_EQ(tail.slices, 4u);        // 5 slices of 800 leave 8 beyond p99
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.value, 990.0);      // median of 990, 990, 1980, 990
  EXPECT_EQ(tail_point(run).value, 1920.0);  // 40 slow samples beyond it
}

TEST(SlicedTail, OneSliceIsTheWholeRunTail) {
  const SlicedTail tail = sliced_tail(one_to(1000), 8);
  EXPECT_EQ(tail.slices, 1u);
  EXPECT_EQ(tail.percentile, 99.0);
  EXPECT_EQ(tail.value, 990.0);
  EXPECT_EQ(sliced_tail(one_to(9), 8).slices, 1u);
  EXPECT_EQ(sliced_tail(one_to(5000), 1).value, tail_point(one_to(5000)).value);
}

Response healthy_on_time() {
  Response r;
  r.correct = true;
  r.latency_ms = 20.0;
  return r;
}

TEST(Goodput, HealthyFusedOnTimeCounts) {
  EXPECT_EQ(classify(healthy_on_time(), 100.0), Outcome::kGood);
  Response at_limit = healthy_on_time();
  at_limit.latency_ms = 100.0;
  EXPECT_EQ(classify(at_limit, 100.0), Outcome::kGood);
}

TEST(Goodput, TriageDegradedCounts) {
  Response r = healthy_on_time();
  r.degraded = true;
  r.triage_degraded = true;
  EXPECT_EQ(classify(r, 100.0), Outcome::kGood);
}

TEST(Goodput, DoorDegradedDoesNotCount) {
  Response r = healthy_on_time();
  r.degraded = true;  // healthy depth, but served RGB-only
  EXPECT_EQ(classify(r, 100.0), Outcome::kOffFidelity);
}

TEST(Goodput, ShedLateWrongAndFailedDoNotCount) {
  Response shed = healthy_on_time();
  shed.shed = true;
  shed.failed = true;
  EXPECT_EQ(classify(shed, 100.0), Outcome::kShed);

  Response late = healthy_on_time();
  late.latency_ms = 100.5;
  EXPECT_EQ(classify(late, 100.0), Outcome::kLate);

  Response wrong = healthy_on_time();
  wrong.correct = false;
  EXPECT_EQ(classify(wrong, 100.0), Outcome::kWrong);

  Response failed = healthy_on_time();
  failed.failed = true;
  EXPECT_EQ(classify(failed, 100.0), Outcome::kFailed);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanRecorder recorder;
  const auto t0 = SteadyClock::now();
  const auto at = [t0](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const int root = recorder.open("request", at(0), 1, 0);
  recorder.add("a", at(1), at(3), 1, root, 0);
  recorder.add("b", at(2), at(5), 1, root, 1);   // overlaps a
  recorder.add("c", at(8), at(12), 1, root, 0);  // runs past the root
  recorder.close(root, at(10));
  const auto layers = SpanRecorder::layer_times(recorder.spans());
  EXPECT_NEAR(layers.at("request").total_ms, 10.0, 1e-6);
  EXPECT_NEAR(layers.at("request").self_ms, 4.0, 1e-6);  // 10 - [1,5) - [8,10)
  EXPECT_NEAR(layers.at("b").self_ms, 3.0, 1e-6);
  EXPECT_NEAR(SpanRecorder::unaccounted_share(recorder.spans(), "request"), 0.4,
              1e-9);
}

}  // namespace
}  // namespace rfbench
