#include "benchlib/latency.h"

#include <gtest/gtest.h>

namespace pdx {
namespace {

TEST(LatencyRecorderTest, EmptySummaryIsZeros) {
  LatencyRecorder recorder;
  const LatencySummary summary = recorder.Summary();
  EXPECT_EQ(summary.count, 0u);
  EXPECT_EQ(summary.p50_ms, 0.0);
  EXPECT_EQ(summary.p99_ms, 0.0);
}

TEST(LatencyRecorderTest, PercentilesOnKnownDistribution) {
  LatencyRecorder recorder;
  // 1..100 ms: nearest-rank percentiles are exactly the rank values.
  for (int i = 1; i <= 100; ++i) recorder.Record(static_cast<double>(i));
  const LatencySummary summary = recorder.Summary();
  EXPECT_EQ(summary.count, 100u);
  EXPECT_EQ(summary.min_ms, 1.0);
  EXPECT_EQ(summary.max_ms, 100.0);
  EXPECT_DOUBLE_EQ(summary.mean_ms, 50.5);
  EXPECT_EQ(summary.p50_ms, 50.0);
  EXPECT_EQ(summary.p95_ms, 95.0);
  EXPECT_EQ(summary.p99_ms, 99.0);
}

TEST(LatencyRecorderTest, SingleSampleIsEveryPercentile) {
  LatencyRecorder recorder;
  recorder.Record(7.0);
  const LatencySummary summary = recorder.Summary();
  EXPECT_EQ(summary.p50_ms, 7.0);
  EXPECT_EQ(summary.p95_ms, 7.0);
  EXPECT_EQ(summary.p99_ms, 7.0);
}

TEST(LatencyRecorderTest, WindowSlidesButTotalsRemember) {
  LatencyRecorder recorder(4);
  for (int i = 1; i <= 8; ++i) recorder.Record(static_cast<double>(i));
  const LatencySummary summary = recorder.Summary();
  EXPECT_EQ(summary.count, 8u);        // All samples counted...
  EXPECT_EQ(summary.min_ms, 1.0);      // ...and remembered in the extrema,
  EXPECT_EQ(summary.p50_ms, 6.0);      // but percentiles see only {5,6,7,8}.
  EXPECT_EQ(summary.p99_ms, 8.0);
}

TEST(LatencyRecorderTest, ResetClears) {
  LatencyRecorder recorder;
  recorder.Record(3.0);
  recorder.Reset();
  EXPECT_EQ(recorder.count(), 0u);
  EXPECT_EQ(recorder.Summary().p50_ms, 0.0);
}

TEST(LatencyRecorderTest, ToStringMentionsPercentiles) {
  LatencyRecorder recorder;
  recorder.Record(2.0);
  const std::string text = recorder.Summary().ToString();
  EXPECT_NE(text.find("p50"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

}  // namespace
}  // namespace pdx
