// Unit tests of the benchmark's own helpers: the percentile rule, failure
// and refusal counting, self-time arithmetic and the layer summary.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "daemon.h"
#include "harness.h"

namespace agmdp::perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(PercentileSupported(999, 99.0));
  EXPECT_TRUE(PercentileSupported(1000, 99.0));
  EXPECT_FALSE(PercentileSupported(199, 95.0));
  EXPECT_TRUE(PercentileSupported(200, 95.0));
  EXPECT_TRUE(PercentileSupported(20, 50.0));
  EXPECT_FALSE(PercentileSupported(19, 50.0));
  EXPECT_FALSE(PercentileSupported(100000, 100.0));
}

TEST(PercentileRule, RefusesP99BelowOneThousand) {
  auto refused = Percentile(Ramp(999), 0, 99.0);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kFailedPrecondition);
  auto p99 = Percentile(Ramp(1000), 0, 99.0);
  ASSERT_TRUE(p99.ok());
  EXPECT_EQ(p99.value(), 990.0);  // nearest rank: 10 samples lie beyond
}

TEST(PercentileRule, NearestRankMedian) {
  auto p50 = Percentile({5, 1, 4, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                         16, 17, 18, 19, 20},
                        0, 50.0);
  ASSERT_TRUE(p50.ok());
  EXPECT_EQ(p50.value(), 10.0);
}

TEST(PercentileRule, MissedOperationsMissEveryLimit) {
  // 990 fast answers plus 10 failures: the failures are the slowest
  // samples, so p99 is still a real latency but anything above is not.
  auto p99 = Percentile(std::vector<double>(990, 1.0), 10, 99.0);
  ASSERT_TRUE(p99.ok());
  EXPECT_EQ(p99.value(), 1.0);
  auto p99_more_missed = Percentile(std::vector<double>(980, 1.0), 20, 99.0);
  ASSERT_TRUE(p99_more_missed.ok());
  EXPECT_TRUE(std::isinf(p99_more_missed.value()));
  // Missed operations also count towards the sample size.
  EXPECT_TRUE(Percentile(std::vector<double>(900, 1.0), 100, 99.0).ok());
}

TEST(PercentileRule, InterquartileMeanSmoothsBimodalTimings) {
  EXPECT_DOUBLE_EQ(InterquartileMean({40, 40, 55, 55}), 47.5);
  EXPECT_DOUBLE_EQ(InterquartileMean({1, 2, 3, 1000}), 2.5);
  EXPECT_DOUBLE_EQ(InterquartileMean({7}), 7.0);
}

TEST(OpCounting, RefusalsCountAsFailures) {
  OpCounts ops;
  ops.Add(Classify(util::Status::OK()));
  ops.Add(Classify(util::Status::OK()));
  ops.Add(Classify(util::Status::ResourceExhausted("queue full")));
  ops.Add(Classify(util::Status::Internal("checksum differs")));
  EXPECT_EQ(ops.attempted, 4u);
  EXPECT_EQ(ops.failed, 1u);
  EXPECT_EQ(ops.refused, 1u);
  EXPECT_EQ(ops.missed(), 2u);
  EXPECT_DOUBLE_EQ(ops.success_rate(), 0.5);
}

TEST(OpCounting, ResultLineReportsMissedAsFailed) {
  OpCounts ops;
  ops.Add(Outcome::kOk);
  ops.Add(Outcome::kRefused);
  Metrics metrics;
  metrics.Set("latency_p50_ms", 1.5, "ms");
  EXPECT_EQ(metrics.ResultLine(true, ops),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, "
            "\"metrics\": {\"latency_p50_ms\": {\"value\": 1.5, "
            "\"unit\": \"ms\"}}}");
}

TEST(OpCounting, PickKeepsTheRequestedOrderAndReportsMissing) {
  Metrics metrics;
  metrics.Set("fit_s", 1.0, "s");
  metrics.Set("setup_s", 2.0, "s");
  metrics.Set("latency_p50_ms", 3.0, "ms");
  std::vector<std::string> missing;
  const Metrics picked =
      metrics.Pick({"latency_p50_ms", "restart_s", "setup_s"}, &missing);
  ASSERT_EQ(picked.entries().size(), 2u);
  EXPECT_EQ(picked.entries()[0].first, "latency_p50_ms");
  EXPECT_EQ(picked.entries()[1].first, "setup_s");
  EXPECT_EQ(missing, std::vector<std::string>{"restart_s"});
}

TEST(SelfTime, SubtractsMergedClippedChildren) {
  std::vector<Span> spans = {
      MakeSpan("release.fit", 0.0, 10.0),             // 0
      MakeSpan("graph.source_open", 0.0, 2.0, 0),     // 1
      MakeSpan("pipeline.fit", 1.0, 5.0, 0),          // 2 overlaps 1
      MakeSpan("agm.theta_x", 1.0, 2.0, 2),           // 3
      MakeSpan("pipeline.artifact_write", 9.0, 12.0, 0),  // 4 clipped at 10
  };
  const std::vector<double> self = SelfTimes(spans);
  // Children of 0 cover [0, 5) and [9, 10): 6 seconds of 10.
  EXPECT_DOUBLE_EQ(self[0], 4.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(self[4], 3.0);
}

TEST(SelfTime, LayersPlusUnattributedAddUpToTotal) {
  std::vector<Span> spans = {
      MakeSpan("serve.request", 0.0, 10.0),
      MakeSpan("server.wait", 0.0, 3.0, 0),
      MakeSpan("server.handle", 3.0, 8.0, 0),
      MakeSpan("pipeline.sample_many", 3.0, 7.0, 2),
      MakeSpan("serve.request", 20.0, 24.0),
      MakeSpan("registry.resolve", 20.0, 21.0, 4),
  };
  const LayerSummary summary = SummarizeLayers(spans);
  EXPECT_DOUBLE_EQ(summary.total, 14.0);
  double sum = summary.unattributed;
  for (const auto& [layer, seconds] : summary.layers) {
    sum += seconds;
    if (layer == "server") EXPECT_DOUBLE_EQ(seconds, 4.0);
    if (layer == "pipeline") EXPECT_DOUBLE_EQ(seconds, 4.0);
    if (layer == "registry") EXPECT_DOUBLE_EQ(seconds, 1.0);
    if (layer == "eval") EXPECT_DOUBLE_EQ(seconds, 0.0);
  }
  // The request roots' own self time (2 s + 3 s) is the remainder.
  EXPECT_DOUBLE_EQ(summary.unattributed, 5.0);
  EXPECT_DOUBLE_EQ(sum, summary.total);
}

TEST(SelfTime, LayerOfUsesTheModulePrefix) {
  EXPECT_EQ(LayerOf("graph.csr_build"), "graph");
  EXPECT_EQ(LayerOf("mechanisms.fit"), "mechanisms");
  EXPECT_EQ(LayerOf("churn.load"), "unattributed");
  EXPECT_EQ(LayerOf("setup"), "unattributed");
}

TEST(SelfTime, ModeledRequestNestsComponents) {
  Served served;
  served.id = 42;
  served.start = 100.0;
  served.end = 110.0;
  const std::vector<Span> group = ModelRequest(
      served, "serve.request", "server.wait", 4.0,
      {{"server.parse_request", 0.5},
       {"server.handle", 3.0},
       {"pipeline.sample_many", 2.0, 1},
       {"server.checksum", 0.5, 1}});
  ASSERT_EQ(group.size(), 6u);
  EXPECT_DOUBLE_EQ(group[1].end - group[1].start, 6.0);  // 10 - 4 of waiting
  EXPECT_DOUBLE_EQ(group[3].start, 106.5);               // after the parse
  EXPECT_EQ(group[4].parent, 3);                         // inside handle
  EXPECT_DOUBLE_EQ(group[5].start, 108.5);
  for (const Span& s : group) EXPECT_EQ(s.request_id, 42u);

  std::vector<Span> flat;
  AppendGroup(group, &flat);
  AppendGroup(group, &flat);
  EXPECT_EQ(flat[6].parent, -1);
  EXPECT_EQ(flat[10].parent, 9);
  const LayerSummary summary = SummarizeLayers(flat);
  EXPECT_DOUBLE_EQ(summary.total, 20.0);
  // Per request: wait 6 + parse 0.5 + handle self 0.5 + checksum 0.5 in
  // the server layer, sample_many 2 in pipeline, 0.5 unattributed.
  EXPECT_NEAR(summary.unattributed, 1.0, 1e-12);
}

TEST(ChildProcess, CapturesStdoutAndExitCode) {
  auto child = ChildProcess::Spawn({"/bin/sh", "-c", "echo one; echo two; exit 3"},
                                   "/dev/null");
  ASSERT_TRUE(child.ok());
  auto first = child.value().ReadStdoutLine();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), "one");
  EXPECT_EQ(child.value().ReadRemainingStdout(), "two\n");
  auto exit = child.value().Wait();
  ASSERT_TRUE(exit.ok());
  EXPECT_EQ(exit.value().code, 3);
  EXPECT_GT(exit.value().peak_rss_mb, 0.0);
}

}  // namespace
}  // namespace agmdp::perfbench
