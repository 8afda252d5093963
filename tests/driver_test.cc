// Tests for the serving experiment driver and metrics collection.

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/model/model_config.h"
#include "src/serving/driver.h"
#include "src/serving/metrics.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

GpuCostModel Opt13BModel() {
  return GpuCostModel(Opt13BConfig(), A100Spec(1));
}

WorkloadTrace SmallTrace(int64_t conversations = 20, double rate = 0.5,
                         double think = 10.0, uint64_t seed = 1) {
  TraceOptions options;
  options.num_conversations = conversations;
  options.conversation_rate = rate;
  options.mean_think_time = think;
  options.seed = seed;
  return WorkloadTrace(ShareGptProfile(), options);
}

TEST(MetricsTest, SummaryComputesThroughputAndPercentiles) {
  MetricsCollector metrics;
  for (int i = 0; i < 10; ++i) {
    RequestOutcome o;
    o.request.request_id = i;
    o.request.arrival_time = 0.0;
    o.request.target_output_len = 10;
    o.generated_tokens = 10;
    o.finish_time = 1.0 + i;  // normalized latency = (1+i)/10
    metrics.Record(o);
  }
  EngineStats stats;
  ServingSummary summary = metrics.Summarize("test", /*makespan=*/100.0, stats);
  EXPECT_EQ(summary.completed_requests, 10);
  EXPECT_DOUBLE_EQ(summary.throughput_rps, 0.1);
  EXPECT_DOUBLE_EQ(summary.token_throughput, 1.0);
  EXPECT_NEAR(summary.mean_normalized_latency, 0.55, 1e-9);
  EXPECT_NEAR(summary.p90_normalized_latency, 0.91, 1e-6);
}

TEST(MetricsTest, TokenThroughputCountsGeneratedNotTarget) {
  // An early-terminated request (generated < target) must not inflate token
  // throughput with tokens it never produced.
  MetricsCollector metrics;
  for (int i = 0; i < 10; ++i) {
    RequestOutcome o;
    o.request.request_id = i;
    o.request.arrival_time = 0.0;
    o.request.target_output_len = 100;
    o.generated_tokens = (i == 0) ? 40 : 100;  // one request stopped early
    o.finish_time = 1.0 + i;
    metrics.Record(o);
  }
  EngineStats stats;
  ServingSummary summary = metrics.Summarize("test", /*makespan=*/100.0, stats);
  // (9 * 100 + 40) tokens over the 100 s window, not 10 * 100.
  EXPECT_DOUBLE_EQ(summary.token_throughput, 9.4);
}

TEST(MetricsTest, SmallWindowFallsBackToFullRun) {
  // Only one completion lands inside the requested steady-state window; the
  // summary must fall back to the full run instead of reporting a
  // one-sample "steady state".
  MetricsCollector metrics;
  for (int i = 0; i < 20; ++i) {
    RequestOutcome o;
    o.request.request_id = i;
    o.request.arrival_time = 0.0;
    o.request.target_output_len = 10;
    o.generated_tokens = 10;
    o.finish_time = (i < 19) ? 1.0 : 50.0;
    metrics.Record(o);
  }
  EngineStats stats;
  ServingSummary summary =
      metrics.Summarize("test", /*makespan=*/100.0, stats,
                        /*window_begin=*/40.0, /*window_end=*/60.0);
  EXPECT_DOUBLE_EQ(summary.window_begin, 0.0);
  EXPECT_DOUBLE_EQ(summary.window_end, 100.0);
  EXPECT_EQ(summary.window_completions, 20);
  EXPECT_DOUBLE_EQ(summary.token_throughput, 2.0);
}

TEST(MetricsTest, SummaryWithNoOutcomes) {
  MetricsCollector metrics;
  EngineStats stats;
  ServingSummary summary = metrics.Summarize("test", /*makespan=*/10.0, stats);
  EXPECT_EQ(summary.completed_requests, 0);
  EXPECT_DOUBLE_EQ(summary.throughput_rps, 0.0);
  EXPECT_DOUBLE_EQ(summary.token_throughput, 0.0);
  EXPECT_DOUBLE_EQ(summary.p50_normalized_latency, 0.0);
  EXPECT_DOUBLE_EQ(summary.p99_normalized_latency, 0.0);
}

TEST(MetricsTest, SummaryWithSingleOutcome) {
  // Every percentile of a one-sample distribution is that sample.
  MetricsCollector metrics;
  RequestOutcome o;
  o.request.arrival_time = 1.0;
  o.request.target_output_len = 4;
  o.generated_tokens = 4;
  o.finish_time = 3.0;  // normalized latency = 0.5
  metrics.Record(o);
  EngineStats stats;
  ServingSummary summary = metrics.Summarize("test", /*makespan=*/10.0, stats);
  EXPECT_EQ(summary.completed_requests, 1);
  EXPECT_DOUBLE_EQ(summary.mean_normalized_latency, 0.5);
  EXPECT_DOUBLE_EQ(summary.p50_normalized_latency, 0.5);
  EXPECT_DOUBLE_EQ(summary.p99_normalized_latency, 0.5);
  EXPECT_DOUBLE_EQ(summary.token_throughput, 0.4);
}

TEST(DriverTest, OutcomesReportGeneratedTokens) {
  // End-to-end: engines fill RequestOutcome::generated_tokens with what they
  // actually produced (equal to the target when nothing terminates early).
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace(/*conversations=*/5);
  auto engine = MakeEngine(SystemKind::kPensieve, model);
  DriverOptions options;
  std::vector<RequestOutcome> outcomes;
  options.outcomes = &outcomes;
  RunServingExperiment(engine.get(), trace, options);
  ASSERT_EQ(static_cast<int64_t>(outcomes.size()), trace.TotalRequests());
  for (const RequestOutcome& o : outcomes) {
    EXPECT_EQ(o.generated_tokens, o.request.target_output_len);
  }
}

TEST(DriverTest, CompletesAllRequests) {
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace();
  auto engine = MakeEngine(SystemKind::kPensieve, model);
  ServingSummary summary = RunServingExperiment(engine.get(), trace);
  EXPECT_EQ(summary.completed_requests, trace.TotalRequests());
  EXPECT_GT(summary.throughput_rps, 0.0);
  EXPECT_GT(summary.p90_normalized_latency, 0.0);
}

TEST(DriverTest, ConversationsLargerThanGpuDoNotWedgeTheEngine) {
  // At 0.15x the GPU holds 7,840 tokens; some ShareGPT conversations of this
  // trace grow past that. Their turns finish context-capped instead of
  // blocking the queue, so every request completes.
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace(/*conversations=*/300, /*rate=*/2.0,
                                   /*think=*/5.0, /*seed=*/26);
  EngineOverrides overrides;
  overrides.cache_scale = 0.15;
  auto engine = MakeEngine(SystemKind::kPensieve, model, overrides);
  ServingSummary summary = RunServingExperiment(engine.get(), trace);
  EXPECT_EQ(summary.completed_requests, trace.TotalRequests());
  EXPECT_GT(summary.engine_stats.context_capped_requests, 0);
}

TEST(DriverTest, StatelessEngineCompletesAllRequests) {
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace();
  auto engine = MakeEngine(SystemKind::kVllm, model);
  ServingSummary summary = RunServingExperiment(engine.get(), trace);
  EXPECT_EQ(summary.completed_requests, trace.TotalRequests());
  // Stateless engines recompute every history token.
  int64_t expected_history = 0;
  for (const TraceConversation& conv : trace.conversations()) {
    for (size_t t = 0; t < conv.spec.turns.size(); ++t) {
      expected_history += conv.spec.HistoryLenBeforeTurn(static_cast<int64_t>(t));
    }
  }
  EXPECT_EQ(summary.engine_stats.recomputed_history_tokens, expected_history);
}

TEST(DriverTest, CausalTurnOrdering) {
  // A conversation's turn t+1 never starts before turn t finished plus the
  // sampled think time.
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace(/*conversations=*/10, /*rate=*/1.0,
                                   /*think=*/5.0, /*seed=*/3);
  auto engine = MakeEngine(SystemKind::kPensieve, model);
  ServingSummary summary = RunServingExperiment(engine.get(), trace);
  EXPECT_EQ(summary.completed_requests, trace.TotalRequests());
}

TEST(DriverTest, DeterministicAcrossRuns) {
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace();
  auto e1 = MakeEngine(SystemKind::kPensieve, model);
  auto e2 = MakeEngine(SystemKind::kPensieve, model);
  ServingSummary s1 = RunServingExperiment(e1.get(), trace);
  ServingSummary s2 = RunServingExperiment(e2.get(), trace);
  EXPECT_DOUBLE_EQ(s1.makespan, s2.makespan);
  EXPECT_DOUBLE_EQ(s1.p90_normalized_latency, s2.p90_normalized_latency);
}

TEST(DriverTest, MaxStepsGuardStopsEarly) {
  GpuCostModel model = Opt13BModel();
  WorkloadTrace trace = SmallTrace(100, 5.0, 10.0);
  auto engine = MakeEngine(SystemKind::kPensieve, model);
  DriverOptions options;
  options.max_steps = 5;
  ServingSummary summary = RunServingExperiment(engine.get(), trace, options);
  EXPECT_LT(summary.completed_requests, trace.TotalRequests());
}

TEST(ExperimentTest, CapacityMatchesPaperConfiguration) {
  // 40 GB of KV per GPU: OPT-13B stores ~52K tokens, Llama 2-13B (GQA/4)
  // stores 4x that.
  HardwareSpec hw = A100Spec(1);
  const int64_t opt_tokens = GpuKvCacheTokens(Opt13BConfig(), hw);
  const int64_t llama_tokens = GpuKvCacheTokens(Llama2_13BConfig(), hw);
  EXPECT_NEAR(static_cast<double>(opt_tokens), 52400.0, 2000.0);
  // GQA group 4 => 4x the token capacity (up to integer rounding).
  EXPECT_NEAR(static_cast<double>(llama_tokens) / static_cast<double>(opt_tokens),
              4.0, 1e-3);
}

TEST(ExperimentTest, MakeEngineProducesAllSystems) {
  GpuCostModel model = Opt13BModel();
  EXPECT_EQ(MakeEngine(SystemKind::kPensieve, model)->name(), "pensieve");
  EXPECT_EQ(MakeEngine(SystemKind::kPensieveGpuOnly, model)->name(),
            "pensieve-gpu-cache");
  EXPECT_EQ(MakeEngine(SystemKind::kVllm, model)->name(), "vllm");
  EXPECT_EQ(MakeEngine(SystemKind::kTensorRtLlm, model)->name(), "tensorrt-llm");
}

TEST(ExperimentTest, RateSweepReturnsOnePointPerRate) {
  GpuCostModel model = Opt13BModel();
  SweepOptions options;
  options.num_conversations = 10;
  std::vector<SweepPoint> points =
      RateSweep(SystemKind::kVllm, model, ShareGptProfile(), {0.2, 0.5}, options);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].conversation_rate, 0.2);
  EXPECT_GT(points[1].summary.completed_requests, 0);
}

}  // namespace
}  // namespace pensieve
