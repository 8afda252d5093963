// Tests for the stateless baseline engines (vLLM / TensorRT-LLM models).

#include <gtest/gtest.h>

#include "src/model/model_config.h"
#include "src/serving/stateless_engine.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

GpuCostModel Opt13BModel() {
  return GpuCostModel(Opt13BConfig(), A100Spec(1));
}

Request MakeRequest(int64_t id, int64_t conv, int64_t prompt, int64_t history,
                    int64_t output, double arrival = 0.0) {
  Request r;
  r.request_id = id;
  r.conversation_id = conv;
  r.new_prompt_len = prompt;
  r.history_len = history;
  r.target_output_len = output;
  r.arrival_time = arrival;
  return r;
}

StatelessEngineOptions SmallOptions(int64_t blocks = 64) {
  StatelessEngineOptions o;
  o.block_size = 16;
  o.num_gpu_blocks = blocks;
  o.max_batch_tokens = 2048;
  return o;
}

// Runs steps until the engine drains; returns all outcomes.
std::vector<RequestOutcome> Drain(Engine* engine, double start = 0.0,
                                  int64_t max_steps = 100000) {
  std::vector<RequestOutcome> outcomes;
  double now = start;
  for (int64_t i = 0; i < max_steps && engine->HasWork(); ++i) {
    StepResult r = engine->Step(now);
    EXPECT_FALSE(r.idle) << "engine idled with pending work";
    if (r.idle) {
      break;
    }
    now += r.duration;
    for (auto& o : r.finished) {
      outcomes.push_back(std::move(o));
    }
  }
  return outcomes;
}

TEST(StatelessEngineTest, SingleRequestLifecycle) {
  GpuCostModel model = Opt13BModel();
  StatelessEngine engine(model, SmallOptions());
  engine.Enqueue(MakeRequest(0, 0, 50, 0, 10), 0.0);
  EXPECT_TRUE(engine.HasWork());
  std::vector<RequestOutcome> outcomes = Drain(&engine);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].request.request_id, 0);
  EXPECT_GT(outcomes[0].finish_time, 0.0);
  EXPECT_FALSE(engine.HasWork());
  // 10 output tokens: 1 from prefill + 9 decode steps.
  EXPECT_EQ(engine.stats().generated_tokens, 10);
  EXPECT_EQ(engine.stats().steps, 10);
}

TEST(StatelessEngineTest, HistoryIsAlwaysRecomputed) {
  GpuCostModel model = Opt13BModel();
  StatelessEngine engine(model, SmallOptions());
  engine.Enqueue(MakeRequest(0, 0, 40, 300, 5), 0.0);
  std::vector<RequestOutcome> outcomes = Drain(&engine);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].prefill_input_tokens, 340);
  EXPECT_EQ(outcomes[0].recomputed_tokens, 300);
  EXPECT_EQ(engine.stats().recomputed_history_tokens, 300);
}

TEST(StatelessEngineTest, PrefillStepLongerThanDecodeStep) {
  GpuCostModel model = Opt13BModel();
  StatelessEngine engine(model, SmallOptions(512));
  engine.Enqueue(MakeRequest(0, 0, 2000, 0, 3), 0.0);
  StepResult prefill = engine.Step(0.0);
  StepResult decode = engine.Step(prefill.duration);
  EXPECT_GT(prefill.duration, 2.0 * decode.duration);
}

TEST(StatelessEngineTest, BatchesMultipleDecodes) {
  GpuCostModel model = Opt13BModel();
  StatelessEngine engine(model, SmallOptions());
  for (int i = 0; i < 4; ++i) {
    engine.Enqueue(MakeRequest(i, i, 20, 0, 5, 0.1 * i), 0.0);
  }
  // One prefill step admits all four (80 tokens < budget)...
  StepResult first = engine.Step(0.0);
  EXPECT_TRUE(first.finished.empty());
  // ...then 4 decode steps finish them together.
  std::vector<RequestOutcome> outcomes = Drain(&engine, first.duration);
  EXPECT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(engine.stats().steps, 5);
}

TEST(StatelessEngineTest, TokenBudgetSplitsPrefills) {
  GpuCostModel model = Opt13BModel();
  StatelessEngineOptions options = SmallOptions(512);
  options.max_batch_tokens = 1000;
  StatelessEngine engine(model, options);
  engine.Enqueue(MakeRequest(0, 0, 800, 0, 2), 0.0);
  engine.Enqueue(MakeRequest(1, 1, 800, 0, 2), 0.0);
  StepResult first = engine.Step(0.0);  // only request 0 fits
  EXPECT_EQ(engine.stats().prefill_tokens, 800);
  StepResult second = engine.Step(first.duration);  // request 1's prefill
  EXPECT_EQ(engine.stats().prefill_tokens, 1600);
  (void)second;
}

TEST(StatelessEngineTest, OversizedPromptAdmittedAlone) {
  GpuCostModel model = Opt13BModel();
  StatelessEngineOptions options = SmallOptions(512);
  options.max_batch_tokens = 1000;
  StatelessEngine engine(model, options);
  engine.Enqueue(MakeRequest(0, 0, 3000, 0, 2), 0.0);
  std::vector<RequestOutcome> outcomes = Drain(&engine);
  EXPECT_EQ(outcomes.size(), 1u);
}

TEST(StatelessEngineTest, PreemptsUnderMemoryPressure) {
  GpuCostModel model = Opt13BModel();
  // 6 blocks of 16 = 96 token slots: either request fits alone (30 prompt +
  // 40 output = 70), but not both together.
  StatelessEngine engine(model, SmallOptions(6));
  engine.Enqueue(MakeRequest(0, 0, 30, 0, 40, 0.0), 0.0);
  engine.Enqueue(MakeRequest(1, 1, 30, 0, 40, 1.0), 0.0);
  std::vector<RequestOutcome> outcomes = Drain(&engine);
  EXPECT_EQ(outcomes.size(), 2u);
  EXPECT_GT(engine.stats().preemptions, 0);
  // The later-arrived request is the preemption victim.
  for (const RequestOutcome& o : outcomes) {
    if (o.request.request_id == 0) {
      EXPECT_EQ(o.suspensions, 0);
    }
  }
}

TEST(StatelessEngineTest, PreemptAndRetryUnderPoolExhaustion) {
  GpuCostModel model = Opt13BModel();
  // 6 blocks of 16 = 96 slots; each request peaks at 20 + 40 = 60, so no
  // two coexist once decode grows. The pool exhausts mid-decode repeatedly
  // and every victim must be re-admitted (re-prefilling prompt + emitted
  // output) until all three finish.
  StatelessEngine engine(model, SmallOptions(6));
  engine.Enqueue(MakeRequest(0, 0, 20, 0, 40, 0.0), 0.0);
  engine.Enqueue(MakeRequest(1, 1, 20, 0, 40, 1.0), 0.0);
  engine.Enqueue(MakeRequest(2, 2, 20, 0, 40, 2.0), 0.0);
  std::vector<RequestOutcome> outcomes = Drain(&engine);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_GE(engine.stats().preemptions, 2);
  for (const RequestOutcome& o : outcomes) {
    // Preemption delays a request but never truncates it.
    EXPECT_EQ(o.generated_tokens, 40);
    if (o.request.request_id == 0) {
      // The earliest arrival is never the victim while others are running,
      // and fits alone once they finish.
      EXPECT_EQ(o.suspensions, 0);
    }
  }
  EXPECT_FALSE(engine.HasWork());
  // All pages returned: a fresh request admits without preempting anyone.
  engine.Enqueue(MakeRequest(3, 3, 30, 0, 40, 100.0), 100.0);
  std::vector<RequestOutcome> more = Drain(&engine, 100.0);
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(more[0].suspensions, 0);
}

TEST(StatelessEngineTest, ContextLongerThanGpuIsCapped) {
  GpuCostModel model = Opt13BModel();
  // 4 blocks of 16 = 64 token slots on the whole GPU.
  StatelessEngine engine(model, SmallOptions(4));
  // History + prompt (100 tokens) can never fit: it finishes at admission
  // with nothing generated instead of blocking the request behind it.
  engine.Enqueue(MakeRequest(0, 0, 40, 60, 8, 0.0), 0.0);
  // Fits at admission (50 tokens), but its decode would outgrow the GPU.
  engine.Enqueue(MakeRequest(1, 1, 50, 0, 40, 1.0), 0.0);
  std::vector<RequestOutcome> outcomes = Drain(&engine);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].request.request_id, 0);
  EXPECT_EQ(outcomes[0].generated_tokens, 0);
  EXPECT_EQ(outcomes[1].request.request_id, 1);
  // The prefill emits token 1 over 50 tokens of KV; decode step k emits
  // token k + 1 over 50 + k. After token 15 the KV fills all 64 slots and
  // the next decode step would need a 65th.
  EXPECT_EQ(outcomes[1].generated_tokens, 15);
  EXPECT_EQ(engine.stats().context_capped_requests, 2);
  EXPECT_FALSE(engine.HasWork());
}

TEST(StatelessEngineTest, TensorRtSpeedupReducesStepTime) {
  GpuCostModel model = Opt13BModel();
  StatelessEngineOptions vllm_options = SmallOptions(512);
  StatelessEngineOptions trt_options = SmallOptions(512);
  trt_options.dense_speedup = 1.25;
  trt_options.name = "tensorrt-llm";
  StatelessEngine vllm(model, vllm_options);
  StatelessEngine trt(model, trt_options);
  vllm.Enqueue(MakeRequest(0, 0, 4000, 0, 2), 0.0);
  trt.Enqueue(MakeRequest(0, 0, 4000, 0, 2), 0.0);
  StepResult v = vllm.Step(0.0);
  StepResult t = trt.Step(0.0);
  EXPECT_LT(t.duration, v.duration);
  EXPECT_EQ(trt.name(), "tensorrt-llm");
}

TEST(StatelessEngineTest, FreesAllMemoryOnFinish) {
  GpuCostModel model = Opt13BModel();
  StatelessEngine engine(model, SmallOptions(64));
  engine.Enqueue(MakeRequest(0, 0, 100, 200, 8), 0.0);
  Drain(&engine);
  // Stateless: nothing retained after completion.
  engine.Enqueue(MakeRequest(1, 0, 100, 308, 8), 10.0);
  std::vector<RequestOutcome> outcomes = Drain(&engine, 10.0);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].recomputed_tokens, 308);
}

TEST(StatelessEngineTest, NormalizedLatencyComputedPerToken) {
  GpuCostModel model = Opt13BModel();
  StatelessEngine engine(model, SmallOptions());
  engine.Enqueue(MakeRequest(0, 0, 10, 0, 20, 5.0), 5.0);
  std::vector<RequestOutcome> outcomes = Drain(&engine, 5.0);
  ASSERT_EQ(outcomes.size(), 1u);
  const double norm = outcomes[0].NormalizedLatency();
  EXPECT_NEAR(norm, (outcomes[0].finish_time - 5.0) / 20.0, 1e-12);
}

}  // namespace
}  // namespace pensieve
