// Edge-case tests for the Pensieve engine: forgotten conversations, token
// budgets, restore-stall ablations, and swap-in priority.

#include <gtest/gtest.h>

#include "src/model/model_config.h"
#include "src/serving/pensieve_engine.h"
#include "src/sim/hardware.h"

namespace pensieve {
namespace {

GpuCostModel Opt13BModel() {
  return GpuCostModel(Opt13BConfig(), A100Spec(1));
}

Request MakeRequest(int64_t id, int64_t conv, int32_t turn, int64_t prompt,
                    int64_t history, int64_t output, double arrival = 0.0) {
  Request r;
  r.request_id = id;
  r.conversation_id = conv;
  r.turn_index = turn;
  r.new_prompt_len = prompt;
  r.history_len = history;
  r.target_output_len = output;
  r.arrival_time = arrival;
  return r;
}

PensieveEngineOptions SmallOptions(int64_t gpu_blocks = 64, int64_t cpu_blocks = 256) {
  PensieveEngineOptions o;
  o.block_size = 32;
  o.num_gpu_blocks = gpu_blocks;
  o.num_cpu_blocks = cpu_blocks;
  return o;
}

std::vector<RequestOutcome> Drain(Engine* engine, double start = 0.0) {
  std::vector<RequestOutcome> outcomes;
  double now = start;
  for (int64_t i = 0; i < 100000 && engine->HasWork(); ++i) {
    StepResult r = engine->Step(now);
    EXPECT_FALSE(r.idle);
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

TEST(PensieveEngineEdgeTest, ForgottenConversationRecomputesFullHistory) {
  GpuCostModel model = Opt13BModel();
  // GPU-only with a tiny cache: conversation 0's state will be fully
  // dropped (and its bookkeeping forgotten) under pressure from
  // conversation 1.
  PensieveEngineOptions options = SmallOptions(/*gpu_blocks=*/8, /*cpu_blocks=*/0);
  options.use_cpu_cache = false;
  PensieveEngine engine(model, options);
  engine.Enqueue(MakeRequest(0, 0, 0, 60, 0, 5), 0.0);
  Drain(&engine);
  // Conversation 1 needs (almost) the whole GPU: conversation 0 is evicted
  // entirely and forgotten.
  engine.Enqueue(MakeRequest(1, 1, 0, 200, 0, 20, 5.0), 5.0);
  Drain(&engine, 5.0);
  EXPECT_EQ(engine.cache().Find(0), nullptr) << "conversation 0 should be forgotten";
  // Conversation 0's second turn: its entire 65-token raw history re-enters
  // as input and is recomputed.
  engine.Enqueue(MakeRequest(2, 0, 1, 10, 65, 5, 10.0), 10.0);
  std::vector<RequestOutcome> outcomes = Drain(&engine, 10.0);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].reused_gpu_tokens, 0);
  EXPECT_EQ(outcomes[0].recomputed_tokens, 64);  // 65 minus the pending token
  engine.cache().CheckInvariants();
}

TEST(PensieveEngineEdgeTest, TurnLargerThanGpuFinishesCappedAtAdmission) {
  GpuCostModel model = Opt13BModel();
  // 8 blocks x 32 tokens: conversation 0's 300-token turn can never fit.
  PensieveEngine engine(model, SmallOptions(/*gpu_blocks=*/8));
  engine.Enqueue(MakeRequest(0, 0, 0, 300, 0, 10), 0.0);
  engine.Enqueue(MakeRequest(1, 1, 0, 40, 0, 10), 0.0);
  // Drain fails on an idle step: the oversized turn must not wedge the queue.
  std::vector<RequestOutcome> outcomes = Drain(&engine);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].request.request_id, 0);
  EXPECT_EQ(outcomes[0].generated_tokens, 0);
  EXPECT_EQ(outcomes[0].first_token_time, 0.0);
  EXPECT_EQ(outcomes[1].request.request_id, 1);
  EXPECT_EQ(outcomes[1].generated_tokens, 10);
  EXPECT_EQ(engine.stats().context_capped_requests, 1);
  engine.cache().CheckInvariants();
}

TEST(PensieveEngineEdgeTest, DecodeOutgrowingGpuFinishesCappedWithoutFlash) {
  GpuCostModel model = Opt13BModel();
  PensieveEngine engine(model, SmallOptions(/*gpu_blocks=*/8));
  // The 250-token prompt fits in 8 blocks; decode fills them at 256 tokens
  // (after 7 generated tokens) and the next token would need a ninth.
  engine.Enqueue(MakeRequest(0, 0, 0, 250, 0, 20), 0.0);
  std::vector<RequestOutcome> outcomes = Drain(&engine);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].generated_tokens, 7);
  EXPECT_EQ(engine.stats().context_capped_requests, 1);
  engine.cache().CheckInvariants();
}

TEST(PensieveEngineEdgeTest, TokenBudgetLimitsAdmissionsPerStep) {
  GpuCostModel model = Opt13BModel();
  PensieveEngineOptions options = SmallOptions(256, 256);
  options.max_batch_tokens = 100;
  PensieveEngine engine(model, options);
  engine.Enqueue(MakeRequest(0, 0, 0, 80, 0, 3), 0.0);
  engine.Enqueue(MakeRequest(1, 1, 0, 80, 0, 3, 0.1), 0.1);
  engine.Step(0.1);
  // The second prefill (80 tokens) would blow the 100-token budget.
  EXPECT_EQ(engine.num_running(), 1);
  EXPECT_EQ(engine.num_waiting(), 1);
  // Next step: request 0 is decoding (1 token), so request 1 fits.
  engine.Step(0.2);
  EXPECT_EQ(engine.num_running(), 2);
}

TEST(PensieveEngineEdgeTest, OversizedPromptAdmittedAloneDespiteBudget) {
  GpuCostModel model = Opt13BModel();
  PensieveEngineOptions options = SmallOptions(256, 256);
  options.max_batch_tokens = 100;
  PensieveEngine engine(model, options);
  engine.Enqueue(MakeRequest(0, 0, 0, 500, 0, 3), 0.0);
  std::vector<RequestOutcome> outcomes = Drain(&engine);
  EXPECT_EQ(outcomes.size(), 1u);
}

TEST(PensieveEngineEdgeTest, BlockingRestoreSlowerThanPipelined) {
  GpuCostModel model = Opt13BModel();
  auto run = [&](bool pipelined) {
    PensieveEngineOptions options = SmallOptions(/*gpu_blocks=*/8, /*cpu_blocks=*/64);
    options.pipelined_restore = pipelined;
    PensieveEngine engine(model, options);
    // Build up a cached conversation, push it to CPU via pressure, return.
    engine.Enqueue(MakeRequest(0, 0, 0, 200, 0, 10), 0.0);
    Drain(&engine);
    engine.Enqueue(MakeRequest(1, 1, 0, 200, 0, 10, 10.0), 10.0);
    Drain(&engine, 10.0);
    engine.Enqueue(MakeRequest(2, 0, 1, 30, 210, 5, 20.0), 20.0);
    Drain(&engine, 20.0);
    return engine.stats().restore_stall_seconds;
  };
  const double pipelined_stall = run(true);
  const double blocking_stall = run(false);
  EXPECT_LE(pipelined_stall, blocking_stall);
}

TEST(PensieveEngineEdgeTest, SuspensionBeforePrefillRedropsRestoredChunks) {
  GpuCostModel model = Opt13BModel();
  // Tight GPU, no CPU: conversation 0's history is dropped, then at its
  // second turn the restored chunks compete with a running request and may
  // force suspension. The engine must not leave garbage "resident" chunks.
  PensieveEngineOptions options = SmallOptions(/*gpu_blocks=*/6, /*cpu_blocks=*/0);
  options.use_cpu_cache = false;
  options.decode_reserve = 0.0;
  PensieveEngine engine(model, options);
  engine.Enqueue(MakeRequest(0, 0, 0, 100, 0, 60, 0.0), 0.0);
  engine.Enqueue(MakeRequest(1, 1, 0, 60, 0, 60, 0.1), 0.1);
  std::vector<RequestOutcome> outcomes = Drain(&engine);
  EXPECT_EQ(outcomes.size(), 2u);
  engine.cache().CheckInvariants();
}

TEST(PensieveEngineEdgeTest, SwapInPriorityReducesRestoreStall) {
  GpuCostModel model = Opt13BModel();
  auto run = [&](bool prioritize) {
    PensieveEngineOptions options = SmallOptions(/*gpu_blocks=*/10, /*cpu_blocks=*/64);
    options.prioritize_swap_in = prioritize;
    options.swap_out_threshold = 0.5;  // heavy eviction traffic
    PensieveEngine engine(model, options);
    double now = 0.0;
    int64_t id = 0;
    // Alternate two conversations so each return swaps the other out.
    for (int turn = 0; turn < 4; ++turn) {
      for (int64_t conv = 0; conv < 2; ++conv) {
        const int64_t history = turn == 0 ? 0 : turn * (150 + 10);
        engine.Enqueue(MakeRequest(id++, conv, turn, 150, history, 10, now), now);
        for (int64_t i = 0; i < 100000 && engine.HasWork(); ++i) {
          StepResult r = engine.Step(now);
          if (r.idle) {
            break;
          }
          now += r.duration;
        }
      }
    }
    return engine.stats().restore_stall_seconds;
  };
  // The §5 waiting mechanism must never make restores slower.
  EXPECT_LE(run(true), run(false) + 1e-9);
}

TEST(PensieveEngineEdgeTest, StatsAccumulateAcrossManyTurns) {
  GpuCostModel model = Opt13BModel();
  PensieveEngine engine(model, SmallOptions());
  double now = 0.0;
  int64_t history = 0;
  for (int32_t turn = 0; turn < 5; ++turn) {
    engine.Enqueue(MakeRequest(turn, 0, turn, 20, history, 10, now), now);
    std::vector<RequestOutcome> outcomes = Drain(&engine, now);
    ASSERT_EQ(outcomes.size(), 1u);
    now = outcomes[0].finish_time + 30.0;
    history += 30;
  }
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.generated_tokens, 50);
  // Turns 1-4 each reused history-1 tokens from the GPU.
  EXPECT_EQ(stats.reused_gpu_tokens, 29 + 59 + 89 + 119);
  EXPECT_EQ(stats.recomputed_history_tokens, 0);
  EXPECT_DOUBLE_EQ(stats.CacheHitRate(), 1.0);
}

}  // namespace
}  // namespace pensieve
