// End-to-end numeric tests for the stateful serving API.
//
// The central property: Pensieve's stateful serving — with KV reuse, swaps
// and dropped-prefix recomputation — produces exactly the same tokens as
// stateless serving that reprocesses the full conversation from scratch at
// every turn.

#include <gtest/gtest.h>

#include "src/core/stateful_server.h"
#include "src/model/model_config.h"
#include "src/workload/dataset.h"

namespace pensieve {
namespace {

StatefulServerConfig TinyConfig(const ModelConfig& model, int64_t gpu_blocks = 64,
                                int64_t cpu_blocks = 128) {
  StatefulServerConfig config;
  config.model = model;
  config.block_size = 8;
  config.num_gpu_blocks = gpu_blocks;
  config.num_cpu_blocks = cpu_blocks;
  config.weight_seed = 99;
  return config;
}

std::vector<int32_t> MakePrompt(int64_t conv, int64_t start, int64_t len,
                                int32_t vocab) {
  std::vector<int32_t> prompt;
  prompt.reserve(static_cast<size_t>(len));
  for (int64_t i = 0; i < len; ++i) {
    prompt.push_back(SyntheticToken(conv, start + i, vocab));
  }
  return prompt;
}

// Serves `turns` via a fresh stateless server per turn: each turn replays
// the full raw history as the prompt. Returns per-turn outputs.
std::vector<std::vector<int32_t>> StatelessReference(
    const ModelConfig& model, const std::vector<std::vector<int32_t>>& prompts,
    int64_t output_len) {
  std::vector<std::vector<int32_t>> outputs;
  std::vector<int32_t> history;
  for (const std::vector<int32_t>& prompt : prompts) {
    StatefulLlmServer fresh(TinyConfig(model, 256, 256));
    std::vector<int32_t> full_prompt = history;
    full_prompt.insert(full_prompt.end(), prompt.begin(), prompt.end());
    auto result = fresh.Chat(/*conversation_id=*/0, full_prompt, output_len);
    EXPECT_TRUE(result.ok()) << result.status();
    outputs.push_back(result.value());
    history = full_prompt;
    history.insert(history.end(), result.value().begin(), result.value().end());
  }
  return outputs;
}

class EquivalenceTest : public ::testing::TestWithParam<const char*> {
 protected:
  ModelConfig Model() const {
    ModelConfig model;
    EXPECT_TRUE(ModelConfigByName(GetParam(), &model));
    return model;
  }
};

TEST_P(EquivalenceTest, StatefulMatchesStatelessAcrossTurns) {
  const ModelConfig model = Model();
  const std::vector<std::vector<int32_t>> prompts = {
      MakePrompt(1, 0, 12, static_cast<int32_t>(model.vocab_size)),
      MakePrompt(1, 100, 7, static_cast<int32_t>(model.vocab_size)),
      MakePrompt(1, 200, 9, static_cast<int32_t>(model.vocab_size)),
  };
  const int64_t output_len = 6;
  const auto expected = StatelessReference(model, prompts, output_len);

  StatefulLlmServer server(TinyConfig(model));
  for (size_t turn = 0; turn < prompts.size(); ++turn) {
    auto result = server.Chat(7, prompts[turn], output_len);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result.value(), expected[turn]) << "turn " << turn;
  }
}

TEST_P(EquivalenceTest, SwapToCpuBetweenTurnsPreservesOutputs) {
  const ModelConfig model = Model();
  const std::vector<std::vector<int32_t>> prompts = {
      MakePrompt(2, 0, 14, static_cast<int32_t>(model.vocab_size)),
      MakePrompt(2, 50, 8, static_cast<int32_t>(model.vocab_size)),
  };
  const int64_t output_len = 5;
  const auto expected = StatelessReference(model, prompts, output_len);

  StatefulLlmServer server(TinyConfig(model));
  auto t0 = server.Chat(3, prompts[0], output_len);
  ASSERT_TRUE(t0.ok());
  EXPECT_EQ(t0.value(), expected[0]);
  // Force the whole conversation to the CPU tier; the next turn must swap
  // it back in and produce identical tokens.
  ASSERT_TRUE(server.SwapOutConversation(3).ok());
  EXPECT_EQ(server.cache().Find(3)->TokensOnGpu(), 0);
  auto t1 = server.Chat(3, prompts[1], output_len);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1.value(), expected[1]);
}

TEST_P(EquivalenceTest, DroppedPrefixRecomputationPreservesOutputs) {
  const ModelConfig model = Model();
  const std::vector<std::vector<int32_t>> prompts = {
      MakePrompt(4, 0, 20, static_cast<int32_t>(model.vocab_size)),
      MakePrompt(4, 60, 6, static_cast<int32_t>(model.vocab_size)),
  };
  const int64_t output_len = 5;
  const auto expected = StatelessReference(model, prompts, output_len);

  StatefulLlmServer server(TinyConfig(model));
  auto t0 = server.Chat(5, prompts[0], output_len);
  ASSERT_TRUE(t0.ok());
  EXPECT_EQ(t0.value(), expected[0]);
  // Drop the first two chunks: turn 2 must recompute them from raw history
  // via the sub-request split and still match the stateless reference.
  ASSERT_TRUE(server.DropLeadingChunks(5, 2).ok());
  EXPECT_GT(server.cache().Find(5)->LeadingDroppedTokens(), 0);
  auto t1 = server.Chat(5, prompts[1], output_len);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1.value(), expected[1]);
}

TEST_P(EquivalenceTest, MixedSwapAndDropPreservesOutputs) {
  const ModelConfig model = Model();
  const std::vector<std::vector<int32_t>> prompts = {
      MakePrompt(6, 0, 24, static_cast<int32_t>(model.vocab_size)),
      MakePrompt(6, 70, 5, static_cast<int32_t>(model.vocab_size)),
      MakePrompt(6, 140, 7, static_cast<int32_t>(model.vocab_size)),
  };
  const int64_t output_len = 4;
  const auto expected = StatelessReference(model, prompts, output_len);

  StatefulLlmServer server(TinyConfig(model));
  auto t0 = server.Chat(9, prompts[0], output_len);
  ASSERT_TRUE(t0.ok());
  EXPECT_EQ(t0.value(), expected[0]);
  // Drop the first chunk, swap the rest to CPU.
  ASSERT_TRUE(server.DropLeadingChunks(9, 1).ok());
  ASSERT_TRUE(server.SwapOutConversation(9).ok());
  auto t1 = server.Chat(9, prompts[1], output_len);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1.value(), expected[1]);
  // And once more with only a swap.
  ASSERT_TRUE(server.SwapOutConversation(9).ok());
  auto t2 = server.Chat(9, prompts[2], output_len);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2.value(), expected[2]);
}

INSTANTIATE_TEST_SUITE_P(Models, EquivalenceTest,
                         ::testing::Values("tiny-opt", "tiny-llama"));

TEST(StatefulServerTest, HistoryTracksPromptsAndOutputs) {
  ModelConfig model = TinyOptConfig();
  StatefulLlmServer server(TinyConfig(model));
  auto prompt = MakePrompt(1, 0, 10, 128);
  auto result = server.Chat(1, prompt, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(server.History(1).size(), 14u);
  // KV covers everything except the pending final token.
  EXPECT_EQ(server.cache().Find(1)->kv_len(), 13);
}

TEST(StatefulServerTest, MultipleIndependentConversations) {
  ModelConfig model = TinyOptConfig();
  StatefulLlmServer server(TinyConfig(model));
  auto p1 = MakePrompt(1, 0, 10, 128);
  auto p2 = MakePrompt(2, 0, 10, 128);
  auto r1 = server.Chat(1, p1, 5);
  auto r2 = server.Chat(2, p2, 5);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // Different prompts give different generations (overwhelmingly likely).
  EXPECT_NE(r1.value(), r2.value());
  // Conversation 1's second turn unaffected by conversation 2's existence.
  auto follow = server.Chat(1, MakePrompt(1, 50, 5, 128), 3);
  ASSERT_TRUE(follow.ok());
}

TEST(StatefulServerTest, EndConversationReleasesState) {
  ModelConfig model = TinyOptConfig();
  StatefulLlmServer server(TinyConfig(model));
  ASSERT_TRUE(server.Chat(1, MakePrompt(1, 0, 10, 128), 4).ok());
  EXPECT_GT(server.cache().gpu_allocator().num_allocated(), 0);
  server.EndConversation(1);
  EXPECT_EQ(server.cache().gpu_allocator().num_allocated(), 0);
  EXPECT_EQ(server.cache().Find(1), nullptr);
  EXPECT_TRUE(server.History(1).empty());
}

TEST(StatefulServerTest, RejectsBadArguments) {
  ModelConfig model = TinyOptConfig();
  StatefulLlmServer server(TinyConfig(model));
  EXPECT_EQ(server.Chat(1, {}, 4).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Chat(1, {3}, 0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.SwapOutConversation(42).code(), StatusCode::kNotFound);
  EXPECT_EQ(server.DropLeadingChunks(42, 1).code(), StatusCode::kNotFound);
}

TEST(StatefulServerTest, EvictionUnderGpuPressureAcrossConversations) {
  // A GPU tier too small for all conversations forces the coordinator to
  // evict older conversations; everything must still serve correctly.
  ModelConfig model = TinyOptConfig();
  StatefulServerConfig config = TinyConfig(model, /*gpu_blocks=*/12,
                                           /*cpu_blocks=*/64);
  StatefulLlmServer server(config);
  for (int64_t conv = 1; conv <= 4; ++conv) {
    auto result = server.Chat(conv, MakePrompt(conv, 0, 16, 128), 6);
    ASSERT_TRUE(result.ok()) << "conv " << conv << ": " << result.status();
  }
  server.cache().CheckInvariants();
  // Revisit the first conversation (its chunks were likely evicted).
  auto result = server.Chat(1, MakePrompt(1, 99, 5, 128), 4);
  ASSERT_TRUE(result.ok()) << result.status();
  server.cache().CheckInvariants();
}

TEST(StatefulServerTest, DeterministicAcrossServerInstances) {
  ModelConfig model = TinyLlamaConfig();
  auto prompt = MakePrompt(8, 0, 12, 128);
  StatefulLlmServer a(TinyConfig(model));
  StatefulLlmServer b(TinyConfig(model));
  auto ra = a.Chat(1, prompt, 6);
  auto rb = b.Chat(1, prompt, 6);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra.value(), rb.value());
}


// --- Shared system prompts (paper footnote 3) --------------------------------
//
// Conversations that open with the same tokens share the KV of their common
// full blocks through the cache's prefix trie, with no registration step.

std::vector<int32_t> Concat(const std::vector<int32_t>& a,
                            const std::vector<int32_t>& b) {
  std::vector<int32_t> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

class SharedPrefixEquivalenceTest : public EquivalenceTest {};

TEST_P(SharedPrefixEquivalenceTest, OutputsMatchMonolithicServing) {
  const ModelConfig model = Model();
  const int32_t vocab = static_cast<int32_t>(model.vocab_size);
  const std::vector<int32_t> system_prompt = MakePrompt(50, 0, 19, vocab);
  StatefulLlmServer shared(TinyConfig(model));
  for (int64_t conv = 1; conv <= 3; ++conv) {
    const std::vector<int32_t> user = MakePrompt(50 + conv, 0, 4 + conv, vocab);
    const std::vector<int32_t> follow_up = MakePrompt(60 + conv, 0, 6, vocab);
    auto got = shared.Chat(conv, Concat(system_prompt, user), 6);
    ASSERT_TRUE(got.ok()) << got.status();
    auto got_next = shared.Chat(conv, follow_up, 4);
    ASSERT_TRUE(got_next.ok()) << got_next.status();

    // A server holding only this conversation computes every token itself.
    StatefulLlmServer mono(TinyConfig(model));
    auto mono_first = mono.Chat(conv, Concat(system_prompt, user), 6);
    ASSERT_TRUE(mono_first.ok());
    auto mono_next = mono.Chat(conv, follow_up, 4);
    ASSERT_TRUE(mono_next.ok());
    EXPECT_EQ(got.value(), mono_first.value()) << "conversation " << conv;
    EXPECT_EQ(got_next.value(), mono_next.value()) << "conversation " << conv;
  }
  // block_size 8: conversations 2 and 3 each attach the system prompt's two
  // full blocks.
  EXPECT_EQ(shared.cache().counters().shared_attached_tokens, 2 * 16);
  shared.cache().CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Models, SharedPrefixEquivalenceTest,
                         ::testing::Values("tiny-opt", "tiny-llama"));

TEST(SharedPrefixTest, SecondConversationAttachesInsteadOfAllocating) {
  const ModelConfig model = TinyLlamaConfig();
  const std::vector<int32_t> system_prompt = MakePrompt(60, 0, 24, 128);
  StatefulLlmServer server(TinyConfig(model));
  ASSERT_TRUE(server.Chat(1, Concat(system_prompt, MakePrompt(61, 0, 5, 128)), 4).ok());
  const int64_t allocated_after_first = server.cache().gpu_allocator().num_allocated();

  ASSERT_TRUE(server.Chat(2, Concat(system_prompt, MakePrompt(62, 0, 7, 128)), 4).ok());
  // Conversation 2's context spans 24 + 7 + 3 = 34 tokens: five chunks, of
  // which the first three are views over conversation 1's blocks.
  const ContextState* second = server.cache().Find(2);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->num_chunks(), 5);
  EXPECT_EQ(server.cache().gpu_allocator().num_allocated() - allocated_after_first, 2);
  EXPECT_EQ(server.cache().counters().shared_attached_chunks, 3);
  EXPECT_EQ(server.cache().GpuBlockTable(2)[0], server.cache().GpuBlockTable(1)[0]);

  // A prompt that is exactly the three published blocks attaches only two:
  // its last token must be prefilled to produce the first output.
  ASSERT_TRUE(server.Chat(3, system_prompt, 4).ok());
  EXPECT_EQ(server.cache().counters().shared_attached_chunks, 3 + 2);
  server.cache().CheckInvariants();
}

TEST(SharedPrefixTest, SharedBlocksOutliveTheirPublisher) {
  const ModelConfig model = TinyOptConfig();
  const std::vector<int32_t> system_prompt = MakePrompt(80, 0, 16, 128);
  const std::vector<int32_t> user = MakePrompt(81, 0, 10, 128);
  StatefulLlmServer server(TinyConfig(model, /*gpu_blocks=*/24, /*cpu_blocks=*/32));
  ASSERT_TRUE(server.Chat(1, Concat(system_prompt, MakePrompt(82, 0, 3, 128)), 4).ok());
  auto t1 = server.Chat(2, Concat(system_prompt, user), 5);
  ASSERT_TRUE(t1.ok());
  ASSERT_EQ(server.cache().counters().shared_attached_chunks, 2);
  // The publisher ends; its shared blocks stay with conversation 2, which
  // is then swapped out and partly dropped before its next turn.
  server.EndConversation(1);
  ASSERT_TRUE(server.SwapOutConversation(2).ok());
  ASSERT_TRUE(server.DropLeadingChunks(2, 1).ok());
  auto t2 = server.Chat(2, MakePrompt(83, 0, 6, 128), 5);
  ASSERT_TRUE(t2.ok()) << t2.status();
  server.cache().CheckInvariants();

  const auto expected = StatelessReference(
      model, {Concat(system_prompt, user), MakePrompt(83, 0, 6, 128)}, 5);
  EXPECT_EQ(t1.value(), expected[0]);
  EXPECT_EQ(t2.value(), expected[1]);
}

TEST(SharedPrefixTest, SubBlockPrefixSharesNothing) {
  // A common prefix shorter than one block has no full block to share.
  const ModelConfig model = TinyOptConfig();
  const std::vector<int32_t> tiny_prefix = MakePrompt(95, 0, 5, 128);  // < 8
  StatefulLlmServer server(TinyConfig(model));
  ASSERT_TRUE(server.Chat(1, Concat(tiny_prefix, MakePrompt(96, 0, 6, 128)), 4).ok());
  const std::vector<int32_t> second = Concat(tiny_prefix, MakePrompt(97, 0, 6, 128));
  auto got = server.Chat(2, second, 4);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(server.cache().counters().shared_attached_chunks, 0);

  StatefulLlmServer mono(TinyConfig(model));
  auto expected = mono.Chat(1, second, 4);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(got.value(), expected.value());
}

}  // namespace
}  // namespace pensieve
