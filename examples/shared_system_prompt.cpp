// Shared system prompt (paper footnote 3): a chatbot deployment prepends
// the same system prompt to every conversation. The first conversation
// computes its KV and publishes the full blocks in the cache's prefix trie;
// every later conversation that opens with the same tokens attaches those
// blocks to its paged block table instead of prefilling them. No
// registration step: the server finds the common prefix itself.
//
//   ./build/examples/shared_system_prompt

#include <cstdio>
#include <vector>

#include "src/core/pensieve.h"

int main() {
  pensieve::StatefulServerConfig config;
  config.model = pensieve::TinyOptConfig();
  config.block_size = 8;
  config.num_gpu_blocks = 96;
  config.num_cpu_blocks = 96;
  pensieve::StatefulLlmServer server(config);

  // A 48-token "system prompt" (6 full blocks).
  std::vector<int32_t> system_prompt;
  for (int i = 0; i < 48; ++i) {
    system_prompt.push_back(pensieve::SyntheticToken(/*conv=*/0, i, 128));
  }

  // Three users chat; each first prompt is the system prompt plus their own
  // words.
  for (int64_t user = 1; user <= 3; ++user) {
    std::vector<int32_t> prompt = system_prompt;
    for (int i = 0; i < 6; ++i) {
      prompt.push_back(pensieve::SyntheticToken(user, 1000 + i, 128));
    }
    const int64_t blocks_before = server.cache().gpu_allocator().num_allocated();
    auto reply = server.Chat(user, prompt, 5);
    if (!reply.ok()) {
      std::printf("user %ld error: %s\n", static_cast<long>(user),
                  reply.status().ToString().c_str());
      return 1;
    }
    std::printf("user %ld reply:", static_cast<long>(user));
    for (int32_t t : reply.value()) {
      std::printf(" %d", t);
    }
    std::printf("  (%ld KV tokens, %ld new GPU blocks)\n",
                static_cast<long>(server.cache().Find(user)->kv_len()),
                static_cast<long>(server.cache().gpu_allocator().num_allocated() -
                                  blocks_before));
  }

  const pensieve::TwoTierKvCache::Counters& counters = server.cache().counters();
  std::printf("\n%ld prompt tokens attached from the first user's blocks; GPU "
              "blocks in use: %ld (%ld KV references)\n",
              static_cast<long>(counters.shared_attached_tokens),
              static_cast<long>(server.cache().gpu_allocator().num_allocated()),
              static_cast<long>(server.cache().gpu_allocator().live_refs()));

  for (int64_t user = 1; user <= 3; ++user) {
    server.EndConversation(user);
  }
  std::printf("all conversations ended; blocks in use: %ld\n",
              static_cast<long>(server.cache().gpu_allocator().num_allocated()));
  return 0;
}
