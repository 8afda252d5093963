// Prints a digest of one StatefulLlmServer transcript served under cache
// pressure, for the golden check in tests/golden/golden.py.
//
// Six conversations take turns round-robin on a GPU pool that holds about
// two fifths of their combined KV (67 blocks) and a CPU tier that holds a
// fifth, so later turns find their history swapped out to the CPU tier or
// partly dropped. The digest is the turn count, a hash of every generated
// token in turn order and the cache's traffic counters. Every Chat call must
// succeed; a failed call is printed and the program exits non-zero.
//
// Usage: golden_transcript

#include <cstdio>
#include <vector>

#include "src/common/hash.h"
#include "src/core/stateful_server.h"
#include "src/model/model_config.h"
#include "src/workload/dataset.h"

namespace pensieve {
namespace {

constexpr int64_t kConversations = 6;
constexpr int64_t kTurns = 4;

int Run() {
  StatefulServerConfig config;
  config.model = TinyLlamaConfig();
  config.block_size = 8;
  config.num_gpu_blocks = 28;
  config.num_cpu_blocks = 14;
  config.weight_seed = 7;
  // The retention policy prices chunks from a wall-clock kernel profile, so
  // its eviction order can differ from run to run; LRU scores are virtual.
  config.policy = EvictionPolicyKind::kLru;
  StatefulLlmServer server(config);
  const int32_t vocab = static_cast<int32_t>(config.model.vocab_size);

  uint64_t tokens_hash = kFnv1a64OffsetBasis;
  int64_t generated = 0;
  int64_t failed = 0;
  for (int64_t turn = 0; turn < kTurns; ++turn) {
    for (int64_t conv = 0; conv < kConversations; ++conv) {
      const int64_t prompt_len = 9 + (conv * 5 + turn * 7) % 14;
      const int64_t output_len = 4 + (conv + 3 * turn) % 6;
      std::vector<int32_t> prompt;
      for (int64_t i = 0; i < prompt_len; ++i) {
        prompt.push_back(SyntheticToken(conv, turn * 1000 + i, vocab));
      }
      auto reply = server.Chat(conv, prompt, output_len);
      if (!reply.ok()) {
        ++failed;
        std::printf("chat failed: conversation %lld turn %lld: %s\n",
                    static_cast<long long>(conv), static_cast<long long>(turn),
                    reply.status().ToString().c_str());
        continue;
      }
      generated += static_cast<int64_t>(reply.value().size());
      tokens_hash = Fnv1a64(reply.value().data(),
                            reply.value().size() * sizeof(int32_t), tokens_hash);
    }
  }
  server.cache().CheckInvariants();

  const TwoTierKvCache::Counters& c = server.cache().counters();
  std::printf("model:             %s, %lld conversations x %lld turns, %lld GPU "
              "/ %lld CPU blocks of %lld tokens\n",
              config.model.name.c_str(),
              static_cast<long long>(kConversations),
              static_cast<long long>(kTurns),
              static_cast<long long>(config.num_gpu_blocks),
              static_cast<long long>(config.num_cpu_blocks),
              static_cast<long long>(config.block_size));
  std::printf("turns:             %lld ok, %lld failed, %lld tokens generated\n",
              static_cast<long long>(kConversations * kTurns - failed),
              static_cast<long long>(failed), static_cast<long long>(generated));
  std::printf("tokens_fnv1a64:    %016llx\n",
              static_cast<unsigned long long>(tokens_hash));
  std::printf("cache:             %lld swapped out, %lld swapped in, %lld "
              "dropped, %lld restored, %lld reclaimed chunks\n",
              static_cast<long long>(c.swapped_out_chunks),
              static_cast<long long>(c.swapped_in_chunks),
              static_cast<long long>(c.dropped_chunks),
              static_cast<long long>(c.restored_chunks),
              static_cast<long long>(c.reclaimed_gpu_blocks));
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pensieve

int main() { return pensieve::Run(); }
