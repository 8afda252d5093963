#include "perfbench/src/inputs.h"

#include <algorithm>

#include "src/common/rng.h"

namespace perfbench {

std::vector<pensieve::ConversationSpec> StratifiedConversations(
    const pensieve::DatasetProfile& profile, int64_t n, uint64_t seed) {
  // The pool is the same for every seed; only the picks vary.
  constexpr uint64_t kPoolSeed = 20250330;
  pensieve::ConversationGenerator generator(profile, kPoolSeed);
  std::vector<pensieve::ConversationSpec> pool;
  pool.reserve(static_cast<size_t>(n * kPoolPerPick));
  for (int64_t i = 0; i < n * kPoolPerPick; ++i) {
    pool.push_back(generator.Next());
  }
  std::stable_sort(pool.begin(), pool.end(),
                   [](const pensieve::ConversationSpec& a,
                      const pensieve::ConversationSpec& b) {
                     return a.TotalTokens() < b.TotalTokens();
                   });
  pensieve::Rng rng(seed);
  std::vector<pensieve::ConversationSpec> picks;
  picks.reserve(static_cast<size_t>(n));
  for (int64_t s = 0; s < n; ++s) {
    picks.push_back(pool[static_cast<size_t>(
        s * kPoolPerPick + rng.UniformInt(0, kPoolPerPick - 1))]);
  }
  // Fisher-Yates with the repository's Rng, so the order is the same with
  // every standard library.
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(picks[static_cast<size_t>(i)],
              picks[static_cast<size_t>(rng.UniformInt(0, i))]);
  }
  return picks;
}

}  // namespace perfbench
